"""Labeled growth-DAG state.

Nodes carry a public label and a hidden truth value.  Labels:

* ``CT``: treated as correct; no error has been observed on it.
* ``CF``: carries an undiscovered error (label looks like CT to the public,
  the distinction only matters to checks that examine the node).
* ``PF``: publicly flagged false.  Terminal: a PF node never changes again
  and never gains children.

``PT`` denotes the possibly-true labels {CT, CF}.  A node's hidden truth is
False exactly when it was born CF or descends from a node born CF.

Edges point child -> parent and may repeat (a child can attach several edges
to one parent); every derived quantity that talks about degree counts edge
multiplicity.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, count

CT = 0
CF = 1
PF = 2

LABEL_NAMES = {CT: "CT", CF: "CF", PF: "PF"}
LABEL_CODES = {v: k for k, v in LABEL_NAMES.items()}

_FORMAT_HEADER = "ckp-state v1"


class StateError(ValueError):
    """Raised on an attempt to build or mutate an illegal state."""


class CkpState:
    """Growing DAG with per-node labels, truth values and degree indices.

    Stored column-wise so snapshots can be handed to the accelerated engine
    without translation.  Maintained per node:

    * ``labels[v]``, ``is_false[v]``, ``birth[v]``, ``adversarial[v]``
    * ``parents[v]`` / ``children[v]``: edge lists in insertion order,
      repeats kept
    * ``deg_pt[v]``: child edges whose child is currently labeled CT or CF
    * ``deg_ct[v]``: child edges whose child is currently labeled CT
    * ``pf_parent_edges[v]``: parent edges leading to a PF node
    """

    __slots__ = ("labels", "is_false", "birth", "adversarial",
                 "parents", "children", "deg_pt", "deg_ct", "pf_parent_edges",
                 "pf_total")

    def __init__(self):
        self.labels: list[int] = []
        self.is_false: list[bool] = []
        self.birth: list[int] = []
        self.adversarial: list[bool] = []
        self.parents: list[list[int]] = []
        self.children: list[list[int]] = []
        self.deg_pt: list[int] = []
        self.deg_ct: list[int] = []
        self.pf_parent_edges: list[int] = []
        self.pf_total: int = 0

    def __len__(self) -> int:
        return len(self.labels)

    # -- construction -----------------------------------------------------

    def add_root(self, label: int, birth: int = 0) -> int:
        """Add a parentless origin node (only sensible while seeding)."""
        if label not in (CT, CF):
            raise StateError(f"origin label must be CT or CF, got {label!r}")
        v = len(self.labels)
        self.labels.append(label)
        self.is_false.append(label == CF)
        self.birth.append(birth)
        self.adversarial.append(False)
        self.parents.append([])
        self.children.append([])
        self.deg_pt.append(0)
        self.deg_ct.append(0)
        self.pf_parent_edges.append(0)
        return v

    def add_node(self, parent_ids, label: int, birth: int,
                 adversarial: bool = False) -> int:
        """Attach a new node below ``parent_ids`` (repeats allowed).

        Every parent must already exist and be PT: attaching below a PF node
        is illegal, which is what keeps PF terminal.  Returns the new id.
        """
        parent_ids = list(parent_ids)
        if not parent_ids:
            raise StateError("a new node needs at least one parent edge")
        if label not in (CT, CF):
            raise StateError(f"new node label must be CT or CF, got {label!r}")
        labels = self.labels
        is_false = self.is_false
        v = len(labels)
        # one pass checks every parent, in edge order, and decides the
        # new node's truth; nothing is changed before it ends
        false = label == CF
        for u in parent_ids:
            if not 0 <= u < v:
                raise StateError(f"parent id {u} out of range")
            if labels[u] == PF:
                raise StateError(f"parent {u} is PF; PF nodes never gain children")
            if is_false[u]:
                false = True
        labels.append(label)
        is_false.append(false)
        self.birth.append(birth)
        self.adversarial.append(bool(adversarial))
        self.parents.append(parent_ids)
        children = self.children
        children.append([])
        deg_pt = self.deg_pt
        deg_pt.append(0)
        deg_ct = self.deg_ct
        deg_ct.append(0)
        self.pf_parent_edges.append(0)
        if label == CT:
            for u in parent_ids:
                children[u].append(v)
                deg_pt[u] += 1
                deg_ct[u] += 1
        else:
            for u in parent_ids:
                children[u].append(v)
                deg_pt[u] += 1
        return v

    def pop_last_node(self) -> None:
        """Remove the most recently added node (used to undo a trial move)."""
        labels = self.labels
        children = self.children
        v = len(labels) - 1
        if v < 0:
            raise StateError("state is empty")
        if children[v]:
            raise StateError("can only pop a childless node")
        label = labels.pop()
        if label == PF:
            self.pf_total -= 1
            for u in self.parents.pop():
                children[u].pop()
        else:
            deg_pt = self.deg_pt
            deg_ct = self.deg_ct
            was_ct = label == CT
            for u in self.parents.pop():
                children[u].pop()
                deg_pt[u] -= 1
                if was_ct:
                    deg_ct[u] -= 1
        self.is_false.pop()
        self.birth.pop()
        self.adversarial.pop()
        children.pop()
        self.deg_pt.pop()
        self.deg_ct.pop()
        self.pf_parent_edges.pop()

    def mark_pf(self, marked) -> dict[int, int]:
        """Flag ``marked`` nodes PF and update all degree indices.

        Every marked node must currently be PT and hidden-False (checks are
        sound).  Returns {node: new deg_pt} for surviving PT nodes whose
        degree changed, so a caller can refresh attachment weights.
        """
        marked = sorted(set(marked))
        labels = self.labels
        is_false = self.is_false
        for w in marked:
            if labels[w] == PF:
                raise StateError(f"node {w} is already PF")
            if not is_false[w]:
                raise StateError(f"refusing to mark hidden-True node {w} PF")
        parents = self.parents
        children = self.children
        deg_pt = self.deg_pt
        deg_ct = self.deg_ct
        pf_parent_edges = self.pf_parent_edges
        degree_touched: set[int] = set()
        for w in marked:
            ups = parents[w]
            if labels[w] == CT:
                for u in ups:
                    deg_pt[u] -= 1
                    deg_ct[u] -= 1
            else:
                for u in ups:
                    deg_pt[u] -= 1
            labels[w] = PF
            degree_touched.update(ups)
            for c in children[w]:
                pf_parent_edges[c] += 1
        self.pf_total += len(marked)
        # sorted so weight refreshes happen in one canonical order on
        # every backend (float totals are order-sensitive)
        return {u: deg_pt[u] for u in sorted(degree_touched)
                if labels[u] != PF}

    # -- predicates -------------------------------------------------------

    def is_minimal_false(self, v: int) -> bool:
        """CF nodes, plus CT nodes with at least one PF parent edge (roots).

        These are the locally discoverable errors: a check recognizes a CF
        node when it examines it, and recognizes a root from the public PF
        label on its parent.
        """
        lab = self.labels[v]
        if lab == CF:
            return True
        return lab == CT and self.pf_parent_edges[v] > 0

    def is_ct_nonroot_leaf(self, v: int, simple_mode: bool) -> bool:
        """Frontier nodes a fresh edge can hit, removing them from the frontier.

        Simple mode: CT, no PF parent edge, no child edges at all.
        General mode: CT, no PF parent edge, no CT child edges (PF or CF
        children do not disqualify).
        """
        if self.labels[v] != CT or self.pf_parent_edges[v] > 0:
            return False
        if simple_mode:
            return not self.children[v]
        return self.deg_ct[v] == 0

    # -- global views -----------------------------------------------------

    def pt_ids(self) -> list[int]:
        return [v for v in range(len(self.labels)) if self.labels[v] != PF]

    def minimal_false_set(self) -> list[int]:
        return [v for v in range(len(self.labels)) if self.is_minimal_false(v)]

    def ct_nonroot_leaves(self, simple_mode: bool) -> list[int]:
        return [v for v in range(len(self.labels))
                if self.is_ct_nonroot_leaf(v, simple_mode)]

    def copy(self) -> "CkpState":
        dup = CkpState.__new__(CkpState)
        dup.labels = self.labels.copy()
        dup.is_false = self.is_false.copy()
        dup.birth = self.birth.copy()
        dup.adversarial = self.adversarial.copy()
        dup.parents = [p.copy() for p in self.parents]
        dup.children = [c.copy() for c in self.children]
        dup.deg_pt = self.deg_pt.copy()
        dup.deg_ct = self.deg_ct.copy()
        dup.pf_parent_edges = self.pf_parent_edges.copy()
        dup.pf_total = self.pf_total
        return dup


def pt_false_distances(state: CkpState) -> dict[int, int]:
    """Shortest upward distance from each PT hidden-False node to a minimal
    false node, along paths that traverse PT nodes only.

    Minimal false nodes sit at distance 0.  Any other PT False node is CT
    with at least one PT False parent (a False node's parents are either
    False or, when the node itself was born CF, possibly True; a CT False
    node with only PF False parents would be a root, hence minimal), so

        dist(v) = 1 + min(dist(u) for PT False parents u)

    which resolves in one id-order pass because parents precede children.
    The pass visits the False ids alone.
    """
    labels = state.labels
    pf_parent_edges = state.pf_parent_edges
    parents = state.parents
    dist: dict[int, int] = {}
    for v in compress(range(len(labels)), state.is_false):
        lab = labels[v]
        if lab == PF:
            continue
        # CkpState.is_minimal_false, inlined: lab is CT or CF here
        if lab == CF or pf_parent_edges[v] > 0:
            dist[v] = 0
            continue
        best = None
        for u in parents[v]:
            d = dist.get(u)
            if d is not None and (best is None or d < best):
                best = d
        if best is None:
            raise StateError(
                f"node {v} is PT False, not minimal, with no PT False parent")
        dist[v] = best + 1
    return dist


def anchor_bfs(state: CkpState, v: int):
    """Canonical upward BFS from ``v`` until the first minimal false node.

    FIFO queue, parents expanded in edge-insertion order, each node enqueued
    at most once, traversal restricted to PT nodes (PF parents are skipped,
    they are recognized through ``pf_parent_edges`` without being visited).

    Returns ``(anchor, depth, chain)`` where ``chain`` is the discovery path
    v -> ... -> anchor, or ``(None, None, None)`` when nothing is reachable.
    """
    labels = state.labels
    pf_parent_edges = state.pf_parent_edges
    parents = state.parents
    prev = {v: None}             # doubles as the enqueued set
    queue = deque([(v, 0)])
    while queue:
        u, d = queue.popleft()
        lab = labels[u]
        # CkpState.is_minimal_false, inlined
        if lab == CF or (lab == CT and pf_parent_edges[u] > 0):
            chain = [u]
            w = prev[u]
            while w is not None:
                chain.append(w)
                w = prev[w]
            chain.reverse()
            return u, d, chain
        for w in parents[u]:
            if w in prev or labels[w] == PF:
                continue
            prev[w] = u
            queue.append((w, d + 1))
    return None, None, None


def bfs_component_partition(state: CkpState):
    """Partition the PT hidden-False nodes by the anchor their canonical
    upward BFS reaches first.

    Returns ``(anchor_of, components)``: a node -> anchor map and an
    anchor -> sorted member list map.  Anchors map to themselves.
    """
    anchor_of: dict[int, int] = {}
    components: dict[int, list[int]] = {}
    for v in range(len(state.labels)):
        if state.labels[v] == PF or not state.is_false[v]:
            continue
        anchor, _, _ = anchor_bfs(state, v)
        if anchor is None:
            raise StateError(f"PT False node {v} reaches no minimal false node")
        anchor_of[v] = anchor
        components.setdefault(anchor, []).append(v)
    for members in components.values():
        members.sort()
    return anchor_of, components


# -- serialization --------------------------------------------------------

def dump_state(state: CkpState) -> str:
    """Render a state to the ``ckp-state v1`` text format.

    One node per line after the header:

        <id> <label> <is_false 0/1> <birth> <adversarial 0/1> <parents>

    where <parents> is a comma-separated id list in edge-insertion order
    (repeats kept) or ``-`` for the origin.  Round-trips bit-exactly.
    """
    lines = [f"{_FORMAT_HEADER} {len(state.labels)}"]
    for v in range(len(state.labels)):
        plist = ",".join(str(u) for u in state.parents[v]) or "-"
        lines.append(f"{v} {LABEL_NAMES[state.labels[v]]} "
                     f"{int(state.is_false[v])} {state.birth[v]} "
                     f"{int(state.adversarial[v])} {plist}")
    return "\n".join(lines) + "\n"


def _read_int(text: str, name: str, line: str) -> int:
    # only the digits dump_state writes, so a load dumps to the same text
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise StateError(f"{name} {text!r} is not an integer in line "
                         f"{line!r}")
    return value


def _read_flag(text: str, name: str, line: str) -> bool:
    if text not in ("0", "1"):
        raise StateError(f"{name} flag {text!r} is not 0 or 1 in line "
                         f"{line!r}")
    return text == "1"


def load_state(text: str) -> CkpState:
    """Read the ``ckp-state v1`` text of :func:`dump_state`.  A malformed
    field, a broken truth rule or a parent that is not an earlier node
    raises :class:`StateError`, quoting what it read."""
    lines = text.splitlines()
    if not lines:
        raise StateError("empty state document")
    head = lines[0].rsplit(" ", 1)
    if len(head) != 2 or head[0] != _FORMAT_HEADER:
        raise StateError(f"bad header {lines[0]!r}")
    count = _read_int(head[1], "node count", lines[0])
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != count:
        raise StateError(f"header promises {count} nodes, found {len(body)}")
    state = CkpState()
    for expect, line in enumerate(body):
        fields = line.split(" ")
        if len(fields) != 6:
            raise StateError(f"malformed node line {line!r}")
        vid = _read_int(fields[0], "id", line)
        if vid != expect:
            raise StateError(f"node ids must be dense, got {vid} want {expect}")
        label = LABEL_CODES.get(fields[1])
        if label is None:
            raise StateError(f"unknown label {fields[1]!r}")
        parents = [] if fields[5] == "-" else [
            _read_int(x, "parent", line) for x in fields[5].split(",")]
        for u in parents:
            if not 0 <= u < vid:
                raise StateError(f"node {vid} references parent {u}")
        state.labels.append(label)
        state.is_false.append(_read_flag(fields[2], "is_false", line))
        state.birth.append(_read_int(fields[3], "birth", line))
        state.adversarial.append(_read_flag(fields[4], "adversarial", line))
        state.parents.append(parents)
        state.children.append([])
        state.deg_pt.append(0)
        state.deg_ct.append(0)
        state.pf_parent_edges.append(0)
    for v in range(count):
        lab = state.labels[v]
        for u in state.parents[v]:
            state.children[u].append(v)
            if lab != PF:
                state.deg_pt[u] += 1
            if lab == CT:
                state.deg_ct[u] += 1
    for v in range(count):
        state.pf_parent_edges[v] = sum(
            1 for u in state.parents[v] if state.labels[u] == PF)
    state.pf_total = sum(1 for lab in state.labels if lab == PF)
    verify_truth_closure(state)
    return state


def _truth_fault(state: CkpState, v: int) -> str | None:
    """What breaks the hidden truth rule at node ``v``, or None: the
    message :func:`verify_truth_closure` raises, the first of its four
    checks, in a fixed order, that ``v`` fails."""
    is_false = state.is_false
    label = state.labels[v]
    inherited = any(is_false[u] for u in state.parents[v])
    if inherited and not is_false[v]:
        return f"node {v} descends from a False node but is True"
    if label == CF and not is_false[v]:
        return f"CF node {v} has is_false unset"
    if label == PF and not is_false[v]:
        return f"PF node {v} has is_false unset"
    if is_false[v] and not inherited and label == CT:
        return f"CT node {v} is False yet no parent is False"
    return None


def verify_truth_closure(state: CkpState) -> None:
    """Check the halves of the hidden truth rule that a finished state
    still exposes: False-ness flows down every edge, a False node with no
    False parent must itself carry the error (so if it is still PT, it is
    labeled CF), and a PF node is False, since checks mark only False
    nodes.  The ball walks' skip from hidden-True nodes rests on these,
    so both engines run this on their initial state.

    Raises :class:`StateError` with :func:`_truth_fault`'s message at the
    lowest-id node that breaks the rule.  A break is a True node labeled
    CF or PF, a True child of a False node, or a False CT node with no
    False parent, so one scan of the labels and a walk over the False
    nodes alone (their child lists, and the parents of the CT ones)
    find it.  The child lists are trusted to mirror the parent lists,
    as every mutation here and :func:`load_state` keep them.
    """
    labels = state.labels
    is_false = state.is_false
    parents = state.parents
    children = state.children
    falseness = is_false.__getitem__
    n = len(labels)
    # the lowest True node labeled CF or PF
    first = next((v for v, lab, false in zip(count(), labels, is_false)
                  if not false and lab != CT), n)
    # a child's id is above its parents', so a False node past the
    # lowest break found so far, and its children, cannot be lower
    for v in compress(range(first), is_false):
        if v >= first:
            break
        if labels[v] == CT and not any(map(falseness, parents[v])):
            first = v
            break
        kids = children[v]
        if not all(map(falseness, kids)):
            first = min(first, min(c for c in kids if not is_false[c]))
    if first < n:
        raise StateError(_truth_fault(state, first))
