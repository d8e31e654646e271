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

from itertools import compress, count

CT = 0
CF = 1
PF = 2

LABEL_NAMES = {CT: "CT", CF: "CF", PF: "PF"}
LABEL_CODES = {v: k for k, v in LABEL_NAMES.items()}

_FORMAT_HEADER = "ckp-state v2"


class StateError(ValueError):
    """Raised on an attempt to build or mutate an illegal state."""


class CkpState:
    """Growing DAG with per-node labels, truth values and degree indices.

    A state is its graph: the labels, the hidden truth bit and the parent
    edges, plus columns derived from them.  It does not record when or by
    which step branch a node was added; the step trace reports that.
    Stored column-wise so snapshots can be handed to the accelerated engine
    without translation.  Maintained per node:

    * ``labels[v]``, ``is_false[v]``
    * ``parents[v]`` / ``children[v]``: edge lists in insertion order,
      repeats kept
    * ``deg_pt[v]``: child edges whose child is currently labeled CT or CF
    * ``deg_ct[v]``: child edges whose child is currently labeled CT
    * ``pf_parent_edges[v]``: parent edges leading to a PF node
    * ``pf_total``: the number of PF nodes

    ``children``, ``deg_pt``, ``deg_ct``, ``pf_parent_edges`` and
    ``pf_total`` are derived from ``labels`` and ``parents``.  Every
    mutation here keeps them consistent, and :func:`load_state` derives
    them.  Both engines, ``potentials.exact_drift`` and the deep audit
    recount them (:func:`verify_state`), child lists in insertion
    order, and refuse a state whose columns were edited out of step;
    ``potentials.mc_drift`` trusts them.
    """

    __slots__ = ("labels", "is_false", "parents", "children", "deg_pt",
                 "deg_ct", "pf_parent_edges", "pf_total")

    def __init__(self):
        self.labels: list[int] = []
        self.is_false: list[bool] = []
        self.parents: list[list[int]] = []
        self.children: list[list[int]] = []
        self.deg_pt: list[int] = []
        self.deg_ct: list[int] = []
        self.pf_parent_edges: list[int] = []
        self.pf_total: int = 0

    # -- construction -----------------------------------------------------

    def add_root(self, label: int) -> int:
        """Add a parentless origin node (only sensible while seeding)."""
        if label not in (CT, CF):
            raise StateError(f"origin label must be CT or CF, got {label!r}")
        v = len(self.labels)
        self.labels.append(label)
        self.is_false.append(label == CF)
        self.parents.append([])
        self.children.append([])
        self.deg_pt.append(0)
        self.deg_ct.append(0)
        self.pf_parent_edges.append(0)
        return v

    def add_node(self, parent_ids, label: int) -> int:
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


# -- serialization --------------------------------------------------------

def dump_state(state: CkpState) -> str:
    """Render a state to the ``ckp-state v2`` text format.

    One node per line after the header:

        <id> <label> <is_false 0/1> <parents>

    where <parents> is a comma-separated id list in edge-insertion order
    (repeats kept) or ``-`` for the origin.  Round-trips bit-exactly.
    The text names the graph alone, so two runs that reach the same
    graph by different paths dump the same text.
    """
    lines = [f"{_FORMAT_HEADER} {len(state.labels)}"]
    for v in range(len(state.labels)):
        plist = ",".join(str(u) for u in state.parents[v]) or "-"
        lines.append(f"{v} {LABEL_NAMES[state.labels[v]]} "
                     f"{int(state.is_false[v])} {plist}")
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
    """Read the ``ckp-state v2`` text of :func:`dump_state`, deriving
    the other columns by the intake pass of :func:`verify_state`.  A
    header other than v2's (a v1 document carried two more fields per
    node), a malformed field, quoted as read, a parent that is not an
    earlier node or a broken truth rule raises :class:`StateError`."""
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
        if len(fields) != 4:
            raise StateError(f"malformed node line {line!r}")
        vid = _read_int(fields[0], "id", line)
        if vid != expect:
            raise StateError(f"node ids must be dense, got {vid} want {expect}")
        label = LABEL_CODES.get(fields[1])
        if label is None:
            raise StateError(f"unknown label {fields[1]!r}")
        state.labels.append(label)
        state.is_false.append(_read_flag(fields[2], "is_false", line))
        state.parents.append([] if fields[3] == "-" else [
            _read_int(x, "parent", line) for x in fields[3].split(",")])
    (state.children, state.deg_pt, state.deg_ct, state.pf_parent_edges,
     state.pf_total, fault) = _recount(state)
    if fault is not None:
        raise StateError(fault)
    return state


def _recount(state: CkpState):
    """The intake pass: one walk in id order over ``labels``,
    ``is_false`` and ``parents``, reading no derived column.

    Returns ``(children, deg_pt, deg_ct, pf_parent_edges, pf_total,
    fault)``: the derived columns as :class:`CkpState`'s mutators keep
    them, child lists in insertion order, and the message for the
    lowest node that breaks the hidden truth rule, or None.  The rule:
    False-ness flows down every edge, a False node with no False parent
    carries the error itself (so if it is still PT, it is labeled CF),
    and a PF node is False, since checks mark only False nodes.  The
    ball walks' skip from hidden-True nodes rests on it.  Its four
    checks at one node run in a fixed order.

    Raises :class:`StateError` at the lowest node whose label is not
    CT, CF or PF, or that names a parent other than an earlier node.
    """
    labels = state.labels
    is_false = state.is_false
    n = len(labels)
    children: list[list[int]] = [[] for _ in range(n)]
    deg_pt = [0] * n
    deg_ct = [0] * n
    pf_parent = [0] * n
    fault = None
    for v, ups, lab, false in zip(count(), state.parents, labels, is_false):
        if lab not in LABEL_NAMES:
            raise StateError(f"node {v}: label {lab!r} is not CT, CF or PF")
        inherited = False
        for u in ups:
            if not 0 <= u < v:
                raise StateError(f"parent id {u} out of range")
            children[u].append(v)
            if labels[u] == PF:
                pf_parent[v] += 1
            if is_false[u]:
                inherited = True
        if lab != PF:
            for u in ups:
                deg_pt[u] += 1
            if lab == CT:
                for u in ups:
                    deg_ct[u] += 1
        if fault is None:
            if inherited and not false:
                fault = f"node {v} descends from a False node but is True"
            elif not false and lab != CT:
                fault = f"{LABEL_NAMES[lab]} node {v} has is_false unset"
            elif false and not inherited and lab == CT:
                fault = f"CT node {v} is False yet no parent is False"
    return children, deg_pt, deg_ct, pf_parent, labels.count(PF), fault


def verify_state(state: CkpState) -> None:
    """What both engines, ``potentials.exact_drift`` and the deep audit
    check of a state handed to them.

    Every column must be as long as ``labels``.  Then :func:`_recount`
    runs, and each derived column must equal its recount, in the order
    ``children``, ``deg_pt``, ``deg_ct``, ``pf_parent_edges`` (the
    first that differs is named at its lowest node), then
    ``pf_total``.  Last, the truth rule must hold.  Raises
    :class:`StateError` at the first fault in that order.
    """
    n = len(state.labels)
    if any(len(column) != n for column in (
            state.is_false, state.parents, state.children, state.deg_pt,
            state.deg_ct, state.pf_parent_edges)):
        raise StateError("state columns differ in length")
    children, deg_pt, deg_ct, pf_parent, pf_total, fault = _recount(state)
    for name, have, want in (("children", state.children, children),
                             ("deg_pt", state.deg_pt, deg_pt),
                             ("deg_ct", state.deg_ct, deg_ct),
                             ("pf_parent_edges", state.pf_parent_edges,
                              pf_parent)):
        if have != want:
            v = next(v for v, a, b in zip(count(), have, want) if a != b)
            if name == "children":
                raise StateError(
                    f"node {v}: children do not mirror the parent lists")
            raise StateError(f"node {v}: {name} is {have[v]}, recount "
                             f"{want[v]}")
    if state.pf_total != pf_total:
        raise StateError(f"pf_total is {state.pf_total}, recount {pf_total}")
    if fault is not None:
        raise StateError(fault)
