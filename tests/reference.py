"""Test-only references: an upward BFS to hold
``state.pt_false_distances`` to, the check's recognition rule as a
function of its own, a ball walk to hold ``checking._ball`` to, an
enumerator of any decision function's outcomes, and a scripted
adversary."""

from collections import deque
from dataclasses import dataclass

from ckplab.state import CT, CF, PF, CkpState, StateError


def anchor_bfs(state: CkpState, v: int):
    """Canonical upward BFS from ``v`` until the first minimal false node.

    FIFO queue, parents expanded in edge-insertion order, each node enqueued
    at most once, traversal restricted to PT nodes (PF parents are skipped,
    they are recognized through ``pf_parent_edges`` without being visited).
    It shares no code with the id-order relaxation of
    ``pt_false_distances``.

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
        # CkpState.membership's minimal-false rule, inlined
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


def flagged(state: CkpState, u: int, p_e, chooser) -> bool:
    """Does examining ``u`` expose it as minimal false?  The rule
    ``checking._ball`` applies inline: the CF detection coin first,
    whenever ``u`` is CF, then the public PF-parent flag, so the decision
    stream is the same whether or not a CF node also has a PF parent."""
    hit = False
    if state.labels[u] == CF:
        hit = chooser.maybe(p_e)
    return hit or state.pf_parent_edges[u] > 0


def reference_ball(state: CkpState, start: int, cap: int, p_e, chooser,
                   sweep: bool):
    """The ball walk of ``checking._ball``, written on its own: a deque
    of ``(node, depth)`` pairs and a depth dict as the enqueued set, and
    a closure grown in rounds over the whole visit order.  Returns
    ``(founds, marked, order)``.

    A walk from a PF or hidden-True ``start``, or with ``cap < 0``, is
    skipped: no coin, no visit.  Otherwise each popped node is examined
    by :func:`flagged`; a find stops the walk unless ``sweep``, and is
    never expanded through; any other node at depth below ``cap``
    enqueues its PT parents not yet enqueued, in edge order.  ``order``
    is every popped node.  ``marked`` is the finds plus every popped
    node with a parent already in ``marked``, repeated until nothing
    joins, and empty without a find.
    """
    if cap < 0 or state.labels[start] == PF or not state.is_false[start]:
        return [], set(), []
    depth = {start: 0}
    queue = deque([(start, 0)])
    founds, order = [], []
    while queue:
        u, d = queue.popleft()
        order.append(u)
        if flagged(state, u, p_e, chooser):
            founds.append(u)
            if not sweep:
                break
            continue
        if d == cap:
            continue
        for w in state.parents[u]:
            if w not in depth and state.labels[w] != PF:
                depth[w] = d + 1
                queue.append((w, d + 1))
    marked = set(founds)
    while True:
        joining = {x for x in order if x not in marked
                   and any(u in marked for u in state.parents[x])}
        if not joining:
            return founds, marked, order
        marked |= joining


def outcomes(decide, chooser):
    """Every outcome of ``decide(chooser)`` under a
    :class:`rand.PathChooser`, as ``(outcome, num, den)``: the product of
    the probabilities of the branches that lead to it is ``num / den``,
    two ints, not reduced.  ``decide`` runs once per leaf, first on the
    empty path, then on each fork a run recorded, the walk
    ``potentials.exact_drift`` makes of a step's moves and of each
    move's check."""
    found = []
    stack = [((), 1, 1)]
    while stack:
        chooser.replay(*stack.pop())
        found.append((decide(chooser), chooser.num, chooser.den))
        stack += chooser.forks
    return found


@dataclass(frozen=True)
class Scripted:
    """Plays the one move ``(parents, label)`` on every adversarial step;
    refuses it loudly where it is illegal."""

    parents: tuple
    label: int

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))

    def move(self, state, features, chooser):
        if len(self.parents) > features.adversary_budget:
            raise StateError("scripted move exceeds the edge budget")
        if any(state.labels[u] == PF for u in self.parents):
            raise StateError("scripted move attaches below a PF node")
        return list(self.parents), self.label
