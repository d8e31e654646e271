"""Test-only references: an upward BFS to hold
``state.pt_false_distances`` to, the check's recognition rule as a
function of its own, and a scripted adversary."""

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


def flagged(state: CkpState, u: int, p_e, chooser) -> bool:
    """Does examining ``u`` expose it as minimal false?  The rule
    ``checking._ball`` applies inline: the CF detection coin first,
    whenever ``u`` is CF, then the public PF-parent flag, so the decision
    stream is the same whether or not a CF node also has a PF parent."""
    hit = False
    if state.labels[u] == CF:
        hit = chooser.maybe(p_e)
    return hit or state.pf_parent_edges[u] > 0


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
