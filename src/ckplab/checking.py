"""The five local checking mechanisms, behind one entry point.

:func:`run_check` is the only way in.  Every mechanism is read-only: it
looks at the state through a chooser (so the same code serves simulation
and exact branch enumeration) and reports what it would mark; the engine
applies the marking.  Shared rules:

* A checker sees public labels only.  Examining a node recognizes it as
  bad by one rule: a CF node reveals its error with probability ``p_e``
  per encounter, a coin drawn first, whenever the node is CF; then a
  node with a PF parent edge is recognized with certainty (the flag is
  public).  So the decisions drawn are the same whether or not a CF
  node also has a PF parent.
* Traversal never enters a PF node.
* A ball walk from a hidden-True node is skipped: it could find nothing
  (see :func:`_ball`), so it draws no coin and visits nothing.
  ``stringy``'s walk is not skipped, since it draws a uniform at every
  step.
* Marking is sound by construction: everything marked sits on or below a
  recognized bad node, hence is hidden-False whenever the state is.

The two whole-check mechanisms flip the probability-p coin once:
``stringy`` then walks one random upward path of at most k steps, and
``bfs`` searches the radius-k ball above the new node up to the first
find.  The three per-edge mechanisms flip one coin per parent edge,
repeats included (a parent drawn twice is worth two chances); each
performed edge examines the new node, then searches the radius-(k-1)
ball above that parent.  They differ only in when they stop:

* ``exhaustive-bfs`` returns at the first find, on any edge;
* ``parentwise-bfs`` stops the current edge at its first find and moves
  on to the next, so a self-catch skips that edge's search;
* ``complete`` never stops: it sweeps the whole ball of every performed
  edge and marks every find.

The compiled kernel's ``run_check`` has the same shape and draws the same
decisions in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .state import CF, PF


@dataclass(slots=True)
class CheckOutcome:
    """What one check did: coin results, finds, the would-be PF set, and
    the visit order for audits."""
    performed: list = field(default_factory=list)
    found: list = field(default_factory=list)
    marked: set = field(default_factory=set)
    # examined nodes in order; a skipped ball walk adds none
    visited: list = field(default_factory=list)


def _descendants_within(state, visited, founds) -> set:
    """``founds`` plus every visited node lying below one via edges whose
    upper endpoint is also in the closure.  Fixpoint over the visited
    list, scanned from its end: an upward walk visits a node after a
    child of it, so most of the closure joins in the first pass.  These
    sets are tiny (a radius-k ball)."""
    parents = state.parents
    closure = set(founds)
    grew = True
    while grew:
        grew = False
        for x in reversed(visited):
            if x not in closure and not closure.isdisjoint(parents[x]):
                closure.add(x)
                grew = True
    return closure


def check_stringy(state, v: int, k: int, p_e, chooser) -> CheckOutcome:
    """One random upward walk of at most k steps.

    The new node is examined first, then each step picks a parent edge
    uniformly (multiplicity counts).  The walk ends at the first detected
    CF node, which is marked along with the walked path; or at the first
    edge into a PF node, where only the walked path is marked (its top
    node has a publicly flagged parent, which is what gave it away).  An
    undetected CF is walked straight through.
    """
    walked = [v]
    if state.labels[v] == CF and chooser.maybe(p_e):
        return CheckOutcome([True], [v], {v}, walked)
    current = v
    for _ in range(k):
        edges = state.parents[current]
        if not edges:
            break
        target = edges[chooser.uniform_index(len(edges))]
        if state.labels[target] == PF:
            return CheckOutcome([True], [walked[-1]], set(walked), walked)
        walked.append(target)
        current = target
        if state.labels[target] == CF and chooser.maybe(p_e):
            return CheckOutcome([True], [target], set(walked), walked)
    return CheckOutcome([True], [], set(), walked)


def _ball(state, start: int, cap: int, p_e, chooser, sweep: bool):
    """BFS upward from ``start`` to depth ``cap``, recognizing minimal
    false nodes by the rule of the module docstring.

    Canonical order, the kernel's: one list is the FIFO queue, seeded
    with ``start``, parents pushed in edge insertion order, each node
    enqueued once (the depth dict doubles as the seen set), recognition
    happens when a node is popped, and the popped prefix is the visit
    order.  Without ``sweep`` the walk stops at the first find; with it,
    it exhausts the ball, and recognized nodes are not expanded through,
    so anything hiding strictly behind one stays hidden from this sweep.
    Every find is marked together with every visited node below it.
    Returns (founds, marked, order).

    A walk from a hidden-True ``start`` is skipped, and that is exact.
    Falseness flows down every edge, so a True node's whole ancestor
    cone is True.  A True node is not CF, and it has no PF parent,
    because a check marks only False nodes.  So the walk would meet
    nothing it can recognize: it would draw no detection coin, find
    nothing and mark nothing.
    """
    labels = state.labels
    if cap < 0 or labels[start] == PF or not state.is_false[start]:
        return [], set(), []
    pf_parent_edges = state.pf_parent_edges
    parents = state.parents
    depth = {start: 0}
    queue = [start]
    founds: list = []
    for taken, u in enumerate(queue, 1):
        # the recognition rule: the CF coin, then the public flag
        if (labels[u] == CF and chooser.maybe(p_e)) or pf_parent_edges[u] > 0:
            founds.append(u)
            if not sweep:
                del queue[taken:]       # queued after u, never visited
                break
            continue
        d = depth[u]
        if d < cap:
            d += 1
            for w in parents[u]:
                if w not in depth and labels[w] != PF:
                    depth[w] = d
                    queue.append(w)
    return founds, _descendants_within(state, queue, founds), queue


MECHANISMS = ("stringy", "bfs", "exhaustive-bfs", "parentwise-bfs", "complete")

PER_EDGE = {"exhaustive-bfs", "parentwise-bfs", "complete"}


def run_check(mechanism: str, state, v: int, parent_edges, k: int, p, p_e,
              chooser) -> CheckOutcome:
    """Check the new node ``v`` with ``mechanism``; decisions are drawn in
    the same order as the compiled kernel's ``run_check``."""
    if mechanism in ("stringy", "bfs"):
        if not chooser.maybe(p):
            return CheckOutcome([False])
        if mechanism == "stringy":
            return check_stringy(state, v, k, p_e, chooser)
        founds, marked, order = _ball(state, v, k, p_e, chooser, False)
        return CheckOutcome([True], founds, marked, order)
    if mechanism not in PER_EDGE:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    out = CheckOutcome()
    for u in parent_edges:
        go = chooser.maybe(p)
        out.performed.append(go)
        if not go:
            continue
        out.visited.append(v)
        if state.labels[v] == CF and chooser.maybe(p_e):
            _record(out, [v], {v})
            if mechanism == "exhaustive-bfs":
                return out
            if mechanism == "parentwise-bfs":
                continue
        founds, marked, order = _ball(state, u, k - 1, p_e, chooser,
                                      mechanism == "complete")
        out.visited.extend(order)
        if founds:
            _record(out, founds, marked | {v})
            if mechanism == "exhaustive-bfs":
                return out
    return out


def _record(out: CheckOutcome, founds, marked) -> None:
    for f in founds:
        if f not in out.found:
            out.found.append(f)
    out.marked |= marked
