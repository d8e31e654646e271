"""Potential functions over process states, and their one-step drift.

Four potential families measure how much undiscovered error a state
carries:

* :class:`MinDistance`: sum of ``a(deg(v)) * c**dist(v)`` over PT
  hidden-False nodes, where ``dist`` is the shortest hop count to a
  minimal false node.  The workhorse for elimination arguments.
* :class:`MinimalFalse`: the bare count of minimal false nodes.
* :class:`MinimalFalseLeavesSimple`: minimal false nodes plus
  error-carrying frontier leaves, the quantity survival arguments push
  upward.
* :class:`MinimalFalseLeavesGeneral`: the same idea scoped to the
  descendant closure of one originating error node, with leaves weighted
  ``a(0)/a(deg(v))``.

``exact_drift`` enumerates every outcome of a single step and returns
the expected potential change as a Fraction: every input enters under
the rule of :func:`attachment._to_fraction`, a float at its binary
value.  ``mc_drift`` estimates the same quantity by sampling.  Both make
the step's decisions through :func:`evolution.draw_move`, as the
engine's step does: ``exact_drift`` under a replaying
:class:`PathChooser`, once per leaf, ``mc_drift`` under a live
:class:`SimChooser`, so the oracles and the engine describe the step once.
A leaf of ``exact_drift`` costs one replay, popped from an explicit
stack of pending forks: one stack for the moves, one for each move's
check, so the enumeration stays lazy and the leaf cap bites at the
first leaf past it.  The chooser's option tables are ints, built once
per call, so a leaf's weight is two ints, and the value and the mass
are summed as one numerator per denominator.

Both oracles add a step's node to the caller's state, score the step
with one function, :func:`_step_delta`, and pop the node again,
restoring the state whatever is raised.  The score sums ``new term -
old term`` over the few nodes whose term the step can change, never
copying the state or applying the marking.  What it reads of the state
before the step (the :class:`MinDistance` distances and
:class:`TermTable`, the general potential's scope) is built once per
call by :func:`_step_base`; ``exact_drift`` scores each parent
multiset, label and marking once.  A :class:`MinDistance` score splits
in two: the marking's part (the degrees it takes, the distances it
moves and their term changes) depends on the state before the step and
the marked old nodes alone, so :func:`_marking` computes it once per
call for each distinct set of them, kept on the call's
:class:`_StepBase`, and the move's part is a few lookups against it.
Checks are local and the new node always takes the next id, so a few
markings recur across all the moves and samples of a call.  A bad
input fails loudly before the
first leaf or sample: ``_step_base`` refuses a broken distance
structure, a bad anchor and a count potential it cannot evaluate, and
``exact_drift`` runs :func:`state.verify_state` (a recount of the
derived columns, then the truth rule), as the engines do; the tests
hold the scorer to the whole potential, before and after each step.

Potentials have one arithmetic, the rational one: a :class:`TermTable`
maps ``(deg, dist)`` to the exact ``a(deg) * c**dist``, filled on first
use, an int where the term is integral.  ``mc_drift`` scores each sample
exactly too and rounds only the sample's delta, to the nearest float,
for its running mean; with integral terms below 2**53 that is the
estimate a float recompute per sample would give, bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from . import checking
from .attachment import PrefixPool, _node_weights, _require_int, \
    _require_real, _to_fraction, parent_distribution
from .evolution import AuditViolation, RandomPt, draw_move
from .rand import PathChooser, SimChooser
from .state import CT, CF, PF, StateError, _label_bytes, \
    _pt_false_distances, pt_false_distances, verify_state

DEFAULT_LEAF_CAP = 10_000_000


class BranchBudgetExceeded(RuntimeError):
    """The outcome tree outgrew the leaf cap."""


class NonpositiveWeight(ValueError):
    """A leaf weight denominator came out zero or negative."""


class PotentialOverflow(ArithmeticError):
    """A sampled step's potential change does not fit a float."""


# -- potential kinds -------------------------------------------------------

@dataclass(frozen=True)
class MinDistance:
    """Distance-discounted weight sum with base ``c``; steeper bases
    punish buried errors harder."""

    attach: object
    c: object = 3

    def __post_init__(self):
        _require_real("distance base c", self.c)
        if not self.c > 1:
            raise ValueError("the distance base must exceed 1")


@dataclass(frozen=True)
class MinimalFalse:
    pass


@dataclass(frozen=True)
class MinimalFalseLeavesSimple:
    pass


@dataclass(frozen=True)
class MinimalFalseLeavesGeneral:
    """Minimal false nodes and weighted false leaves below ``anchor``,
    a node id; whether it names a node carrying an originating error is
    checked against the state, by :func:`_descendant_closure`."""

    anchor: int
    attach: object

    def __post_init__(self):
        _require_int("anchor", self.anchor)


class TermTable(dict):
    """``(deg_pt, dist) -> a(deg_pt) * c**dist`` for one
    :class:`MinDistance`, computed exactly on first lookup: an int where
    the term is integral, a Fraction otherwise.  A table lives as long as
    the call that built it.
    """

    __slots__ = ("attach", "c", "weights")

    def __init__(self, kind: MinDistance):
        super().__init__()
        self.attach = kind.attach
        self.c = _integral(_to_fraction(kind.c))
        # deg -> a(deg): a rational weight costs several times the power
        self.weights: dict = {}

    def __missing__(self, key):
        deg, dist = key
        weight = self.weights.get(deg)
        if weight is None:
            weight = _integral(self.attach.evaluate_exact(deg))
            self.weights[deg] = weight
        term = self[key] = _integral(weight * self.c ** dist)
        return term


def _integral(x):
    """A rational ``x`` as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def _descendant_closure(state, anchor: int) -> set[int]:
    """``anchor`` and every node below it; the anchor must be a node
    that carries an originating error."""
    if not 0 <= anchor < len(state.labels):
        raise ValueError(f"anchor id {anchor} out of range")
    if state.labels[anchor] == CT or not state.is_false[anchor]:
        raise ValueError(
            f"anchor {anchor} does not carry an originating error")
    closure = {anchor}
    frontier = [anchor]
    while frontier:
        u = frontier.pop()
        for c in state.children[u]:
            if c not in closure:
                closure.add(c)
                frontier.append(c)
    return closure


def _false_leaves(state, member: list[int]) -> list[int]:
    # leaves (code 2 of CkpState.membership) that still carry the hidden
    # error; a True frontier node is no loss when discovered, so it
    # never counts toward the potential
    is_false = state.is_false
    return [v for v, code in enumerate(member) if code == 2 and is_false[v]]


def _leaf_weight(attach, v: int, deg: int):
    """``a(0)/a(deg)``, the scoped potential's weight for leaf ``v``."""
    denom = attach.evaluate_exact(deg)
    if denom <= 0:
        raise NonpositiveWeight(
            f"leaf {v} has attachment weight {denom}; the scoped "
            f"leaf potential needs positive weights")
    return attach.evaluate_exact(0) / denom


def potential(state, kind):
    """Evaluate ``kind`` on ``state``, exactly: a Fraction for
    :class:`MinDistance` and the scoped leaf potential, an int for the
    two counts.

    A broken distance structure raises :class:`StateError`, from
    :func:`state.pt_false_distances`.
    """
    if isinstance(kind, MinDistance):
        terms = TermTable(kind)
        deg = state.deg_pt
        total = 0
        for v, d in pt_false_distances(state).items():
            total += terms[deg[v], d]
        return Fraction(total)

    if isinstance(kind, MinimalFalse):
        return state.membership(True).count(1)

    if isinstance(kind, MinimalFalseLeavesSimple):
        member = state.membership(True)
        return member.count(1) + len(_false_leaves(state, member))

    if isinstance(kind, MinimalFalseLeavesGeneral):
        closure = _descendant_closure(state, kind.anchor)
        member = state.membership(False)
        total = Fraction(sum(1 for v in closure if member[v] == 1))
        for v in _false_leaves(state, member):
            if v in closure:
                total += _leaf_weight(kind.attach, v, state.deg_pt[v])
        return total

    raise TypeError(f"unknown potential kind {kind!r}")


def _checked_total(state, kind):
    """The whole potential of ``state``, through :func:`potential` and
    its checks: the oracles' one evaluation of a count potential."""
    return potential(state, kind)


# the name the benchmark harness's tracer also wraps
_phi_value = _checked_total


# -- one step's change -----------------------------------------------------

@dataclass(frozen=True)
class _StepBase:
    """What :func:`_step_delta` reads of the state before the step,
    built once per oracle call by :func:`_step_base` and dropped with
    the call.  ``marks`` alone fills as the call goes: for each
    nonempty set of marked old nodes scored so far, the marking's part
    of a :class:`MinDistance` score, :func:`_marking`.  ``dist`` is the
    list of :func:`state._pt_false_distances`, indexed by node id: the
    distance at each PT False id and the sentinel ``len(dist)``, more
    than any distance, at every other, so a minimum over a node's
    parents reads each parent by index and no other wins it."""

    dist: list | None = None          # MinDistance: _pt_false_distances
    terms: TermTable | None = None    # MinDistance: the call's table
    marks: dict | None = None         # MinDistance: shed -> _marking
    closure: set | None = None        # MinimalFalseLeavesGeneral's scope


def _step_base(state, kind, labels) -> _StepBase:
    """``labels`` is the label column as :func:`state._label_bytes`
    reads it.  Each pass over the whole state refuses a bad input before
    the first leaf or sample: :func:`pt_false_distances` a broken
    :class:`MinDistance` distance structure, :func:`_descendant_closure`
    a bad anchor, and one whole evaluation of a count potential what it
    cannot evaluate.  A :class:`MinDistance` sum would refuse nothing
    more, since the distance pass and the parent pool's weights read
    everything it reads, so it is not taken."""
    if isinstance(kind, MinDistance):
        dist, _ = _pt_false_distances(state, labels)
        return _StepBase(dist=dist, terms=TermTable(kind), marks={})
    closure = None
    if isinstance(kind, MinimalFalseLeavesGeneral):
        closure = _descendant_closure(state, kind.anchor)
    _checked_total(state, kind)
    return _StepBase(closure=closure)


def _share(state, kind, w: int, pf_edges: int, kids: int,
           deg_pt: int, deg_ct: int):
    """Node ``w``'s term in a count potential, given its PF parent edges
    and its child, PT child and CT child edges; its label and truth are
    read from ``state``.  Which set ``w`` is in follows
    :meth:`state.CkpState.membership`'s rule on the counts given.  The
    caller scopes the general potential."""
    label = state.labels[w]
    if label == PF:
        return 0
    if label == CF or pf_edges > 0:         # minimal false
        return 1
    if isinstance(kind, MinimalFalse) or not state.is_false[w]:
        return 0
    if isinstance(kind, MinimalFalseLeavesSimple):
        return 1 if kids == 0 else 0
    return _leaf_weight(kind.attach, w, deg_pt) if deg_ct == 0 else 0


def _marking(state, base: _StepBase, v: int, born: dict, shed: frozenset):
    """The part of a :class:`MinDistance` step's score that the marked
    nodes other than the new node ``v``, ``shed``, decide alone:
    ``(lost, moved, delta)``.

    ``lost`` holds the PT child edges the marking takes from each
    parent of ``shed``; ``moved`` the distances it changes, found by
    re-applying the :func:`pt_false_distances` recurrence from the
    children of ``shed``, in increasing id order (ids are a topological
    order), with ``shed`` treated as PF, never entering ``v``; a node
    whose distance stays put does not pass the change on.  A parent
    outside the PT False nodes reads the sentinel of ``base.dist``, as
    in the pass.  ``delta``
    sums ``new term - old term`` over those nodes and ``shed``, which
    leaves the sum, all at their degrees before the step: ``deg_pt``
    less the edges ``born`` of ``v``.  None of it depends on ``v``,
    which has no child, so :func:`_step_delta` keeps it in
    ``base.marks`` for every later move with the same ``shed``.
    """
    labels = state.labels
    up = state.parents
    down = state.children
    is_false = state.is_false
    pf_parent_edges = state.pf_parent_edges
    dist = base.dist
    none = len(dist)            # the list's sentinel: no PT False distance
    lost: dict = {}
    queued = {v}                # v's own distance is the move's part
    for w in shed:
        for u in up[w]:
            lost[u] = lost.get(u, 0) + 1
        queued.update(down[w])
    heap = [w for w in queued
            if w != v and w not in shed and labels[w] != PF and is_false[w]]
    heapq.heapify(heap)
    moved: dict = {}
    while heap:
        w = heapq.heappop(heap)
        # CkpState.membership's minimal-false rule, inlined, with shed
        # as PF
        if (labels[w] == CF or pf_parent_edges[w] > 0
                or not shed.isdisjoint(up[w])):
            d = 0
        else:
            best = none
            for u in up[w]:
                du = moved[u] if u in moved else dist[u]
                if du < best:
                    best = du
            if best == none:
                raise StateError(f"node {w} is PT False, not minimal, with "
                                 f"no PT False parent after the step")
            d = best + 1
        if d == dist[w]:
            continue
        moved[w] = d
        for c in down[w]:
            if c not in queued and c not in shed and labels[c] != PF:
                queued.add(c)
                heapq.heappush(heap, c)
    touched = set(moved)
    touched.update(lost, shed)
    terms = base.terms
    deg_pt = state.deg_pt
    delta = 0
    for w in touched:
        if labels[w] == PF or not is_false[w]:
            continue
        deg = deg_pt[w] - born.get(w, 0)
        delta -= terms[deg, dist[w]]
        if w not in shed:
            delta += terms[deg - lost.get(w, 0),
                           moved[w] if w in moved else dist[w]]
    return lost, moved, delta


def _step_delta(state, kind, base: _StepBase, v: int, marked):
    """The change of ``kind``'s potential over one step, summed over the
    nodes whose term the step can change.

    ``state`` holds the step's new node ``v``, attached by its parent
    edges ``state.parents[v]``, but not the marking ``marked``; ``base`` is
    :func:`_step_base` of the state without ``v``.  The state is read,
    never changed.

    A :class:`MinDistance` score has two parts.  The marking's, for
    ``shed``, the marked nodes other than ``v``, is :func:`_marking`,
    computed once per call for each nonempty ``shed`` and kept in
    ``base.marks``.  The move's is a few lookups.  A marked ``v`` takes
    back the edges it gave its parents, so the marking's part is the
    whole score.  Otherwise each parent that stays PT False gains
    ``v``'s edges, at its distance after the marking, and a False ``v``
    joins the sum at degree 0: distance 0 when it is CF or a parent is
    in ``shed``, else one past its nearest False parent.

    A count potential's term for a node depends on its label, its PF
    parent edges and its child edges alone (and, for the general
    potential, on whether it lies below the anchor, which ``v`` does
    when a parent does).  So only ``v``, its parents, ``marked`` and
    the parents and children of ``marked`` can change theirs; each is
    scored before the step, without ``v``'s edges, and after it, with
    the marking applied.
    """
    labels = state.labels
    up = state.parents
    down = state.children
    deg_pt = state.deg_pt
    born: dict = {}           # edges v adds to each of its parents
    for u in up[v]:
        born[u] = born.get(u, 0) + 1

    if not isinstance(kind, MinDistance):
        lost: dict = {}       # edges the marking takes from each parent
        lost_ct: dict = {}    # the CT child edges among them
        gained: dict = {}     # PF parent edges the marking gives each child
        for w in marked:
            ct = labels[w] == CT
            for u in up[w]:
                lost[u] = lost.get(u, 0) + 1
                if ct:
                    lost_ct[u] = lost_ct.get(u, 0) + 1
            for c in down[w]:
                gained[c] = gained.get(c, 0) + 1
        pf = state.pf_parent_edges
        deg_ct = state.deg_ct
        new_ct = labels[v] == CT
        closure = base.closure
        delta = 0
        for w in {v, *born, *lost, *gained, *marked}:
            inside = closure is None or w in closure
            if w != v and inside:
                b = born.get(w, 0)
                delta -= _share(state, kind, w, pf[w],
                                len(down[w]) - b, deg_pt[w] - b,
                                deg_ct[w] - (b if new_ct else 0))
            if w == v:
                inside = closure is None or any(u in closure for u in born)
            if w not in marked and inside:
                delta += _share(state, kind, w,
                                pf[w] + gained.get(w, 0), len(down[w]),
                                deg_pt[w] - lost.get(w, 0),
                                deg_ct[w] - lost_ct.get(w, 0))
        return delta

    shed = frozenset(marked)
    own = v in shed         # the new node is marked
    if own:
        shed = shed - {v}
    if shed:
        part = base.marks.get(shed)
        if part is None:
            part = base.marks[shed] = _marking(state, base, v, born, shed)
        lost, moved, delta = part
    else:
        lost = moved = {}
        delta = 0
    if own:
        return delta
    is_false = state.is_false
    dist = base.dist
    terms = base.terms
    for u, b in born.items():
        if u in shed or not is_false[u]:
            continue
        du = moved[u] if u in moved else dist[u]
        deg = deg_pt[u] - lost.get(u, 0)
        delta += terms[deg, du] - terms[deg - b, du]
    if is_false[v]:
        if labels[v] == CF or not shed.isdisjoint(born):
            dv = 0
        else:
            dv = 1 + min(moved[u] if u in moved else dist[u]
                         for u in born if is_false[u])
        delta += terms[0, dv]
    return delta


# -- exact one-step drift --------------------------------------------------

@dataclass(frozen=True)
class DriftResult:
    value: object
    sign: str           # negative | zero | positive
    exact: bool         # always True; read by tests and the drift gate
    leaf_count: int


def exact_drift(state, features, kind, *,
                leaf_cap: int = DEFAULT_LEAF_CAP) -> DriftResult:
    """Expected one-step potential change, by complete enumeration, as a
    Fraction.

    Two passes of one replaying :class:`PathChooser`, each on its own
    explicit stack of pending forks.  The move pass enumerates
    :func:`evolution.draw_move`: the adversary coin, the move of
    ``features.adversary`` (a randomized move is enumerated like any
    other decision), the parent count, every ordered parent tuple and
    the label coin.  A run pops one fork, replays it and pushes the
    forks its open decisions record, so the stack holds pending forks
    only, never a list of moves: the pass is lazy, and one run costs
    one leaf of the decision tree.  Each move's node is added once, to
    ``state`` itself, and the check pass enumerates, the same way, every
    decision :func:`checking.run_check` makes on that child.  The move's
    leaves are grouped by marking, and :func:`_step_delta` scores each
    group with the marking left unapplied; then the node is popped
    again.  Scores are kept for the call, keyed by the sorted parents,
    the label and the marking, so moves that only order their parents
    differently share one.  That is exact: the state with the move's
    node and the score read the parent edges only as a multiset (counts,
    minima, membership).  Under those, a :class:`MinDistance` marking's
    distance propagation runs once per call for each set of marked old
    nodes (:func:`_marking`), shared by every move that marks them.

    Probabilities stay integer weights ``num / den``: the product of the
    probabilities of the branches that lead to a leaf, unreduced.  The
    check leaves of one marking are summed per check denominator, and
    the move's weight multiplies each such sum once.  The value and the
    mass are kept as one numerator each per denominator and turned into
    one Fraction per denominator at the end.  The mass must come to one,
    or the call raises instead of returning a number.  As in
    :func:`mc_drift`, no leaf copies the state, applies the marking or
    evaluates the whole potential, and ``state`` is restored on the way
    out, whatever is raised.  The set-up checks are :func:`_step_base`'s.

    ``leaf_cap`` is a positive int.  Two kinds of move are counted up
    front: the growth moves (each ordered parent tuple, times both
    label coins when errors are injected) and the moves of an adversary
    whose type is exactly :class:`evolution.RandomPt` (r picks and a
    label).  When those exceed ``leaf_cap`` the input is refused before
    any move is made.  Any other strategy, a ``RandomPt`` subclass
    included, is bounded by the per-leaf cap alone.  That cap bites at
    the first leaf past it: the check run that makes that leaf (or the
    move, for a leaf without a check) completes, then
    :class:`BranchBudgetExceeded` is raised.  A state that fails
    :func:`state.verify_state` is refused with its ``StateError``: the
    score reads the derived degree columns, and the check enumeration
    skips the ball walks from hidden-True nodes, which is exact only
    under the truth rule.

    Every rate, weight and base enters under the rule of
    :func:`attachment._to_fraction`: a float at its binary value, so
    the sign of a float input's drift is decided, not rounded.  A law
    whose binary masses miss one is refused.
    """
    leaf_cap = _require_int("leaf_cap", leaf_cap, 1)
    if sum(p for _, p in features.parent_count.items_exact()) != 1:
        raise ValueError(
            "parent-count masses do not sum to one exactly; "
            "use Fraction probabilities for exact drift")
    verify_state(state)
    pool = parent_distribution(state, features.attach)
    # every move ends in a leaf, so count them first: each ordered parent
    # tuple, both label coins, and each RandomPt move (r picks, a label)
    moves = sum(len(pool) ** m for m in features.parent_count.support)
    if features.error_rate > 0:
        moves *= 2
    r = features.adversary_budget
    if (features.adversary_rate > 0 and r > 0
            and type(features.adversary) is RandomPt):
        moves += len(state.pt_ids()) ** r * 2
    if moves > leaf_cap:
        raise BranchBudgetExceeded(
            f"at least {moves} moves exceed the leaf cap {leaf_cap}")

    base = _step_base(state, kind, _label_bytes(state))
    # denominator -> [numerator of the value's terms, of the mass's]
    sums: dict = {}
    scores: dict = {}   # (sorted parents, label, marking) -> step delta
    unmarked = frozenset()      # the one key of every empty marking
    past_cap = f"outcome tree exceeded {leaf_cap} leaves"
    leaf_count = 0
    n = len(state.labels)
    # both passes, every move's check included, share one option cache
    chooser = PathChooser()
    replay = chooser.replay
    mechanism = features.mechanism
    depth = features.check_depth
    rate = features.check_rate
    detection = features.detection_rate

    moves = [((), 1, 1)]        # the move pass's pending forks
    try:
        while moves:
            replay(*moves.pop())
            branch, parents, label = draw_move(state, features, chooser,
                                               pool)
            num = chooser.num
            den = chooser.den
            moves += chooser.forks
            if branch == "grow":
                v = state.add_node(parents, label)
                leaves = {}     # marking -> {check denominator: numerator}
                checks = [((), 1, 1)]   # the check pass's pending forks
                while checks:
                    replay(*checks.pop())
                    marked = checking.run_check(mechanism, state, v, depth,
                                                rate, detection,
                                                chooser).marked
                    checks += chooser.forks
                    leaf_count += 1
                    if leaf_count > leaf_cap:
                        raise BranchBudgetExceeded(past_cap)
                    key = frozenset(marked) if marked else unmarked
                    weights = leaves.get(key)
                    if weights is None:
                        leaves[key] = {chooser.den: chooser.num}
                    else:
                        cden = chooser.den
                        weights[cden] = weights.get(cden, 0) + chooser.num
            else:   # one unchecked leaf: stopped, or the adversary's move
                leaf_count += 1
                if leaf_count > leaf_cap:
                    raise BranchBudgetExceeded(past_cap)
                if parents is None:     # stopped, or the adversary passed
                    cell = sums.get(den)
                    if cell is None:
                        sums[den] = [0, num]
                    else:
                        cell[1] += num
                    continue
                v = state.add_node(parents, label)
                leaves = {unmarked: {1: 1}}
            edges = tuple(sorted(parents))
            for marked, weights in leaves.items():
                key = (edges, label, marked)
                delta = scores.get(key)
                if delta is None:
                    delta = scores[key] = _step_delta(state, kind, base, v,
                                                      marked)
                for cden, cnum in weights.items():
                    weight = num * cnum
                    denom = den * cden
                    cell = sums.get(denom)
                    if cell is None:
                        sums[denom] = [weight * delta, weight]
                    else:
                        cell[0] += weight * delta
                        cell[1] += weight
            state.pop_last_node()
    finally:
        # a move that raised left its node on the caller's state
        while len(state.labels) > n:
            state.pop_last_node()

    total_mass = _total(sums, 1)
    if total_mass != 1:
        raise AuditViolation(
            f"outcome probabilities sum to {total_mass}, not 1")
    value = _total(sums, 0)
    sign = "negative" if value < 0 else "positive" if value > 0 else "zero"
    return DriftResult(value, sign, True, leaf_count)


def _total(sums: dict, which: int) -> Fraction:
    """The sum of ``{denominator: numerators}`` at index ``which`` of
    the numerators, one Fraction per denominator."""
    return sum((Fraction(nums[which], den) for den, nums in sums.items()),
               Fraction(0))


# -- Monte Carlo drift -----------------------------------------------------

@dataclass(frozen=True)
class DriftEstimate:
    mean: float
    se: float
    samples: int


def mc_drift(state, features, kind, samples: int, rng) -> DriftEstimate:
    """Estimate the one-step drift by simulating single steps.

    ``rng`` is a seed or a numpy Generator; ``samples`` is a positive
    int.  Each sample is one :func:`evolution.draw_move` under a
    :class:`SimChooser`, then :func:`checking.run_check` on a growth
    step, so its law is the engine's own, adversarial steps playing
    ``features.adversary``.  The chooser reads its uniforms in blocks,
    so a Generator handed in ends up to ``rand.BLOCK - 1`` values past
    the last uniform used, and untouched if none was.

    Each sample adds its node to ``state`` itself, runs the check there
    without applying the marking, scores the step exactly with
    :func:`_step_delta` and pops the node again; the state is restored
    on the way out, whatever is raised.  A sample costs the size of the
    step's neighbourhood, not of the state: no sample copies the state,
    applies the marking or evaluates the whole potential, and a
    :class:`MinDistance` marking seen in an earlier sample of the call
    is not propagated again (:func:`_marking`).

    The call's set-up reads each column it needs once, and refuses a
    bad input before the first sample, as :func:`exact_drift`'s does.
    One ``bytes`` read of the labels (:func:`state._label_bytes`) serves
    both the parent pool's live mask and :func:`_step_base`'s distance
    pass; the pool adds one read of ``deg_pt`` and the per-degree
    table, and the distance pass one ``bytes`` read of the truth column
    and a loop over the PT False ids alone, which fills one list indexed
    by node id (:class:`_StepBase`), so each parent edge it follows is
    one index and one comparison.  No sample changes a
    weight, since each pops its node and applies no marking, so the
    pool is a :class:`attachment.PrefixPool` of the node weights, not
    an updatable :class:`attachment.WeightIndex`; with integer-valued
    weights its picks are the index's, bit for bit.
    Unlike :func:`exact_drift`, the call does not run
    :func:`state.verify_state` and trusts the state's derived columns
    and truth rule: that pass is O(n + edges), and on a 20,025-node
    grown state it costs more than a whole 100-sample call.

    Only the running mean is kept in floats: each delta enters it
    correctly rounded, and a delta past the float range raises
    :class:`PotentialOverflow`.
    """
    samples = _require_int("samples", samples, 1)
    chooser = SimChooser(rng)
    labels = _label_bytes(state)
    pool = PrefixPool(_node_weights(state, features.attach, labels))
    base = _step_base(state, kind, labels)

    feats = features
    n = len(state.labels)
    mean = 0.0
    m2 = 0.0
    try:
        for i in range(1, samples + 1):
            branch, parents, label = draw_move(state, feats, chooser, pool)
            if parents is None:
                delta = 0.0
            else:
                v = state.add_node(parents, label)
                if branch == "adversary":
                    marked = ()
                else:
                    marked = checking.run_check(
                        feats.mechanism, state, v, feats.check_depth,
                        feats.check_rate, feats.detection_rate,
                        chooser).marked
                change = _step_delta(state, kind, base, v, marked)
                state.pop_last_node()
                try:
                    delta = float(change)
                except OverflowError:
                    raise PotentialOverflow(
                        f"a sampled step changes the potential by more than "
                        f"the float range holds (sample {i})") from None
            d1 = delta - mean
            mean += d1 / i
            m2 += d1 * (delta - mean)
    finally:
        # a sample that raised left its node on the caller's state
        while len(state.labels) > n:
            state.pop_last_node()
    var = m2 / (samples - 1) if samples > 1 else 0.0
    se = math.sqrt(max(var, 0.0) / samples)
    return DriftEstimate(mean, se, samples)
