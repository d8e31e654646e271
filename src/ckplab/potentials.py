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
A leaf of ``exact_drift`` costs one replay: the chooser's option tables
are ints, built once per call, so a leaf's weight is two ints, and the
value and the mass are summed as one numerator per denominator.

Both oracles score a step with one function, :func:`_step_delta`,
summing ``new term - old term`` over the few nodes whose term the step
can change, never copying the state or applying the marking.  What it
reads of the state before the step (the :class:`MinDistance` distances
and :class:`TermTable`, the general potential's scope) is built once
per call by :func:`_step_base`; ``exact_drift`` scores each parent
multiset, label and marking once.  A bad input fails loudly before the
first leaf or sample: ``_step_base`` refuses a broken distance structure
and a bad anchor, and ``exact_drift`` runs :func:`state.verify_state`
(a recount of the derived columns, then the truth rule), as the engines
do, and evaluates the whole potential once on the input, as ``mc_drift``
does for a count potential; the tests hold the scorer to the whole
potential, before and after each step.

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
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import checking
from .attachment import AllPF, AllWeightsZero, _require_finite, \
    _to_fraction, parent_distribution, prefix_pool_for
from .evolution import AuditViolation, RandomPt, draw_move
from .rand import PathChooser, SimChooser
from .state import CT, CF, PF, StateError, pt_false_distances, \
    verify_state

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
        _require_finite("distance base c", self.c)
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
    anchor: int
    attach: object


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


def _false_leaves(state, simple_mode: bool) -> list[int]:
    # leaves that still carry the hidden error; a True frontier node is
    # no loss when discovered, so it never counts toward the potential
    return [v for v in state.ct_nonroot_leaves(simple_mode)
            if state.is_false[v]]


def _leaf_weight(attach, v: int, deg: int):
    """``a(0)/a(deg)``, the scoped potential's weight for leaf ``v``."""
    denom = attach.evaluate_exact(deg)
    if denom <= 0:
        raise NonpositiveWeight(
            f"leaf {v} has attachment weight {denom}; the scoped "
            f"leaf potential needs positive weights")
    return attach.evaluate_exact(0) / denom


def potential(state, kind, *, terms: TermTable | None = None):
    """Evaluate ``kind`` on ``state``, exactly: a Fraction for
    :class:`MinDistance` and the scoped leaf potential, an int for the
    two counts.

    ``terms`` is a :class:`TermTable` for ``kind`` to share across
    evaluations; without one the call builds its own.  A broken distance
    structure raises :class:`StateError`, from
    :func:`state.pt_false_distances`.
    """
    if isinstance(kind, MinDistance):
        if terms is None:
            terms = TermTable(kind)
        deg = state.deg_pt
        total = 0
        for v, d in pt_false_distances(state).items():
            total += terms[deg[v], d]
        return Fraction(total)

    if isinstance(kind, MinimalFalse):
        return len(state.minimal_false_set())

    if isinstance(kind, MinimalFalseLeavesSimple):
        return (len(state.minimal_false_set())
                + len(_false_leaves(state, simple_mode=True)))

    if isinstance(kind, MinimalFalseLeavesGeneral):
        closure = _descendant_closure(state, kind.anchor)
        total = Fraction(0)
        for v in sorted(closure):
            if state.is_minimal_false(v):
                total += 1
        for v in _false_leaves(state, simple_mode=False):
            if v in closure:
                total += _leaf_weight(kind.attach, v, state.deg_pt[v])
        return total

    raise TypeError(f"unknown potential kind {kind!r}")


def _checked_total(state, kind, terms: TermTable | None):
    """The whole potential of ``state``, through :func:`potential` and
    its checks (every distance, the anchor of the scoped potential)."""
    return potential(state, kind, terms=terms)


# -- one step's change -----------------------------------------------------

@dataclass(frozen=True)
class _StepBase:
    """What :func:`_step_delta` reads of the state before the step,
    built once per oracle call by :func:`_step_base`."""

    dist: dict | None = None          # MinDistance: pt_false_distances
    terms: TermTable | None = None    # MinDistance: the call's table
    closure: set | None = None        # MinimalFalseLeavesGeneral's scope


def _step_base(state, kind) -> _StepBase:
    if isinstance(kind, MinDistance):
        return _StepBase(dist=pt_false_distances(state),
                         terms=TermTable(kind))
    if isinstance(kind, MinimalFalseLeavesGeneral):
        return _StepBase(closure=_descendant_closure(state, kind.anchor))
    return _StepBase()


def _share(state, kind, w: int, pf_edges: int, kids: int,
           deg_pt: int, deg_ct: int):
    """Node ``w``'s term in a count potential, given its PF parent edges
    and its child, PT child and CT child edges; its label and truth are
    read from ``state``.  The caller scopes the general potential."""
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


def _step_delta(state, kind, base: _StepBase, v: int, parents, marked):
    """The change of ``kind``'s potential over one step, summed over the
    nodes whose term the step can change.

    ``state`` holds the step's new node ``v``, attached by the edge list
    ``parents``, but not the marking ``marked``; ``base`` is
    :func:`_step_base` of the state without ``v``.  The state is read,
    never changed.

    A :class:`MinDistance` term moves for ``v``, which joins the sum;
    its parents and the parents of ``marked``, whose degree moves;
    ``marked``, which leaves the sum; and the PT False nodes whose
    distance moves.  Those are found by re-applying the
    :func:`pt_false_distances` recurrence from ``v`` and from the
    children of ``marked``, in increasing id order (ids are a
    topological order), with ``marked`` treated as PF; a node whose
    distance stays put does not pass the change on.

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
    for u in parents:
        born[u] = born.get(u, 0) + 1
    lost: dict = {}           # edges the marking takes from each parent
    for w in marked:
        for u in up[w]:
            lost[u] = lost.get(u, 0) + 1
    delta = 0

    if not isinstance(kind, MinDistance):
        gained: dict = {}     # PF parent edges the marking gives each child
        lost_ct: dict = {}    # CT child edges the marking takes
        for w in marked:
            for c in down[w]:
                gained[c] = gained.get(c, 0) + 1
            if labels[w] == CT:
                for u in up[w]:
                    lost_ct[u] = lost_ct.get(u, 0) + 1
        pf = state.pf_parent_edges
        deg_ct = state.deg_ct
        new_ct = labels[v] == CT
        closure = base.closure
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

    is_false = state.is_false
    pf_parent_edges = state.pf_parent_edges
    dist = base.dist
    queued = {v}
    for w in marked:
        queued.update(down[w])
    heap = [w for w in queued
            if w not in marked and labels[w] != PF and is_false[w]]
    heapq.heapify(heap)
    moved: dict = {}          # the distances the step changes
    while heap:
        w = heapq.heappop(heap)
        if (labels[w] == CF or pf_parent_edges[w] > 0
                or (marked and not marked.isdisjoint(up[w]))):
            d = 0
        else:
            best = None
            for u in up[w]:
                du = moved[u] if u in moved else dist.get(u)
                if du is not None and (best is None or du < best):
                    best = du
            if best is None:
                raise StateError(f"node {w} is PT False, not minimal, with "
                                 f"no PT False parent after the step")
            d = best + 1
        if d == dist.get(w):
            continue
        moved[w] = d
        for c in down[w]:
            if c not in queued and c not in marked and labels[c] != PF:
                queued.add(c)
                heapq.heappush(heap, c)
    touched = set(moved)
    touched.update(born, lost, marked)
    terms = base.terms
    for w in touched:
        if labels[w] == PF or not is_false[w]:
            continue
        old = 0 if w == v else terms[deg_pt[w] - born.get(w, 0), dist[w]]
        new = 0 if w in marked else terms[
            deg_pt[w] - lost.get(w, 0), moved[w] if w in moved else dist[w]]
        delta += new - old
    return delta


# -- exact one-step drift --------------------------------------------------

@dataclass(frozen=True)
class DriftResult:
    value: object
    sign: str           # negative | zero | positive
    exact: bool         # always True; read by tests and the drift gate
    leaf_count: int


def _outcomes(decide, chooser: PathChooser):
    """Every outcome of ``decide(chooser)``, as ``(outcome, num, den)``:
    the product of the probabilities of the branches that lead to it is
    ``num / den``, two ints.  The factors are not reduced, so ``den`` is
    the product of the branches' denominators.

    ``decide`` runs once per leaf: first on the empty path, then on each
    fork a run recorded (see :class:`PathChooser`).  Each run starts the
    chooser over, so enumerations may share it and its option lists.  A
    run's weight and forks are read before its outcome is yielded, as
    the caller may replay the same chooser first.  The outcomes come
    lazily, so the caller may change what ``decide`` reads between two
    of them as long as it restores it before the next.
    """
    stack = [((), 1, 1)]
    while stack:
        chooser.replay(*stack.pop())
        result = decide(chooser)
        num, den = chooser.num, chooser.den
        stack.extend(chooser.forks)
        yield result, num, den


def exact_drift(state, features, kind, *,
                leaf_cap: int = DEFAULT_LEAF_CAP) -> DriftResult:
    """Expected one-step potential change, by complete enumeration, as a
    Fraction.

    Two passes of one replay enumerator, :func:`_outcomes`.  The first
    enumerates :func:`evolution.draw_move`: the adversary coin, the
    move of ``features.adversary`` (a randomized move is enumerated like
    any other decision), the parent count, every ordered parent tuple
    and the label coin.  Each move's node is added once, to the call's
    one copy of ``state``, and the second pass enumerates every decision
    :func:`checking.run_check` makes on that child.  The move's leaves
    are grouped by marking, and :func:`_step_delta` scores each group on
    that copy, with the marking left unapplied.  Scores are kept for the
    call, keyed by the sorted parents, the label and the marking, so
    moves that only order their parents differently share one.  That is
    exact: the copy with the move's node and the score read the parent
    edges only as a multiset (counts, minima, membership).

    Probabilities stay integer weights ``num / den`` (see
    :func:`_outcomes`).  The check leaves of one marking are summed per
    check denominator, and the move's weight multiplies each such sum
    once.  The value and the mass are kept as one numerator per
    denominator and turned into one Fraction per denominator at the end.
    The mass must come to one, or the call raises instead of returning
    a number.  ``state`` is not changed.  ``leaf_cap`` is a positive
    int.  An input with more moves than ``leaf_cap`` is refused before
    any is made, and so is a state that fails
    :func:`state.verify_state`, with its ``StateError``: the score
    reads the derived degree columns, and the check enumeration skips
    the ball walks from hidden-True nodes, which is exact only under the
    truth rule.

    Every rate, weight and base enters under the rule of
    :func:`attachment._to_fraction`: a float at its binary value, so
    the sign of a float input's drift is decided, not rounded.  A law
    whose binary masses miss one is refused.
    """
    if (isinstance(leaf_cap, bool)
            or not isinstance(leaf_cap, numbers.Integral) or leaf_cap < 1):
        raise ValueError(
            f"leaf_cap must be a positive integer, got {leaf_cap!r}")
    if sum(p for _, p in features.parent_count.items_exact()) != 1:
        raise ValueError(
            "parent-count masses do not sum to one exactly; "
            "use Fraction probabilities for exact drift")
    verify_state(state)
    try:
        pool = parent_distribution(state, features.attach)
    except (AllPF, AllWeightsZero):
        pool = {}
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

    base = _step_base(state, kind)
    # the call's one evaluation of the whole potential: it refuses a bad
    # input before any leaf is scored
    _checked_total(state, kind, base.terms)
    value: dict = {}    # denominator -> numerator of the value's terms
    mass: dict = {}     # denominator -> numerator of the mass's terms
    scores: dict = {}   # (sorted parents, label, marking) -> step delta
    unmarked = frozenset()      # the one key of every empty marking
    leaf_count = 0
    work = state.copy()
    # both passes, every move's check included, share one option cache
    chooser = PathChooser()

    move = partial(draw_move, work, features, pool=pool)
    for (branch, parents, label), num, den in _outcomes(move, chooser):
        if parents is None:         # stopped, or the adversary passed
            leaf_count += 1
            mass[den] = mass.get(den, 0) + num
            continue
        v = work.add_node(parents, label)
        if branch == "adversary":
            leaf_count += 1
            leaves = {unmarked: {1: 1}}
        else:
            leaves = {}             # marking -> {check denominator: numerator}
            check = partial(checking.run_check, features.mechanism, work, v,
                            parents, features.check_depth,
                            features.check_rate, features.detection_rate)
            for outcome, cnum, cden in _outcomes(check, chooser):
                leaf_count += 1
                if leaf_count > leaf_cap:
                    raise BranchBudgetExceeded(
                        f"outcome tree exceeded {leaf_cap} leaves")
                marked = outcome.marked
                weights = leaves.setdefault(
                    frozenset(marked) if marked else unmarked, {})
                weights[cden] = weights.get(cden, 0) + cnum
        edges = tuple(sorted(parents))
        for marked, weights in leaves.items():
            key = (edges, label, marked)
            if key not in scores:
                scores[key] = _step_delta(work, kind, base, v, parents, marked)
            delta = scores[key]
            for cden, cnum in weights.items():
                weight = num * cnum
                denom = den * cden
                value[denom] = value.get(denom, 0) + weight * delta
                mass[denom] = mass.get(denom, 0) + weight
        work.pop_last_node()
    # the check passes stop at the cap; a move without a check adds one
    # leaf, and so may pass it after the last check
    if leaf_count > leaf_cap:
        raise BranchBudgetExceeded(f"outcome tree exceeded {leaf_cap} leaves")

    total_mass = _total(mass)
    if total_mass != 1:
        raise AuditViolation(
            f"outcome probabilities sum to {total_mass}, not 1")
    value = _total(value)
    sign = "negative" if value < 0 else "positive" if value > 0 else "zero"
    return DriftResult(value, sign, True, leaf_count)


def _total(terms: dict) -> Fraction:
    """The sum of ``{denominator: numerator}``, one Fraction per
    denominator."""
    return sum((Fraction(num, den) for den, num in terms.items()),
               Fraction(0))


# -- Monte Carlo drift -----------------------------------------------------

@dataclass(frozen=True)
class DriftEstimate:
    mean: float
    se: float
    samples: int


def _phi_value(state, kind):
    """The whole potential of ``state``, through :func:`potential` and
    its checks: :func:`mc_drift`'s one evaluation of a count potential."""
    return potential(state, kind)


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
    applies the marking or evaluates the whole potential.

    The call's set-up passes over the whole state once each: the parent
    pool, :func:`_step_base` and, for a count potential, one
    :func:`potential`.  No sample changes a weight, since each pops its
    node and applies no marking, so the pool is a
    :class:`attachment.PrefixPool` of the node weights, not an updatable
    :class:`attachment.WeightIndex`; with integer-valued weights its
    picks are the index's, bit for bit.  The other two passes refuse a
    bad input before the first sample: :func:`pt_false_distances` a
    broken :class:`MinDistance` distance structure,
    :func:`_descendant_closure` a bad anchor and :func:`potential` a
    count potential it cannot evaluate.  A :class:`MinDistance` sum
    would refuse nothing more, so it is not taken.  Unlike
    :func:`exact_drift`, the call does not run :func:`state.verify_state`
    and trusts the state's derived columns and truth rule: that pass is
    O(n + edges), and on a 20,025-node grown state it costs more than a
    whole 100-sample call.

    Only the running mean is kept in floats: each delta enters it
    correctly rounded, and a delta past the float range raises
    :class:`PotentialOverflow`.
    """
    if (isinstance(samples, bool) or not isinstance(samples, numbers.Integral)
            or samples < 1):
        raise ValueError(
            f"samples must be a positive integer, got {samples!r}")
    chooser = SimChooser(rng)
    pool = prefix_pool_for(state, features.attach)
    base = _step_base(state, kind)
    if not isinstance(kind, MinDistance):
        _phi_value(state, kind)

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
                        feats.mechanism, state, v, parents,
                        feats.check_depth, feats.check_rate,
                        feats.detection_rate, chooser).marked
                change = _step_delta(state, kind, base, v, parents, marked)
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
