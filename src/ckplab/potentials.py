"""Potential functions over process states, and their one-step drift.

Four potential families measure how much undiscovered error a state
carries:

* :class:`MinDistance`: sum of ``a(deg(v)) * c**dist(v)`` over PT
  hidden-False nodes, where ``dist`` is the shortest hop count to a
  minimal false node.  The workhorse for elimination arguments; it also
  decomposes over BFS components, one bucket per anchoring minimal false
  node.
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
:class:`PathChooser`, ``mc_drift`` under a live :class:`SimChooser`, so
the two oracles and the engine share one description of the step.

Both oracles score a step with one function, :func:`_step_delta`,
summing ``new term - old term`` over the few nodes whose term the step
can change, never copying the state or applying the marking.  What it
reads of the state before the step (the :class:`MinDistance` distances
and :class:`TermTable`, the general potential's scope) is built once
per call by :func:`_step_base`.  The whole potential is evaluated once
per call, on the input, so a bad anchor, a broken distance structure or
a float overflow still fails loudly; the scorer itself is held to the
whole potential, before and after each step, by the tests.

A :class:`TermTable` maps ``(deg, dist)`` to ``a(deg) * c**dist`` and
is filled on first use; in rational mode integral terms are plain ints.
With integer-valued float terms (integral attachment weights and base,
sums below 2**53) every float sum is exact, so ``mc_drift`` returns the
estimate a full recompute per sample would, bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import checking
from .attachment import AllPF, AllWeightsZero, _require_finite, \
    _to_fraction, parent_distribution, weight_index_for
from .evolution import AuditViolation, RandomPt, draw_move
from .rand import NeedBranch, PathChooser, SimChooser, make_generator
from .state import CT, CF, PF, StateError, pt_false_distances, anchor_bfs

DEFAULT_PT_CAP = 12
DEFAULT_LEAF_CAP = 10_000_000


class BranchBudgetExceeded(RuntimeError):
    """The outcome tree outgrew the configured enumeration caps."""


class NonpositiveWeight(ValueError):
    """A leaf weight denominator came out zero or negative."""


class PotentialOverflow(ArithmeticError):
    """A float :class:`MinDistance` term ``c**dist`` left the float range."""


def _overflow(c, depth: int) -> PotentialOverflow:
    return PotentialOverflow(
        f"a PT False node at distance {depth} from its minimal false node "
        f"overflows the float MinDistance term with base c={c}")


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


@dataclass(frozen=True)
class PotentialReport:
    total: object
    per_component: dict | None
    pt_false_count: int


class TermTable(dict):
    """``(deg_pt, dist) -> a(deg_pt) * c**dist`` for one
    :class:`MinDistance`, computed on first lookup.

    Exact tables hold ints where the term is integral and Fractions
    otherwise; float tables hold the float the same expression gives.
    A table lives as long as the call that built it.
    """

    __slots__ = ("attach", "c", "exact")

    def __init__(self, kind: MinDistance, exact: bool):
        super().__init__()
        self.attach = kind.attach
        self.c = kind.c
        self.exact = exact

    def __missing__(self, key):
        deg, dist = key
        if self.exact:
            term = (self.attach.evaluate_exact(deg)
                    * _to_fraction(self.c) ** dist)
            if term.denominator == 1:
                term = term.numerator
        else:
            try:
                term = self.attach.evaluate(deg) * float(self.c) ** dist
            except OverflowError:
                term = math.inf
            if term == math.inf:
                raise _overflow(self.c, dist)
        self[key] = term
        return term


def _pt_false_ids(state) -> list[int]:
    return [v for v in range(len(state.labels))
            if state.labels[v] != PF and state.is_false[v]]


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


def _leaf_weight(attach, v: int, deg: int, exact: bool):
    """``a(0)/a(deg)``, the scoped potential's weight for leaf ``v``."""
    a0 = attach.evaluate_exact(0) if exact else attach.evaluate(0)
    denom = attach.evaluate_exact(deg) if exact else attach.evaluate(deg)
    if denom <= 0:
        raise NonpositiveWeight(
            f"leaf {v} has attachment weight {denom}; the scoped "
            f"leaf potential needs positive weights")
    return a0 / denom


def potential(state, kind, exact: bool = False, *,
              terms: TermTable | None = None) -> PotentialReport:
    """Evaluate ``kind`` on ``state``.

    For :class:`MinDistance` the report carries the per-anchor
    decomposition, computed through an independent distance routine
    (canonical upward BFS per node, against the downward relaxation pass
    used for the total); the two are required to agree.  ``terms`` is a
    :class:`TermTable` for ``kind`` and ``exact`` to share across
    evaluations; without one the call builds its own.
    """
    false_ids = _pt_false_ids(state)
    if isinstance(kind, MinDistance):
        if terms is None:
            terms = TermTable(kind, exact)
        deg = state.deg_pt
        zero = 0 if exact else 0.0
        dist = pt_false_distances(state)
        total = zero
        for v in false_ids:
            total += terms[deg[v], dist[v]]
        per_component: dict = {}
        for v in false_ids:
            anchor, depth, _ = anchor_bfs(state, v)
            if anchor is None:
                raise AuditViolation(
                    f"PT False node {v} reaches no minimal false node")
            per_component[anchor] = (per_component.get(anchor, zero)
                                     + terms[deg[v], depth])
        again = sum(per_component.values(), zero)
        if exact:
            if again != total:
                raise AuditViolation(
                    f"component decomposition sums to {again}, total {total}")
            total = Fraction(total)
            per_component = {a: Fraction(x) for a, x in per_component.items()}
        elif not _close(again, total):
            raise AuditViolation(
                f"component decomposition sums to {again!r}, total {total!r}")
        return PotentialReport(total, per_component, len(false_ids))

    if isinstance(kind, MinimalFalse):
        return PotentialReport(len(state.minimal_false_set()), None,
                               len(false_ids))

    if isinstance(kind, MinimalFalseLeavesSimple):
        total = (len(state.minimal_false_set())
                 + len(_false_leaves(state, simple_mode=True)))
        return PotentialReport(total, None, len(false_ids))

    if isinstance(kind, MinimalFalseLeavesGeneral):
        closure = _descendant_closure(state, kind.anchor)
        total = Fraction(0) if exact else 0.0
        for v in sorted(closure):
            if state.is_minimal_false(v):
                total += 1
        for v in _false_leaves(state, simple_mode=False):
            if v in closure:
                total += _leaf_weight(kind.attach, v, state.deg_pt[v], exact)
        return PotentialReport(total, None, len(false_ids))

    raise TypeError(f"unknown potential kind {kind!r}")


def _close(x, y, rel: float = 1e-9) -> bool:
    return abs(float(x) - float(y)) <= rel * max(1.0, abs(float(x)),
                                                 abs(float(y)))


def _checked_total(state, kind, exact: bool, terms: TermTable | None):
    """The whole potential of ``state``, through :func:`potential` and
    its checks (the anchor, every distance, the decomposition)."""
    return potential(state, kind, exact=exact, terms=terms).total


# -- one step's change -----------------------------------------------------

@dataclass(frozen=True)
class _StepBase:
    """What :func:`_step_delta` reads of the state before the step,
    built once per oracle call by :func:`_step_base`."""

    exact: bool
    dist: dict | None = None          # MinDistance: pt_false_distances
    terms: TermTable | None = None    # MinDistance: the call's table
    closure: set | None = None        # MinimalFalseLeavesGeneral's scope

    @property
    def zero(self):
        return 0 if self.exact else 0.0


def _step_base(state, kind, exact: bool) -> _StepBase:
    if isinstance(kind, MinDistance):
        return _StepBase(exact, dist=pt_false_distances(state),
                         terms=TermTable(kind, exact))
    if isinstance(kind, MinimalFalseLeavesGeneral):
        return _StepBase(exact,
                         closure=_descendant_closure(state, kind.anchor))
    return _StepBase(exact)


def _share(state, kind, exact: bool, w: int, pf_edges: int, kids: int,
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
    return _leaf_weight(kind.attach, w, deg_pt, exact) if deg_ct == 0 else 0


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
    zero = base.zero
    delta = zero

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
                delta -= _share(state, kind, base.exact, w, pf[w],
                                len(down[w]) - b, deg_pt[w] - b,
                                deg_ct[w] - (b if new_ct else 0))
            if w == v:
                inside = closure is None or any(u in closure for u in born)
            if w not in marked and inside:
                delta += _share(state, kind, base.exact, w,
                                pf[w] + gained.get(w, 0), len(down[w]),
                                deg_pt[w] - lost.get(w, 0),
                                deg_ct[w] - lost_ct.get(w, 0))
        return delta

    is_false = state.is_false
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
        if (labels[w] == CF or state.pf_parent_edges[w] > 0
                or (marked and any(u in marked for u in up[w]))):
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
        old = zero if w == v else terms[deg_pt[w] - born.get(w, 0), dist[w]]
        new = zero if w in marked else terms[
            deg_pt[w] - lost.get(w, 0), moved[w] if w in moved else dist[w]]
        delta += new - old
    return delta


# -- exact one-step drift --------------------------------------------------

@dataclass(frozen=True)
class DriftResult:
    value: object
    sign: str           # negative | zero | positive
    exact: bool         # always True: the value is a Fraction
    leaf_count: int


def _outcomes(decide, chooser: PathChooser):
    """Every outcome of ``decide(chooser)``, as ``(outcome, num, den)``:
    the product of the probabilities of the branches that lead to it is
    ``num / den``, two ints.  The factors are not reduced, so ``den`` is
    the product of the branches' denominators.

    ``decide`` is replayed under ``chooser``, from the empty path; at
    each open decision the path forks once per option.  Each replay
    starts the chooser over, so enumerations may share it, and with it
    the option list it built for each decision object.  The outcomes
    come lazily, so the caller may change what ``decide`` reads between
    two of them as long as it restores it before the next.
    """
    stack = [((), 1, 1)]
    while stack:
        path, num, den = stack.pop()
        chooser.replay(path)
        try:
            result = decide(chooser)
        except NeedBranch as nb:
            for option, p in nb.options:
                stack.append((path + (option,), num * p.numerator,
                              den * p.denominator))
            continue
        yield result, num, den


def exact_drift(state, features, kind, *,
                pt_cap: int = DEFAULT_PT_CAP,
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
    are grouped by marking, and :func:`_step_delta` scores each distinct
    marking once on that copy, with the marking left unapplied.

    Probabilities stay integer weights ``num / den`` (see
    :func:`_outcomes`).  The check leaves of one marking are summed per
    check denominator, and the move's weight multiplies each such sum
    once.  The value and the mass are kept as lists of numerators per
    denominator and turned into one Fraction per denominator at the end.
    The mass must come to one, or the call raises instead of returning
    a number.  ``state`` is not changed.  An input with more moves than
    ``leaf_cap`` is refused before any is made.

    Every rate, weight and base enters under the rule of
    :func:`attachment._to_fraction`: a float at its binary value, so
    the sign of a float input's drift is decided, not rounded.  A law
    whose binary masses miss one is refused.
    """
    pt_nodes = state.pt_ids()
    if len(pt_nodes) > pt_cap:
        raise BranchBudgetExceeded(
            f"{len(pt_nodes)} PT nodes exceed the enumeration cap {pt_cap}")
    if sum(p for _, p in features.parent_count.items_exact()) != 1:
        raise ValueError(
            "parent-count masses do not sum to one exactly; "
            "use Fraction probabilities for exact drift")
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
        moves += len(pt_nodes) ** r * 2
    if moves > leaf_cap:
        raise BranchBudgetExceeded(
            f"at least {moves} moves exceed the leaf cap {leaf_cap}")

    base = _step_base(state, kind, exact=True)
    # the call's one evaluation of the whole potential: it refuses a bad
    # input before any leaf is scored
    _checked_total(state, kind, True, base.terms)
    value: dict = {}    # denominator -> numerators of the value's terms
    mass: dict = {}     # denominator -> numerators of the mass's terms
    leaf_count = 0
    work = state.copy()
    birth = _next_birth(state)
    # both passes, every move's check included, share one option cache
    chooser = PathChooser()

    def tally() -> None:
        nonlocal leaf_count
        leaf_count += 1
        if leaf_count > leaf_cap:
            raise BranchBudgetExceeded(
                f"outcome tree exceeded {leaf_cap} leaves")

    def move(chooser):
        return draw_move(work, features, chooser, pool)

    for (branch, parents, label), num, den in _outcomes(move, chooser):
        if parents is None:         # stopped, or the adversary passed
            tally()
            mass.setdefault(den, []).append(num)
            continue
        v = work.add_node(parents, label, birth=birth,
                          adversarial=branch == "adversary")
        leaves: dict = {}           # marking -> {check denominator: numerator}
        if branch == "adversary":
            tally()
            leaves[frozenset()] = {1: 1}
        else:
            def check(chooser):
                return checking.run_check(
                    features.mechanism, work, v, parents,
                    features.check_depth, features.check_rate,
                    features.detection_rate, chooser)

            for outcome, cnum, cden in _outcomes(check, chooser):
                tally()
                weights = leaves.setdefault(frozenset(outcome.marked), {})
                weights[cden] = weights.get(cden, 0) + cnum
        for marked, weights in leaves.items():
            delta = _step_delta(work, kind, base, v, parents, marked)
            for cden, cnum in weights.items():
                weight = num * cnum
                value.setdefault(den * cden, []).append(weight * delta)
                mass.setdefault(den * cden, []).append(weight)
        work.pop_last_node()

    total_mass = _total(mass)
    if total_mass != 1:
        raise AuditViolation(
            f"outcome probabilities sum to {total_mass}, not 1")
    value = _total(value)
    sign = "negative" if value < 0 else "positive" if value > 0 else "zero"
    return DriftResult(value, sign, True, leaf_count)


def _total(terms: dict) -> Fraction:
    """The sum of ``{denominator: [numerator, ...]}``, one Fraction per
    denominator."""
    return sum((Fraction(sum(nums), den) for den, nums in terms.items()),
               Fraction(0))


def _next_birth(state) -> int:
    return max(state.birth, default=-1) + 1


# -- Monte Carlo drift -----------------------------------------------------

@dataclass(frozen=True)
class DriftEstimate:
    mean: float
    se: float
    samples: int


def _phi_value(state, kind, base: _StepBase) -> float:
    """The float potential.  A :class:`MinDistance` sum reads the
    distances and the float :class:`TermTable` of ``base``; it adds
    ``a(deg) * c**dist`` in id order, and an overflow anywhere names the
    deepest node."""
    if isinstance(kind, MinDistance):
        dist = base.dist
        deg = state.deg_pt
        try:
            total = sum(base.terms[deg[v], d] for v, d in dist.items())
        except PotentialOverflow:
            total = math.inf
        if total == math.inf:
            raise _overflow(kind.c, max(dist.values()))
        return total
    return float(potential(state, kind, exact=False).total)


def mc_drift(state, features, kind, samples: int, rng) -> DriftEstimate:
    """Estimate the one-step drift by simulating single steps.

    ``rng`` is a seed or a numpy Generator.  Each sample is one
    :func:`evolution.draw_move` under a :class:`SimChooser`, then
    :func:`checking.run_check` on a growth step, so its law is the
    engine's own, adversarial steps playing ``features.adversary``.

    Each sample adds its node to ``state`` itself, runs the check there
    without applying the marking, scores the step with
    :func:`_step_delta` and pops the node again; the state is restored
    on the way out, whatever is raised.  A sample costs the size of the
    step's neighbourhood, not of the state: no sample copies the state,
    applies the marking or evaluates the whole potential.  That is done
    once per call, on the input, and only to refuse a bad one.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    gen = rng if isinstance(rng, np.random.Generator) else make_generator(rng)
    chooser = SimChooser(gen)
    windex = weight_index_for(state, features.attach)
    base = _step_base(state, kind, exact=False)
    # the call's one evaluation of the whole potential: it refuses a bad
    # input (an anchor, a float overflow) before any sample is scored
    _phi_value(state, kind, base)

    feats = features
    birth = _next_birth(state)
    n = len(state.labels)
    mean = 0.0
    m2 = 0.0
    try:
        for i in range(1, samples + 1):
            branch, parents, label = draw_move(state, feats, chooser, windex)
            if parents is None:
                delta = 0.0
            else:
                v = state.add_node(parents, label, birth=birth,
                                   adversarial=branch == "adversary")
                if branch == "adversary":
                    marked = ()
                else:
                    marked = checking.run_check(
                        feats.mechanism, state, v, parents,
                        feats.check_depth, feats.check_rate,
                        feats.detection_rate, chooser).marked
                delta = _step_delta(state, kind, base, v, parents, marked)
                state.pop_last_node()
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
