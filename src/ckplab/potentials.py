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
the expected potential change, exactly rational when the inputs allow
it.  ``mc_drift`` estimates the same quantity by sampling.  Both make
the step's decisions through :func:`evolution.draw_move`, as the
engine's step does: ``exact_drift`` under a replaying
:class:`PathChooser`, ``mc_drift`` under a live :class:`SimChooser`, so
the two oracles and the engine share one description of the step.
Every enumeration leaf recomputes the potential through two independent
code paths and any disagreement aborts the computation, so a reported
drift is its own cross-check.

The :class:`MinDistance` routes compute their own distances and their
own sums, but the terms ``a(deg) * c**dist`` they add up depend on the
pair ``(deg, dist)`` alone.  ``exact_drift`` therefore builds one
:class:`TermTable` per call, filled on first use, and hands it to every
evaluation; in rational mode integral terms are plain ints and each
route converts its sum to a Fraction once.

``mc_drift`` scores a sampled :class:`MinDistance` step locally.  One
step changes the term of few nodes: the new node joins the sum, its
parents and the parents of the marked set change degree, the marked
set leaves the sum, and marking moves the distance of some PT False
descendants of the marked set.  The sampler computes the distances and
a float :class:`TermTable` once per call and sums ``new term - old
term`` over those nodes alone, never copying the state or applying the
marking.  With integer-valued terms (integral attachment weights and
base, sums below 2**53) every sum is exact, so the estimate is the one a
full recompute per sample gives, bit for bit.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import checking
from .attachment import AllPF, AllWeightsZero, parent_distribution, \
    weight_index_for
from .evolution import AuditViolation, RandomPt, draw_move
from .rand import NeedBranch, PathChooser, SimChooser, make_generator
from .state import CT, CF, PF, StateError, pt_false_distances, \
    pt_false_distances_by_spread, anchor_bfs

SIGN_BAND = 1e-12

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
            term = self.attach.evaluate_exact(deg) * Fraction(self.c) ** dist
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
        anchor = kind.anchor
        if not 0 <= anchor < len(state.labels):
            raise ValueError(f"anchor id {anchor} out of range")
        if state.labels[anchor] == CT or not state.is_false[anchor]:
            raise ValueError(
                f"anchor {anchor} does not carry an originating error")
        closure = _descendant_closure(state, anchor)
        attach = kind.attach
        a0 = attach.evaluate_exact(0) if exact else attach.evaluate(0)
        total = Fraction(0) if exact else 0.0
        for v in sorted(closure):
            if state.is_minimal_false(v):
                total += 1
        for v in _false_leaves(state, simple_mode=False):
            if v not in closure:
                continue
            denom = (attach.evaluate_exact(state.deg_pt[v]) if exact
                     else attach.evaluate(state.deg_pt[v]))
            if denom <= 0:
                raise NonpositiveWeight(
                    f"leaf {v} has attachment weight {denom}; the scoped "
                    f"leaf potential needs positive weights")
            total += a0 / denom
        return PotentialReport(total, None, len(false_ids))

    raise TypeError(f"unknown potential kind {kind!r}")


def _close(x, y, rel: float = 1e-9) -> bool:
    return abs(float(x) - float(y)) <= rel * max(1.0, abs(float(x)),
                                                 abs(float(y)))


def _independent_total(state, kind, exact: bool, terms: TermTable | None):
    """Second opinion on the potential value, sharing as little code as
    possible with :func:`potential`: only the :class:`TermTable`, whose
    terms depend on nothing but the degree and distance looked up."""
    if isinstance(kind, MinDistance):
        dist = pt_false_distances_by_spread(state)
        deg = state.deg_pt
        total = 0 if exact else 0.0
        for v, d in sorted(dist.items()):
            total += terms[deg[v], d]
        return Fraction(total) if exact else total
    n = len(state.labels)
    minimal = 0
    for v in range(n):
        lab = state.labels[v]
        if lab == CF:
            minimal += 1
        elif lab == CT and any(state.labels[u] == PF
                               for u in state.parents[v]):
            minimal += 1
    if isinstance(kind, MinimalFalse):
        return minimal

    def plain_leaf(v: int, simple_mode: bool) -> bool:
        if state.labels[v] != CT or not state.is_false[v]:
            return False
        if any(state.labels[u] == PF for u in state.parents[v]):
            return False
        if simple_mode:
            return not state.children[v]
        return all(state.labels[c] != CT for c in state.children[v])

    if isinstance(kind, MinimalFalseLeavesSimple):
        return minimal + sum(1 for v in range(n) if plain_leaf(v, True))

    if isinstance(kind, MinimalFalseLeavesGeneral):
        inside = set()
        queue = [kind.anchor]
        while queue:
            u = queue.pop(0)
            if u in inside:
                continue
            inside.add(u)
            queue.extend(state.children[u])
        attach = kind.attach
        a0 = attach.evaluate_exact(0) if exact else attach.evaluate(0)
        total = Fraction(0) if exact else 0.0
        for v in range(n):
            if v not in inside:
                continue
            if state.is_minimal_false(v):
                total += 1
            elif plain_leaf(v, False):
                denom = (attach.evaluate_exact(state.deg_pt[v]) if exact
                         else attach.evaluate(state.deg_pt[v]))
                if denom <= 0:
                    raise NonpositiveWeight(
                        f"leaf {v} has attachment weight {denom}")
                total += a0 / denom
        return total

    raise TypeError(f"unknown potential kind {kind!r}")


def _checked_total(state, kind, exact: bool, terms: TermTable | None):
    report = potential(state, kind, exact=exact, terms=terms)
    alt = _independent_total(state, kind, exact, terms)
    if exact:
        if report.total != alt:
            raise AuditViolation(
                f"potential routes disagree: {report.total} vs {alt}")
    elif not _close(report.total, alt):
        raise AuditViolation(
            f"potential routes disagree: {report.total!r} vs {alt!r}")
    return report.total


# -- exact one-step drift --------------------------------------------------

@dataclass(frozen=True)
class DriftResult:
    value: object
    sign: str           # negative | zero | positive | indeterminate
    exact: bool
    leaf_count: int


class _Sum:
    """Fraction accumulator, or Kahan-compensated float accumulator."""

    __slots__ = ("exact", "total", "carry")

    def __init__(self, exact: bool):
        self.exact = exact
        self.total = Fraction(0) if exact else 0.0
        self.carry = 0.0

    def add(self, x) -> None:
        if self.exact:
            self.total += x
            return
        y = float(x) - self.carry
        t = self.total + y
        self.carry = (t - self.total) - y
        self.total = t


def _rational(x) -> bool:
    if isinstance(x, bool):
        return False
    if isinstance(x, (int, Fraction)):
        return True
    # integral floats (the 0.0 / 1.0 defaults) convert without surprise;
    # any other float keeps the computation in float mode unless forced
    return isinstance(x, float) and x == int(x)


def _attachment_rational(attach) -> bool:
    name = type(attach).__name__
    if name == "Affine":
        return _rational(attach.base) and _rational(attach.slope)
    if name == "PowerShifted":
        return _rational(attach.base) and isinstance(attach.exponent, int)
    if name == "TableAttachment":
        return (all(_rational(v) for v in attach.values)
                and _rational(attach.tail_slope))
    return False


def _auto_exact(features) -> bool:
    scalars = (features.check_rate, features.error_rate,
               features.detection_rate, features.adversary_rate)
    if not all(_rational(s) for s in scalars):
        return False
    if not all(_rational(p) for p in features.parent_count.probs):
        return False
    return _attachment_rational(features.attach)


class _Fresh:
    """Hands every move to a fresh copy of ``adversary``, ``RandomPt``
    when it is None, as in the engine.  Each sample, and each replay,
    plays the same single step, so a stateful mover (a
    :class:`Scripted` cursor) must start over every time, and the
    caller's adversary is never advanced."""

    __slots__ = ("adversary",)

    def __init__(self, adversary):
        self.adversary = RandomPt() if adversary is None else adversary

    def move(self, state, features, chooser):
        return copy.deepcopy(self.adversary).move(state, features, chooser)


def _outcomes(decide, exact: bool):
    """Every outcome of ``decide(chooser)``, with the product of the
    probabilities of the branches that lead to it.

    ``decide`` is replayed under a :class:`PathChooser` from the empty
    path; at each open decision the path forks once per option.  The
    outcomes come lazily, so the caller may change what ``decide`` reads
    between two of them as long as it restores it before the next.
    """
    stack = [((), Fraction(1) if exact else 1.0)]
    while stack:
        path, prob = stack.pop()
        try:
            result = decide(PathChooser(path, exact))
        except NeedBranch as nb:
            for option, p in nb.options:
                stack.append((path + (option,), prob * p))
            continue
        yield result, prob


def exact_drift(state, features, kind, adversary=None, *,
                pt_cap: int = DEFAULT_PT_CAP,
                leaf_cap: int = DEFAULT_LEAF_CAP,
                exact: bool | None = None) -> DriftResult:
    """Expected one-step potential change, by complete enumeration.

    Two passes of one replay enumerator, :func:`_outcomes`.  The first
    enumerates :func:`evolution.draw_move`: the adversary coin, the
    adversary's move (``RandomPt`` when q > 0 and none is given, as in
    the engine; a randomized move is enumerated like any other
    decision), the parent count, every ordered parent tuple and the
    label coin.  Each move's node is added once, to a copy of
    ``state``, and the second pass enumerates every decision
    :func:`checking.run_check` makes on that child.  The leaf
    probabilities must sum to one and each leaf's potential is
    recomputed two ways; either failing raises instead of returning a
    number.  Neither ``state`` nor ``adversary`` is changed.  An input
    with more moves than ``leaf_cap`` is refused before any is made.

    ``exact=None`` switches to rational arithmetic automatically when
    every feature parameter is an int or Fraction.
    """
    pt_nodes = state.pt_ids()
    if len(pt_nodes) > pt_cap:
        raise BranchBudgetExceeded(
            f"{len(pt_nodes)} PT nodes exceed the enumeration cap {pt_cap}")
    exact_mode = _auto_exact(features) if exact is None else bool(exact)
    if exact_mode and sum(p for _, p in
                          features.parent_count.items_exact()) != 1:
        raise ValueError(
            "parent-count masses do not sum to one exactly; "
            "use Fraction probabilities for exact drift")
    adversary = _Fresh(adversary)
    try:
        pool = parent_distribution(state, features.attach, exact=exact_mode)
    except (AllPF, AllWeightsZero):
        pool = {}
    # every move ends in a leaf, so count them first: each ordered parent
    # tuple, both label coins, and each RandomPt move (r picks, a label)
    moves = sum(len(pool) ** m for m in features.parent_count.support)
    if features.error_rate > 0:
        moves *= 2
    r = features.adversary_budget
    if (features.adversary_rate > 0 and r > 0
            and type(adversary.adversary) is RandomPt):
        moves += len(pt_nodes) ** r * 2
    if moves > leaf_cap:
        raise BranchBudgetExceeded(
            f"at least {moves} moves exceed the leaf cap {leaf_cap}")

    terms = (TermTable(kind, exact_mode) if isinstance(kind, MinDistance)
             else None)
    phi_before = _checked_total(state, kind, exact_mode, terms)
    acc = _Sum(exact_mode)
    mass = _Sum(exact_mode)
    leaf_count = 0

    def leaf(prob, after=None) -> None:
        nonlocal leaf_count
        leaf_count += 1
        if leaf_count > leaf_cap:
            raise BranchBudgetExceeded(
                f"outcome tree exceeded {leaf_cap} leaves")
        mass.add(prob)
        if after is not None:
            acc.add(prob * (_checked_total(after, kind, exact_mode, terms)
                            - phi_before))

    work = state.copy()
    birth = _next_birth(state)

    def move(chooser):
        return draw_move(work, features, chooser, pool, adversary)

    for (branch, parents, label), p_move in _outcomes(move, exact_mode):
        if parents is None:
            leaf(p_move)
            continue
        v = work.add_node(parents, label, birth=birth,
                          adversarial=branch == "adversary")
        if branch == "adversary":
            leaf(p_move, work)
        else:
            def check(chooser):
                return checking.run_check(
                    features.mechanism, work, v, parents,
                    features.check_depth, features.check_rate,
                    features.detection_rate, chooser)

            for outcome, p_check in _outcomes(check, exact_mode):
                if outcome.marked:
                    after = work.copy()
                    after.mark_pf(outcome.marked)
                else:
                    after = work
                leaf(p_move * p_check, after)
        work.pop_last_node()

    total_mass = mass.total
    if exact_mode:
        if total_mass != 1:
            raise AuditViolation(
                f"outcome probabilities sum to {total_mass}, not 1")
    elif not _close(total_mass, 1.0):
        raise AuditViolation(
            f"outcome probabilities sum to {total_mass!r}, not 1")

    value = acc.total
    if exact_mode:
        if value < 0:
            sign = "negative"
        elif value > 0:
            sign = "positive"
        else:
            sign = "zero"
    else:
        if value > SIGN_BAND:
            sign = "positive"
        elif value < -SIGN_BAND:
            sign = "negative"
        else:
            sign = "indeterminate"
    return DriftResult(value, sign, exact_mode, leaf_count)


def _next_birth(state) -> int:
    return max(state.birth, default=-1) + 1


# -- Monte Carlo drift -----------------------------------------------------

@dataclass(frozen=True)
class DriftEstimate:
    mean: float
    se: float
    samples: int


def _phi_value(state, kind, dist=None, terms=None) -> float:
    """The float potential.  A :class:`MinDistance` sum reuses ``dist``,
    the state's :func:`pt_false_distances`, and ``terms``, a float
    :class:`TermTable` for ``kind``, when the caller has them; it adds
    ``a(deg) * c**dist`` in id order, and an overflow anywhere names the
    deepest node."""
    if isinstance(kind, MinDistance):
        if dist is None:
            dist = pt_false_distances(state)
        if terms is None:
            terms = TermTable(kind, exact=False)
        deg = state.deg_pt
        try:
            total = sum(terms[deg[v], d] for v, d in dist.items())
        except PotentialOverflow:
            total = math.inf
        if total == math.inf:
            raise _overflow(kind.c, max(dist.values()))
        return total
    return float(potential(state, kind, exact=False).total)


def mc_drift(state, features, kind, samples: int, rng,
             adversary=None) -> DriftEstimate:
    """Estimate the one-step drift by simulating single steps.

    ``rng`` is a seed or a numpy Generator.  Each sample is one
    :func:`evolution.draw_move` under a :class:`SimChooser`, then
    :func:`checking.run_check` on a growth step, so its law is the
    engine's own.  Without an ``adversary`` the adversarial steps play
    ``RandomPt``, as in the engine; every adversarial sample plays a
    fresh copy of it.

    Each sample adds its node to ``state`` itself, runs the check there
    without applying the marking, scores the step and pops the node
    again; the state is restored on the way out, whatever is raised.  A
    :class:`MinDistance` step is scored by
    :func:`_min_distance_delta` from the nodes it touches: the new node,
    its parents, the marked set and the parents of the marked set, and
    the PT False nodes whose distance the marking moves; a sample costs
    the size of that neighbourhood, not of the state.  Other potentials
    are recomputed over a copy with the marking applied.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    gen = rng if isinstance(rng, np.random.Generator) else make_generator(rng)
    chooser = SimChooser(gen)
    windex = weight_index_for(state, features.attach)
    local = isinstance(kind, MinDistance)
    dist = pt_false_distances(state) if local else None
    terms = TermTable(kind, exact=False) if local else None
    # one distance pass and one term table: for MinDistance, phi_before
    # only raises PotentialOverflow on a state too deep for float terms,
    # and the samples are scored from dist and the table
    phi_before = _phi_value(state, kind, dist, terms)

    def step_delta(v, parents, marked) -> float:
        if local:
            return _min_distance_delta(state, dist, terms, v, parents, marked)
        if marked:
            after = state.copy()
            after.mark_pf(marked)
            return _phi_value(after, kind) - phi_before
        return _phi_value(state, kind) - phi_before

    adversary = _Fresh(adversary)
    feats = features
    birth = _next_birth(state)
    n = len(state.labels)
    mean = 0.0
    m2 = 0.0
    try:
        for i in range(1, samples + 1):
            branch, parents, label = draw_move(state, feats, chooser, windex,
                                               adversary)
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
                delta = step_delta(v, parents, marked)
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


def _min_distance_delta(state, dist, terms, v, parents, marked) -> float:
    """The change of a :class:`MinDistance` potential over one step,
    summed over the nodes whose term the step can change.

    ``state`` holds the step's new node ``v``, attached by the edge list
    ``parents``, but not the marking ``marked``; ``dist`` is
    :func:`pt_false_distances` of the state without ``v`` and ``terms``
    a float :class:`TermTable`.  The touched nodes are ``v``, which
    joins the sum; its parents and the parents of ``marked``, whose
    degree moves; ``marked``, which leaves the sum; and the PT False
    nodes whose distance moves.  Those are found by re-applying the
    :func:`pt_false_distances` recurrence from ``v`` and from the
    children of ``marked``, in increasing id order (ids are a
    topological order), with ``marked`` treated as PF; a node whose
    distance stays put does not pass the change on.  The state is read,
    never changed.
    """
    labels = state.labels
    is_false = state.is_false
    up = state.parents
    down = state.children
    born: dict = {}           # edges v adds to each of its parents
    for u in parents:
        born[u] = born.get(u, 0) + 1
    lost: dict = {}           # edges the marking takes from each parent
    queued = {v}
    for w in marked:
        for u in up[w]:
            lost[u] = lost.get(u, 0) + 1
        queued.update(down[w])
    heap = [w for w in queued
            if w not in marked and labels[w] != PF and is_false[w]]
    heapq.heapify(heap)
    moved: dict = {}          # the distances the step changes
    while heap:
        w = heapq.heappop(heap)
        if (labels[w] == CF or state.pf_parent_edges[w] > 0
                or any(u in marked for u in up[w])):
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
    deg = state.deg_pt
    delta = 0.0
    for w in touched:
        if labels[w] == PF or not is_false[w]:
            continue
        old = 0.0 if w == v else terms[deg[w] - born.get(w, 0), dist[w]]
        new = 0.0 if w in marked else terms[
            deg[w] - lost.get(w, 0), moved[w] if w in moved else dist[w]]
        delta += new - old
    return delta
