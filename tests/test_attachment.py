"""Weight families, parent-count law, the Fenwick index and the
prefix-sum pool."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ckplab.attachment import (
    PowerShifted, TableAttachment, ParentCountLaw, WeightIndex,
    PrefixPool, AllWeightsZero,
    preferential, uniform,
    _node_weights, _to_fraction, attachment_weight, parent_distribution,
    weight_index_for,
)
from ckplab.engine import kernel_available
from ckplab.evolution import (
    Features, PyEngine, draw_move, init_chain, survival_potential_floor,
)
from ckplab.rand import SimChooser, derive_seed
from ckplab.state import CT, CF, PF, CkpState, _label_bytes, dump_state
from ckplab.thresholds import theorem_verdict


def chain_state(labels):
    s = CkpState()
    s.add_root(labels[0])
    for i, lab in enumerate(labels[1:], start=1):
        s.add_node([i - 1], lab)
    return s


def test_family_point_values():
    assert preferential().evaluate(0) == 1
    assert preferential().evaluate(3) == 4
    assert uniform().evaluate(17) == 1
    holes = TableAttachment((1, 0), 0)
    assert holes.evaluate(0) == 1
    assert holes.evaluate(5) == 0
    assert holes.has_hole()
    cubic = PowerShifted(1, 3)
    assert cubic.evaluate(0) == 1
    assert cubic.evaluate(2) == 27
    assert cubic.evaluate_exact(2) == Fraction(27)


def test_table_tail_continues_affinely():
    t = TableAttachment((2, 5), 3)
    assert t.evaluate(1) == 5
    assert t.evaluate(2) == 8
    assert t.evaluate(4) == 14
    assert t.evaluate_exact(4) == Fraction(14)


AFFINE_GRID = (0, 1, 3, 0.0, -0.0, 0.5, 1.3, 1e-300, 1e300, Fraction(1, 3),
               Fraction(7, 2))


@pytest.mark.parametrize("base", AFFINE_GRID)
def test_one_entry_table_is_the_affine_rule(base):
    """``TableAttachment((b,), s)`` is a(d) = b + s*d: the float weights
    both engines draw with, bit for bit, and the exact ones the
    predicates read."""
    for slope in AFFINE_GRID:
        a = TableAttachment((base,), slope)
        assert a.evaluate(0) == float(base)
        for d in (*range(1, 60), 10**6, 2**40):
            assert a.evaluate(d).hex() == \
                (float(base) + float(slope) * d).hex()
        for d in (0, 1, 2, 59, 10**6, 2**40):
            assert a.evaluate_exact(d) == \
                Fraction(base) + Fraction(slope) * d
        assert a.increment_bounds() == (Fraction(slope), Fraction(slope))
        assert a.has_hole() == (base == 0)


def test_exact_evaluation_matches_float():
    a = TableAttachment((Fraction(1, 2),), Fraction(1, 3))
    assert a.evaluate_exact(4) == Fraction(1, 2) + Fraction(4, 3)
    assert a.evaluate(4) == pytest.approx(float(a.evaluate_exact(4)))
    # a non-integral power enters at the float weight the engine uses
    power = PowerShifted(1, 2.5)
    assert power.evaluate_exact(3) == Fraction(power.evaluate(3))
    assert type(power.evaluate_exact(3)) is Fraction


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        TableAttachment((1,), -1)
    with pytest.raises(ValueError):
        TableAttachment((1, -2), 0)
    with pytest.raises(ValueError):
        TableAttachment((1, 2), -1)


NAN, INF = math.nan, math.inf


# a one-entry table is the affine rule a(d) = base + slope*d: its entry
# is the base and its tail slope the slope
AFFINE_PARAMETERS = {"affine base": "table value 0",
                     "affine slope": "table tail slope"}


@pytest.mark.parametrize("build,name", [
    (lambda: TableAttachment((NAN,), 1), "affine base"),
    (lambda: TableAttachment((1,), INF), "affine slope"),
    (lambda: TableAttachment((-INF,), 1), "affine base"),
])
def test_affine_rejects_non_finite_parameters(build, name):
    # NaN passes the nonnegativity test, and would reach the weight index
    with pytest.raises(ValueError, match=AFFINE_PARAMETERS[name]):
        build()


@pytest.mark.parametrize("build,name", [
    (lambda: PowerShifted(NAN, 1), "power base"),
    (lambda: PowerShifted(1, INF), "power exponent"),
    (lambda: PowerShifted(1, NAN), "power exponent"),
])
def test_power_rejects_non_finite_parameters(build, name):
    with pytest.raises(ValueError, match=name):
        build()


@pytest.mark.parametrize("build,name", [
    (lambda: TableAttachment((1.0, NAN), 1), "table value 1"),
    (lambda: TableAttachment((INF,), 1), "table value 0"),
    (lambda: TableAttachment((1, 2), NAN), "table tail slope"),
])
def test_table_rejects_non_finite_parameters(build, name):
    with pytest.raises(ValueError, match=name):
        build()


@pytest.mark.parametrize("build,message", [
    # True would run as base 1, and the others die in a comparison that
    # names no argument; the affine-* cases are one-entry tables
    (lambda: TableAttachment((True,), 1),
     "table value 0 must be a real number, got True"),
    (lambda: TableAttachment(("1",), 1),
     "table value 0 must be a real number, got '1'"),
    (lambda: TableAttachment((1,), np.float32(1)),
     "table tail slope must be a real number"),
    (lambda: PowerShifted(1, None), "power exponent must be a real number"),
    (lambda: TableAttachment(("1",), 0), "table value 0 must be a real"),
    (lambda: TableAttachment((1,), False), "table tail slope must be a real"),
], ids=["affine-bool", "affine-str", "affine-float32", "power-none",
        "table-str", "table-bool"])
def test_families_refuse_a_parameter_that_is_not_a_real_number(build,
                                                              message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build,kind,message", [
    (lambda: _to_fraction("1/2"), TypeError, "cannot take str exactly"),
    (lambda: PowerShifted(-1, 1), ValueError,
     "power attachment needs a nonnegative base"),
    (lambda: PowerShifted(1, Fraction(-1, 2)), ValueError,
     "power attachment needs a nonnegative exponent"),
    (lambda: TableAttachment((), 1), ValueError,
     "table attachment needs at least one entry"),
    (lambda: ParentCountLaw({1: 1.5, 2: -0.5}), ValueError,
     "negative probability in parent-count pmf"),
], ids=["to-fraction-str", "power-base", "power-exponent", "empty-table",
        "negative-probability"])
def test_bad_weights_and_laws_are_refused_by_name(build, kind, message):
    with pytest.raises(kind) as err:
        build()
    assert err.type is kind
    assert str(err.value) == message


def test_parent_count_law_rejects_non_finite_probabilities():
    # {1: .5, 2: nan} used to pass the sum test (NaN compares False) and
    # sample as {1: .5, 2: .5}
    with pytest.raises(ValueError, match="probability of 2"):
        ParentCountLaw({1: 0.5, 2: NAN})
    with pytest.raises(ValueError, match="probability of 1"):
        ParentCountLaw({1: INF, 2: 0.5})
    with pytest.raises(ValueError, match="probability of 1"):
        ParentCountLaw({1: "1"})
    # every law it accepts has an exact mean, numpy integers included
    law = ParentCountLaw({1: np.int64(0), 2: Fraction(1, 4), 3: 0.75})
    assert law.mean_exact() == Fraction(11, 4)
    assert law.mean_reciprocal_exact() == Fraction(3, 8)


@pytest.mark.parametrize("fam", [
    TableAttachment((1,), 1), TableAttachment((1,), 0),
    TableAttachment((2,), 3),
    PowerShifted(1, 3), PowerShifted(2, 1), PowerShifted(1, 0.5),
    TableAttachment((1, 0), 0), TableAttachment((1, 3, 3, 7), 2),
])
def test_increment_bounds_cover_a_long_sweep(fam):
    lo, hi = fam.increment_bounds()
    for d in range(10_000):
        inc = fam.evaluate(d + 1) - fam.evaluate(d)
        assert lo - 1e-9 <= inc <= hi + 1e-9


def test_parent_count_law_moments():
    law = ParentCountLaw({1: 0.5, 3: 0.5})
    assert law.min == 1 and law.max == 3
    exact = ParentCountLaw({1: Fraction(1, 2), 3: Fraction(1, 2)})
    assert exact.mean_exact() == Fraction(2)
    assert exact.mean_reciprocal_exact() == Fraction(2, 3)
    point = ParentCountLaw.const(2)
    assert point.min == point.max == 2
    assert point.mean_reciprocal_exact() == Fraction(1, 2)
    assert point.support == [2]
    # a numpy count is held as a plain int: 12 ** np.int64(20) wraps
    wide = ParentCountLaw({np.int64(2): 1})
    assert wide.support == [2] and type(wide.support[0]) is int


def test_parent_count_law_validation():
    with pytest.raises(ValueError):
        ParentCountLaw({0: 1.0})
    with pytest.raises(ValueError):
        ParentCountLaw({1: 0.6, 2: 0.6})
    with pytest.raises(ValueError):
        ParentCountLaw({})
    # a bool is an int to Python, but not a count or a probability
    with pytest.raises(ValueError, match="parent counts .* got True"):
        ParentCountLaw({True: 1})
    with pytest.raises(ValueError, match="probability of 1 .* got True"):
        ParentCountLaw({1: True})
    with pytest.raises(ValueError, match="probability of 2 .* got False"):
        ParentCountLaw({1: 1, 2: False})
    with pytest.raises(ValueError, match="sums to 0"):
        ParentCountLaw({1: 0, 2: 0.0})
    # a count of probability zero is never drawn, so it is not in the
    # support: {1: 0, 2: 1} is const(2) to the moments, the verdicts and
    # the decision stream
    padded = ParentCountLaw({1: 0, 2: 1, 5: Fraction(0)})
    assert padded.support == [2] and padded.min == padded.max == 2
    assert padded.cum == [1.0]

    def features(law):
        return Features(preferential(), law, check_rate=Fraction(1, 20),
                        check_depth=2, mechanism="bfs")
    const = ParentCountLaw.const(2)
    assert theorem_verdict(features(padded)) == \
        theorem_verdict(features(const))
    assert survival_potential_floor(features(padded)) == 3
    finals = []
    for law in (padded, const):
        eng = PyEngine(features(law), init_chain(4, 1, CF), SimChooser(5))
        eng.run(200)
        finals.append(dump_state(eng.state))
    assert finals[0] == finals[1]


def test_parent_distribution_chain_preferential():
    s = chain_state([CF, CT])          # degrees: node0 has 1 child, node1 none
    dist = parent_distribution(s, preferential())
    assert dist == {0: Fraction(2, 3), 1: Fraction(1, 3)}
    assert all(type(p) is Fraction for p in dist.values())


def test_parent_distribution_holes_picks_leaf_only():
    s = chain_state([CF, CT, CT])
    dist = parent_distribution(s, TableAttachment((1, 0), 0))
    assert dist == {2: 1.0}


def test_parent_distribution_is_empty_without_a_positive_weight():
    # empty, and falsy, as a WeightIndex or PrefixPool with no positive
    # weight: a step drawn on it stops
    s = chain_state([CF])
    s.mark_pf([0])
    assert parent_distribution(s, preferential()) == {}
    s2 = chain_state([CF, CT])
    assert parent_distribution(s2, TableAttachment((0,), 0)) == {}


def per_node_distribution(state, attach) -> dict:
    """The selection pmf one node at a time: ``evaluate_exact`` at every
    PT node's degree, in id order, the sum of those weights, and one
    division per positive-weight node."""
    weights = {v: attach.evaluate_exact(d)
               for v, (label, d) in enumerate(zip(state.labels, state.deg_pt))
               if label != PF}
    total = sum(weights.values())
    return {v: w / total for v, w in weights.items() if w > 0}


DISTRIBUTION_FAMILIES = (preferential(), TableAttachment((1, 0, 4), 2),
                         TableAttachment((0, 3), Fraction(1, 3)),
                         PowerShifted(1, Fraction(3, 2)))


@given(st.sampled_from(DISTRIBUTION_FAMILIES), st.integers(0, 2**32 - 1),
       st.integers(0, 120))
@settings(max_examples=60, deadline=None)
def test_parent_distribution_is_the_per_node_pmf(attach, seed, steps):
    s = grown_state(attach, seed, steps)
    dist = parent_distribution(s, attach)
    want = per_node_distribution(s, attach)
    assert list(dist) == list(want)       # the same ids, in id order
    assert all(type(dist[v]) is type(want[v]) and dist[v] == want[v]
               for v in want)


class FailsAtDegree:
    """``preferential``'s weights, except that ``evaluate_exact``
    raises at the degrees in ``bad``, naming the degree."""

    def __init__(self, *bad):
        self.bad = bad
        self.asked = []

    def evaluate_exact(self, d):
        self.asked.append(d)
        if d in self.bad:
            raise ArithmeticError(f"no weight at degree {d}")
        return Fraction(d + 1)


def test_parent_distribution_raises_what_a_per_node_pass_meets_first():
    s = chain_state([CF, CT])
    s.add_node([0], CT)                     # 2
    s.add_node([2, 2, 1], CT)               # 3
    s.add_node([2], CF)                     # 4
    s.add_node([4, 4], CT)                  # 5, marked: 4 is a leaf again
    s.mark_pf([5])
    degrees = [s.deg_pt[v] for v in range(5)]
    assert degrees == [2, 1, 3, 0, 0]
    for bad in ((3, 1), (0, 3), (2,), (0,)):
        errors = []
        for run in (parent_distribution, per_node_distribution):
            with pytest.raises(ArithmeticError) as err:
                run(s, FailsAtDegree(*bad))
            errors.append(str(err.value))
        assert errors[0] == errors[1], bad
    # one evaluation per distinct PT degree, in first-appearance order
    attach = FailsAtDegree()
    parent_distribution(s, attach)
    assert attach.asked == list(dict.fromkeys(degrees))


def draw_parents(windex, m, chooser):
    """m parents with replacement, drawn the way the engine draws them."""
    return [chooser.weighted_index(windex) for _ in range(m)]


def test_sample_parents_trivial_and_deterministic():
    idx = weight_index_for(chain_state([CF]), preferential())
    assert draw_parents(idx, 3, SimChooser(7)) == [0, 0, 0]
    idx2 = weight_index_for(chain_state([CF, CT, CT]), preferential())
    a = draw_parents(idx2, 5, SimChooser(11))
    b = draw_parents(idx2, 5, SimChooser(11))
    assert a == b


def test_sample_parents_frequency_matches_distribution():
    idx = weight_index_for(chain_state([CF, CT]), preferential())
    chooser = SimChooser(123)
    n = 100_000
    hits = sum(1 for pick in draw_parents(idx, n, chooser) if pick == 0)
    assert abs(hits / n - 2 / 3) < 0.01


def test_draw_move_parent_count_moment():
    law = ParentCountLaw({1: 0.5, 3: 0.5})
    f = Features(preferential(), law, check_rate=0.5, check_depth=2,
                 mechanism="bfs")
    state = chain_state([CF, CT])
    pool = weight_index_for(state, f.attach)
    chooser = SimChooser(5)
    n = 100_000
    total = sum(len(draw_move(state, f, chooser, pool)[1]) for _ in range(n))
    assert abs(total / n - 2.0) < 0.02


def test_weight_index_matches_brute_force_prefix():
    idx = WeightIndex(capacity=4)      # force growth
    weights = [1.0, 0.0, 2.5, 4.0, 0.5, 3.0]
    for w in weights:
        idx.append(w)
    assert idx.total == pytest.approx(sum(weights))
    assert idx.positive == 5
    for i in range(len(weights) + 1):
        assert idx.prefix(i) == pytest.approx(sum(weights[:i]))
    # boundary draws land on the node whose span contains x
    assert idx.select(0.0) == 0
    assert idx.select(0.999) == 0
    assert idx.select(1.0) == 2
    assert idx.select(3.5 - 1e-9) == 2
    assert idx.select(3.5) == 3
    idx.set_weight(3, 0.0)
    assert idx.positive == 4
    assert idx.select(3.5) == 4


@given(st.lists(st.tuples(st.sampled_from(["append", "set", "select"]),
                          st.integers(0, 30),
                          st.one_of(st.just(0.0),
                                    st.floats(1e-6, 100))),
                min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_weight_index_random_ops_agree_with_list(ops):
    # weights are zero or well above float absorption scale, like every
    # attachment function produces; the subnormal regime is covered by
    # test_select_lands_on_positive_weight_despite_tiny_values
    idx = WeightIndex(capacity=2)
    mirror = []
    for op, i, w in ops:
        if op == "append" or not mirror:
            idx.append(w)
            mirror.append(w)
        elif op == "set":
            j = i % len(mirror)
            idx.set_weight(j, w)
            mirror[j] = w
        else:
            total = sum(mirror)
            if total <= 0:
                continue
            x = (i / 31.0) * total * 0.999
            got = idx.select(x)
            acc = 0.0
            want = None
            for j, wj in enumerate(mirror):
                if acc <= x < acc + wj:
                    want = j
                    break
                acc += wj
            if want is not None and mirror[want] > 0:
                assert got == want
    assert idx.total == pytest.approx(sum(mirror))
    assert idx.positive == sum(1 for w in mirror if w > 0)
    assert sum(idx.weights[:idx.size]) == pytest.approx(sum(mirror))


@given(st.lists(st.floats(0, 100), min_size=1, max_size=40),
       st.floats(0, 1, exclude_max=True))
@settings(max_examples=120, deadline=None)
def test_select_lands_on_positive_weight_despite_tiny_values(weights, u):
    """Even when float absorption makes the tree widths lie (subnormal
    weights vanish against large totals), a draw must land on a slot whose
    stored weight is positive."""
    idx = WeightIndex(capacity=2)
    for w in weights:
        idx.append(w)
    pool = PrefixPool(np.array(weights))
    assert pool.total == idx.total
    if idx.positive == 0:
        assert not pool
        for empty in (idx, pool):
            with pytest.raises(AllWeightsZero):
                empty.select(0.0)
        return
    assert pool
    got = idx.select(u * idx.total)
    assert idx.weights[got] > 0
    assert weights[pool.select(u * pool.total)] > 0
    s = chain_state([CF, CT, CT])
    s.mark_pf([0])
    idx = weight_index_for(s, preferential())
    assert idx.weights[0] == 0.0
    assert idx.weights[1] == 2.0      # one PT child edge remains
    assert idx.positive == 2


# -- appends and regrowths -------------------------------------------------

def appended(weights, capacity: int) -> WeightIndex:
    """One append per weight, in id order, into ``capacity`` empty
    slots: how :func:`weight_index_for` fills an index, from 1,024."""
    idx = WeightIndex(capacity)
    for w in weights:
        idx.append(w)
    return idx


def regrown_by_the_rule(idx: WeightIndex) -> WeightIndex:
    """A full index at twice its capacity, by the regrowth rule spelled
    out: its slots and weights with empty ones appended, the old root's
    sum in the new root, its total and positive count."""
    cap = idx.capacity
    grown = WeightIndex(2 * cap)
    grown.size, grown.total, grown.positive = idx.size, idx.total, idx.positive
    grown.tree = idx.tree + [0.0] * cap
    grown.tree[2 * cap] = idx.tree[cap]
    grown.weights = idx.weights + [0.0] * cap
    return grown


def bits(xs) -> list:
    return [float(x).hex() for x in xs]


def fields(idx: WeightIndex) -> tuple:
    """Every field, with each float spelled out in its bits (so 0.0 and
    -0.0 differ)."""
    return (idx.size, idx.capacity, bits(idx.tree), bits(idx.weights),
            float(idx.total).hex(), idx.positive)


# zeros, subnormals, and magnitudes far enough apart that a float sum
# depends on the order of its additions
WEIGHTS = st.one_of(st.just(0.0), st.just(-0.0),
                    st.sampled_from([5e-324, 2.5e-310, 1e-16, 0.1, 1.3]),
                    st.floats(0, 1e300, allow_subnormal=True))


@given(st.lists(WEIGHTS, min_size=1, max_size=40),
       st.lists(st.tuples(st.integers(0, 39), WEIGHTS), max_size=40),
       st.floats(0, 100))
@example([3.0, 0.0, 7.0], [(0, 1.0), (2, 0.0), (1, 2.0**40)], 5.0)
@example([2.0**50, 1.0] * 9, [(3, 6.0)], 0.0)
@settings(max_examples=200, deadline=None)
def test_regrowth_matches_the_reappend_loop(weights, history, extra):
    # a full index, reweighted by set_weight, grown by one more append
    cap = WeightIndex(len(weights)).capacity
    # the capacity asked for, rounded up to a power of two
    assert cap == 1 << (len(weights) - 1).bit_length()
    idx = appended((weights * 2)[:cap], cap)
    for i, w in history:
        idx.set_weight(i % cap, w)
    old_tree, old_weights = bits(idx.tree), bits(idx.weights)
    want = regrown_by_the_rule(idx)
    want.append(extra)
    idx.append(extra)
    assert idx.capacity == 2 * cap
    # the append's own update touches only slots past the old capacity
    assert bits(idx.tree[:cap + 1]) == old_tree
    assert bits(idx.weights[:cap]) == old_weights
    assert fields(idx) == fields(want)
    # where no sum can have rounded, that is also a fresh re-append of
    # every live weight at the doubled capacity
    ever = weights + [w for _, w in history] + [extra]
    if all(w.is_integer() for w in ever) and (
            (cap + 1) * max(ever) < 2.0**53):
        # a weight set to -0.0 is kept; an append stores it as 0.0
        idx.weights = [w + 0.0 for w in idx.weights]
        assert fields(idx) == fields(appended(idx.weights[:idx.size],
                                              2 * cap))


def test_weight_index_for_matches_one_append_per_node():
    attach = TableAttachment((0.5,), 1.3)
    f = Features(attach, ParentCountLaw({1: 0.5, 2: 0.5}), check_rate=0.5,
                 check_depth=3, mechanism="bfs", error_rate=0.2,
                 detection_rate=0.8)
    eng = PyEngine(f, init_chain(3, 1, CT), SimChooser(4))
    while len(eng.state.labels) < 1500:
        eng.step()
    grown = eng.state
    assert grown.pf_total > 0
    weights = [0.0 if lab == PF else attach.evaluate(d)
               for lab, d in zip(grown.labels, grown.deg_pt)]
    idx = weight_index_for(grown, attach)
    assert idx.capacity == 2048
    assert fields(idx) == fields(appended(weights, 2048))


class CountingEvaluations:
    """An attachment that records each degree ``evaluate`` is asked."""

    def __init__(self, attach):
        self.attach = attach
        self.asked = []

    def evaluate(self, d):
        self.asked.append(d)
        return self.attach.evaluate(d)


def test_weight_index_for_skips_the_degrees_of_pf_nodes():
    # the CF origin keeps its six PT child edges once marked PF, while
    # the largest live degree is node 1's three
    s = CkpState()
    s.add_root(CF)
    for _ in range(6):
        s.add_node([0], CT)
    s.add_node([1], CT)
    s.add_node([1, 1], CT)
    s.mark_pf([0])
    assert s.deg_pt[0] == 6 and max(s.deg_pt[1:]) == 3
    attach = TableAttachment((0.5,), 1.3)
    counting = CountingEvaluations(attach)
    idx = weight_index_for(s, counting)
    assert counting.asked == [0, 1, 2, 3]   # once each, none past 3
    weights = [0.0 if lab == PF else attach.evaluate(d)
               for lab, d in zip(s.labels, s.deg_pt)]
    assert fields(idx) == fields(appended(weights, 1024))


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel not built")
def test_both_backends_ask_evaluate_for_the_same_degrees():
    """Both engines keep a per-degree weight table and fill it the same
    way: each degree is asked once, in increasing order, over a run that
    grows degrees past the initial ones and marks."""
    from ckplab._kernel import KernelEngine

    asked = {}
    for backend in ("python", "compiled"):
        counting = CountingEvaluations(preferential())
        feats = Features(counting, ParentCountLaw({1: 0.5, 2: 0.25,
                                                   3: 0.25}),
                         check_rate=0.5, check_depth=3, mechanism="complete")
        init = init_chain(12, 2, CF)
        eng = (PyEngine(feats, init, SimChooser(31))
               if backend == "python" else KernelEngine(feats, init, 31))
        assert counting.asked == [0, 1, 2]       # the initial degrees
        assert eng.run(400)["final_counts"]["pf"] > 0
        asked[backend] = counting.asked
    assert asked["python"] == asked["compiled"]
    assert asked["python"] == list(range(len(asked["python"])))
    assert len(asked["python"]) > 10


# -- the prefix-sum pool --------------------------------------------------

# integer-valued weights, so every prefix sum is exact; the table's hole
# gives PT nodes of weight zero
INTEGER_FAMILIES = (preferential(), uniform(), TableAttachment((2,), 3),
                    PowerShifted(1, 2), TableAttachment((1, 0, 4), 2))


def grown_state(attach, seed: int, steps: int):
    """A state grown by the engine, with PF nodes from its checks."""
    f = Features(attach, ParentCountLaw({1: 0.5, 2: 0.5}), check_rate=0.6,
                 check_depth=2, mechanism="bfs", error_rate=0.3)
    eng = PyEngine(f, init_chain(3, 1, CF), SimChooser(seed))
    for _ in range(steps):
        eng.step()
    return eng.state


GROWN = (st.sampled_from(INTEGER_FAMILIES), st.integers(0, 2**32 - 1),
         st.integers(0, 120))


def prefix_pool_for(state, attach) -> PrefixPool:
    """The parent pool ``potentials.mc_drift`` builds for its set-up."""
    return PrefixPool(_node_weights(state, attach, _label_bytes(state)))


def reference_pool(state, attach) -> tuple:
    """``(cum, total, last)`` of a pool over ``state``, one node at a
    time: a PF node weighs 0.0, a PT node its ``attachment_weight``; the
    prefix sums are the left fold that starts at node 0's weight."""
    cum = []
    last = -1
    for v, (label, d) in enumerate(zip(state.labels, state.deg_pt)):
        w = 0.0 if label == PF else attachment_weight(attach, d)
        cum.append(w if v == 0 else cum[-1] + w)
        if w > 0:
            last = v
    return cum, cum[-1] if cum else 0.0, last


def assert_pool_is_the_reference(state, attach):
    pool = prefix_pool_for(state, attach)
    cum, total, last = reference_pool(state, attach)
    assert [x.hex() for x in pool.cum] == [x.hex() for x in cum]
    assert pool.total.hex() == total.hex()
    assert pool.last == last


def pf_heavy_state(seed: int, steps: int):
    """A state grown as the harness's ``trial-cf`` is, with a higher
    check rate: every node False, and often most of them PF."""
    f = Features(preferential(), ParentCountLaw({1: 0.5, 2: 0.5}),
                 check_rate=0.5, check_depth=3, mechanism="bfs")
    eng = PyEngine(f, init_chain(25, 1, CF), SimChooser(seed))
    for _ in range(steps):
        eng.step()
    return eng.state


@given(st.sampled_from(INTEGER_FAMILIES + (
           TableAttachment((-0.0, 1.0, 0.5), 0.25),
           TableAttachment((2.0, -0.0), 0))),
       st.integers(0, 2**32 - 1), st.integers(0, 150), st.booleans())
@example(TableAttachment((2.0, -0.0), 0), 0, 0, False)   # cum[0] is -0.0
@settings(max_examples=60, deadline=None)
def test_prefix_pool_is_the_per_node_fold(attach, seed, steps, pf_heavy):
    s = pf_heavy_state(seed, steps) if pf_heavy else \
        grown_state(attach, seed, steps)
    assert_pool_is_the_reference(s, attach)


@pytest.mark.parametrize("attach", [preferential(),
                                    TableAttachment((-0.0, 1.0), 0)],
                         ids=["preferential", "table -0.0"])
def test_prefix_pool_of_an_all_pf_state_is_the_per_node_fold(attach):
    s = chain_state([CF, CT, CT])
    s.mark_pf([0, 1, 2])
    assert_pool_is_the_reference(s, attach)
    assert prefix_pool_for(s, attach).last == -1


@given(*GROWN, st.lists(st.floats(0, 1, exclude_max=True), max_size=30))
@settings(max_examples=60, deadline=None)
def test_prefix_pool_picks_what_the_index_picks(attach, seed, steps, us):
    s = grown_state(attach, seed, steps)
    idx = weight_index_for(s, attach)
    pool = prefix_pool_for(s, attach)
    assert bool(pool) == bool(idx)
    assert float(pool.total).hex() == float(idx.total).hex()
    if not idx:
        return
    # every prefix boundary, one ulp either side of it, and random draws
    xs = [u * pool.total for u in us]
    acc = 0.0
    for w in [0.0] + idx.weights[:idx.size]:
        acc += w
        xs += [acc, math.nextafter(acc, math.inf)]
        if acc > 0:
            xs.append(math.nextafter(acc, -math.inf))
    for x in xs:
        assert pool.select(x) == idx.select(x), x


@given(*GROWN)
@settings(max_examples=40, deadline=None)
def test_prefix_pool_lands_on_positive_weights_only(attach, seed, steps):
    s = grown_state(attach, seed, steps)
    pool = prefix_pool_for(s, attach)
    weights = [0.0 if lab == PF else attach.evaluate(d)
               for lab, d in zip(s.labels, s.deg_pt)]
    live = [v for v, w in enumerate(weights) if w > 0]
    if not live:
        assert not pool
        return
    total = pool.total
    for x in (total, math.nextafter(total, math.inf), 2 * total):
        assert pool.select(x) == live[-1]
    for k in range(200):
        v = pool.select(k / 200 * total)
        assert s.labels[v] != PF and weights[v] > 0


def test_prefix_pool_is_falsy_without_a_positive_weight():
    all_pf = chain_state([CF, CT, CT])
    all_pf.mark_pf([0, 1, 2])
    stuck = chain_state([CF, CT])         # PT nodes, every weight zero
    for s, attach in ((all_pf, preferential()),
                      (stuck, TableAttachment((0,), 0))):
        pool = prefix_pool_for(s, attach)
        assert not pool and pool.total == 0.0
        with pytest.raises(AllWeightsZero):
            pool.select(0.0)


def test_derive_seed_stable_and_spread():
    a = derive_seed(42, 3, 0)
    assert a == derive_seed(42, 3, 0)
    others = {derive_seed(42, i, j) for i in range(10) for j in range(10)}
    assert len(others) == 100
    assert all(0 <= s < 2 ** 63 for s in others)
