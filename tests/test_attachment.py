"""Weight families, parent-count law, the Fenwick index and the
prefix-sum pool."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ckplab.attachment import (
    Affine, PowerShifted, TableAttachment, ParentCountLaw, WeightIndex,
    PrefixPool, AllPF, AllWeightsZero,
    preferential, uniform,
    parent_distribution, sample_combination, prefix_pool_for,
    weight_index_for,
)
from ckplab.engine import kernel_available
from ckplab.evolution import (
    Features, PyEngine, init_chain, survival_potential_floor,
)
from ckplab.rand import SimChooser, derive_seed
from ckplab.state import CT, CF, PF, CkpState, dump_state
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


def test_exact_evaluation_matches_float():
    a = Affine(Fraction(1, 2), Fraction(1, 3))
    assert a.evaluate_exact(4) == Fraction(1, 2) + Fraction(4, 3)
    assert a.evaluate(4) == pytest.approx(float(a.evaluate_exact(4)))
    # a non-integral power enters at the float weight the engine uses
    power = PowerShifted(1, 2.5)
    assert power.evaluate_exact(3) == Fraction(power.evaluate(3))
    assert type(power.evaluate_exact(3)) is Fraction


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        Affine(1, -1)
    with pytest.raises(ValueError):
        TableAttachment((1, -2), 0)
    with pytest.raises(ValueError):
        TableAttachment((1, 2), -1)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build,name", [
    (lambda: Affine(NAN, 1), "affine base"),
    (lambda: Affine(1, INF), "affine slope"),
    (lambda: Affine(-INF, 1), "affine base"),
])
def test_affine_rejects_non_finite_parameters(build, name):
    # NaN passes the nonnegativity test, and would reach the weight index
    with pytest.raises(ValueError, match=name):
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
    Affine(1, 1), Affine(1, 0), Affine(2, 3),
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


def test_parent_distribution_error_cases():
    s = chain_state([CF])
    s.mark_pf([0])
    with pytest.raises(AllPF):
        parent_distribution(s, preferential())
    s2 = chain_state([CF, CT])
    with pytest.raises(AllWeightsZero):
        parent_distribution(s2, TableAttachment((0,), 0))


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


def test_sample_combination_moment():
    law = ParentCountLaw({1: 0.5, 3: 0.5})
    chooser = SimChooser(5)
    n = 100_000
    total = sum(sample_combination(law, chooser) for _ in range(n))
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


# -- the level-by-level build ----------------------------------------------

def appended(weights, capacity: int) -> WeightIndex:
    """The build by definition: one append per weight, in id order."""
    idx = WeightIndex(capacity)
    for w in weights:
        idx.append(w)
    return idx


def regrown_by_reappending(idx: WeightIndex, need: int) -> WeightIndex:
    """Regrowth as one re-append per live weight into a fresh index of
    the doubled capacity: the loop :meth:`WeightIndex._build` replaced."""
    cap = idx.capacity
    while cap < need:
        cap *= 2
    return appended(idx.weights[:idx.size], cap)


def fields(idx: WeightIndex) -> tuple:
    """Every field, with each float spelled out in its bits (so 0.0 and
    -0.0 differ)."""
    def bits(xs):
        return [float(x).hex() for x in xs]
    return (idx.size, idx.capacity, bits(idx.tree), bits(idx.weights),
            float(idx.total).hex(), idx.positive)


def built(weights, capacity: int) -> WeightIndex:
    idx = WeightIndex(capacity)
    idx._build(weights, capacity)
    return idx


# zeros, subnormals, and magnitudes far enough apart that a float sum
# depends on the order of its additions
WEIGHTS = st.one_of(st.just(0.0), st.just(-0.0),
                    st.sampled_from([5e-324, 2.5e-310, 1e-16, 0.1, 1.3]),
                    st.floats(0, 1e300, allow_subnormal=True))


@given(st.lists(WEIGHTS, max_size=80), st.integers(0, 70))
@example([], 0)
@example([], 5)
@example([0.7], 0)
@example([0.1] * 64, 0)
@settings(max_examples=300, deadline=None)
def test_build_matches_one_append_per_weight(weights, spare):
    capacity = max(1, len(weights) + spare)
    assert fields(built(weights, capacity)) == fields(appended(weights,
                                                               capacity))


@pytest.mark.parametrize("capacity", [101, 128, 1024])
def test_build_keeps_the_left_fold_where_other_sums_differ(capacity):
    # 1e-16 is under half an ulp of 1.0, so the left fold never moves
    # from 1.0, while pairwise and exactly rounded sums do
    weights = [1.0] + [1e-16] * 100
    assert float(np.sum(weights)) != 1.0
    assert math.fsum(weights) != 1.0
    idx = built(weights, capacity)
    assert idx.total == 1.0
    assert idx.tree[64] == 1.0
    assert fields(idx) == fields(appended(weights, capacity))


@given(st.lists(WEIGHTS, min_size=1, max_size=40),
       st.lists(st.tuples(st.integers(0, 39), WEIGHTS), max_size=40),
       st.floats(0, 100))
@settings(max_examples=200, deadline=None)
def test_regrowth_matches_the_reappend_loop(weights, history, extra):
    # a full index, reweighted by set_weight, grown by one more append
    idx = appended(weights, len(weights))
    for i, w in history:
        idx.set_weight(i % len(weights), w)
    want = regrown_by_reappending(idx, idx.size + 1)
    want.append(extra)
    idx.append(extra)
    assert idx.capacity == 2 * len(weights)
    assert fields(idx) == fields(want)


def test_weight_index_for_matches_one_append_per_node():
    attach = Affine(0.5, 1.3)
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
    assert idx.capacity == 1500
    assert fields(idx) == fields(appended(weights, 1500))


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
    attach = Affine(0.5, 1.3)
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
INTEGER_FAMILIES = (preferential(), uniform(), Affine(2, 3),
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
