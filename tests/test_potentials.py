"""Potential values, the exact drift enumerator, and the Monte Carlo
estimator.

The closed-form expectations asserted here are derived by hand in the
comments next to each test; the enumerator must reproduce them
exactly.  Both oracles score a step locally through
``potentials._step_delta``, so the cross-check of that scorer lives
here: a spy wraps it and holds every call, in exact arithmetic, to the
whole potential recomputed before and after the step, on every leaf of
``exact_drift`` and every sample of ``mc_drift``.
"""

import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ckplab import checking, potentials
from ckplab.attachment import ParentCountLaw, PowerShifted, \
    TableAttachment, preferential, uniform
from ckplab.evolution import AuditViolation, DeepAttach, Features, \
    LeafAttach, PyEngine, RandomPt, init_chain
from ckplab.potentials import (
    BranchBudgetExceeded, DriftEstimate, DriftResult, MinDistance,
    MinimalFalse, MinimalFalseLeavesGeneral, MinimalFalseLeavesSimple,
    NonpositiveWeight, PotentialOverflow, exact_drift, mc_drift, potential,
)
from ckplab.rand import PathChooser, SimChooser, make_generator
from ckplab.state import CT, CF, CkpState, StateError, _label_bytes, \
    dump_state, pt_false_distances

from reference import Scripted, anchor_bfs, outcomes

PREF = preferential()
LAW = ParentCountLaw({1: 0.5, 2: 0.25, 3: 0.25})
MECHANISMS = ("stringy", "bfs", "exhaustive-bfs", "parentwise-bfs",
              "complete")
# integer-valued terms, then fractional ones
KINDS = (MinDistance(PREF, 3),
         MinDistance(TableAttachment((0.5,), 1.3), 2.5))


def single_cf() -> CkpState:
    s = CkpState()
    s.add_root(CF)
    return s


def feats(mechanism, p, k=2, m=1, **kw) -> Features:
    return Features(attach=PREF, parent_count=ParentCountLaw.const(m),
                    check_rate=p, check_depth=k, mechanism=mechanism, **kw)


# -- potential values ------------------------------------------------------

def test_min_distance_single_error_node():
    value = potential(single_cf(), MinDistance(PREF, 3))
    assert value == 1
    assert type(value) is Fraction


def test_min_distance_chain_term_by_term():
    # CF -> CT -> CT with child degrees 1, 1, 0 and distances 0, 1, 2:
    # 2*1 + 2*3 + 1*9 = 17
    chain = init_chain(3, 1, CF)
    value = potential(chain, MinDistance(PREF, 3))
    assert value == 17
    # integral terms are summed as ints; the value is still a Fraction
    assert type(value) is Fraction
    # term-by-term against the upward-BFS depths
    recomputed = sum(PREF.evaluate_exact(chain.deg_pt[v])
                     * Fraction(3) ** anchor_bfs(chain, v)[1]
                     for v in range(3))
    assert recomputed == value


def test_min_distance_respects_the_base_parameter():
    chain = init_chain(3, 1, CF)
    assert potential(chain, MinDistance(PREF, 2)) == 2 * 1 + 2 * 2 + 1 * 4


def test_distance_base_must_exceed_one():
    with pytest.raises(ValueError):
        MinDistance(PREF, 1)
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="distance base c must be finite"):
            MinDistance(PREF, c)


@pytest.mark.parametrize("c", ["3", None, [3], True, False, 3j,
                               np.float32(3)])
def test_distance_base_must_be_a_real_number(c):
    # a string, None or a list would fail in a comparison that does not
    # name the argument, True would be refused as a base of 1, and a
    # float32 cannot be taken exactly
    with pytest.raises(ValueError,
                       match=f"distance base c must be a real number, "
                             f"got {re.escape(repr(c))}"):
        MinDistance(PREF, c)


@pytest.mark.parametrize("anchor", [2.0, True, False, "0", None])
def test_general_anchor_must_be_an_integer(anchor):
    # a float would fail later as a list index, and a bool run as node 0
    # or 1
    with pytest.raises(ValueError,
                       match=f"anchor must be an integer, "
                             f"got {re.escape(repr(anchor))}"):
        MinimalFalseLeavesGeneral(anchor, PREF)


def test_min_distance_refuses_a_broken_distance_structure():
    # node 2 claims a hidden error that neither it (CT) nor a parent
    # carries: the distance pass refuses it
    st = init_chain(3, 1, CT)
    st.is_false[2] = True
    with pytest.raises(StateError, match="node 2 is PT False, not minimal"):
        potential(st, MinDistance(PREF, 3))


def test_count_potentials_on_the_chain():
    chain = init_chain(3, 1, CF)
    assert potential(chain, MinimalFalse()) == 1
    value = potential(chain, MinimalFalseLeavesSimple())
    assert value == 2               # the CF origin plus the frontier tip
    assert type(value) is int


def test_true_frontier_nodes_never_count():
    # a True chain hanging off a True root: no hidden error anywhere, so
    # the survival potential must read zero despite the CT leaf
    s = CkpState()
    s.add_root(CT)
    s.add_node([0], CT)
    assert potential(s, MinimalFalseLeavesSimple()) == 0
    assert potential(s, MinDistance(PREF, 3)) == 0


def test_general_leaves_scoped_to_the_origin_closure():
    # True root 0 with two branches: an error branch 1 -> 3 and a True
    # branch 2 -> 4.  Only the error branch may contribute.
    s = CkpState()
    s.add_root(CT)
    s.add_node([0], CF)
    s.add_node([0], CT)
    s.add_node([1], CT)
    s.add_node([2], CT)
    value = potential(s, MinimalFalseLeavesGeneral(1, PREF))
    # closure {1, 3}: node 1 is minimal false, node 3 a leaf of degree 0
    assert value == 1 + Fraction(1, 1)
    assert type(value) is Fraction


def test_general_leaf_weights_divide_by_the_leaf_degree():
    # CF origin whose CT child carries two CF children: the child is a
    # frontier leaf in the wider sense (no CT children) with degree 2
    s = CkpState()
    s.add_root(CF)
    s.add_node([0], CT)
    s.add_node([1], CF)
    s.add_node([1], CF)
    value = potential(s, MinimalFalseLeavesGeneral(0, PREF))
    # minimal false: nodes 0, 2, 3; leaf 1 contributes a(0)/a(2) = 1/3
    assert value == 3 + Fraction(1, 3)


def test_general_leaf_hits_a_zero_weight_and_refuses():
    holes = TableAttachment((1, 0), 0)
    s = CkpState()
    s.add_root(CF)
    s.add_node([0], CT)
    s.add_node([1], CF)   # node 1: leaf in the wider sense, degree 1
    with pytest.raises(NonpositiveWeight):
        potential(s, MinimalFalseLeavesGeneral(0, holes))


def test_general_anchor_must_carry_an_error():
    chain = init_chain(3, 1, CF)
    with pytest.raises(ValueError):
        potential(chain, MinimalFalseLeavesGeneral(1, PREF))
    with pytest.raises(ValueError):
        potential(chain, MinimalFalseLeavesGeneral(99, PREF))


def sampled_states(mechanism, seed, runs=6, steps=11, p=0.2, k=3):
    """Small mid-trajectory snapshots of error-seeded runs: restart a
    short run per subseed and keep every state still carrying an
    error."""
    seen = []
    for sub in range(runs):
        eng = PyEngine(feats(mechanism, p, k), single_cf(),
                       SimChooser(seed * 101 + sub))
        for _ in range(steps):
            eng.step()
            if eng.pt_false and len(eng.state.labels) <= 12:
                seen.append(eng.state.copy())
    return seen


def test_min_distance_is_at_least_the_pt_false_count_on_sampled_states():
    # with a(0) >= 1 and nondecreasing weights every term a(deg) * c**dist
    # is at least one, so the sum is at least the number of terms
    checked = 0
    for mech, seed in (("exhaustive-bfs", 3), ("stringy", 5), ("bfs", 8),
                       ("parentwise-bfs", 13), ("complete", 21)):
        for st in sampled_states(mech, seed):
            count = len(pt_false_distances(st))
            for attach in (PREF, uniform()):
                assert potential(st, MinDistance(attach, 3)) >= count
            checked += 1
    assert checked >= 40


# -- exact drift: hand-enumerated cases ------------------------------------

def test_drift_single_error_bfs_enumerates_two_outcomes():
    # One CF node, one new child per step.  With probability p the search
    # runs, spots the error and flags both nodes: potential 1 -> 0.  With
    # probability 1-p nothing is checked: the origin's degree rises
    # (weight 1 -> 2) and the child sits at distance 1 (weight 1, factor
    # 3), so the potential climbs 1 -> 5.  Expectation: -p + 4(1-p).
    for p in (Fraction(1, 2), Fraction(9, 10), Fraction(1, 5)):
        r = exact_drift(single_cf(), feats("bfs", p), MinDistance(PREF, 3))
        assert r.exact
        assert r.value == 4 - 5 * p
        assert r.leaf_count == 2
    assert exact_drift(single_cf(), feats("bfs", Fraction(4, 5)),
                       MinDistance(PREF, 3)).sign == "zero"


def test_drift_single_error_same_for_every_per_edge_mechanism():
    # with one parent edge the three per-edge searches coincide here
    p = Fraction(2, 3)
    for mech in ("exhaustive-bfs", "parentwise-bfs", "complete"):
        r = exact_drift(single_cf(), feats(mech, p), MinDistance(PREF, 3))
        assert r.value == 4 - 5 * p, mech


def test_drift_noisy_detection_folds_into_the_check_probability():
    # an undetected error leaves the search empty-handed, which is
    # indistinguishable from no check: the drift is 4 - 5*p*p_e
    for p, pe in ((Fraction(1, 2), Fraction(1, 2)),
                  (Fraction(9, 10), Fraction(1, 3))):
        r = exact_drift(single_cf(), feats("bfs", p, detection_rate=pe),
                        MinDistance(PREF, 3))
        assert r.value == 4 - 5 * p * pe
        assert r.leaf_count == 3


def test_drift_three_parent_edges_exhaustive():
    # all edges land on the origin; each edge flips its own check coin
    # and the first success flags everything, so the miss probability is
    # (1-p)^3: drift = -1 + 7(1-p)^3 (no-check rise: degree 0 -> 3 gives
    # +3, child at distance 1 gives +3)
    for p in (Fraction(4, 5), Fraction(1, 3)):
        r = exact_drift(single_cf(), feats("exhaustive-bfs", p, k=3, m=3),
                        MinDistance(PREF, 3))
        assert r.value == -1 + 7 * (1 - p) ** 3
        assert r.leaf_count == 4


def test_drift_mixed_parent_count_law():
    # fair mix of one and three edges; the whole-state search flips one
    # coin either way: drift = (4-5p)/2 + (6-7p)/2 = 5 - 6p
    law = ParentCountLaw({1: Fraction(1, 2), 3: Fraction(1, 2)})
    p = Fraction(1, 3)
    f = Features(attach=PREF, parent_count=law, check_rate=p,
                 check_depth=2, mechanism="bfs")
    r = exact_drift(single_cf(), f, MinDistance(PREF, 3))
    assert r.value == 5 - 6 * p


def test_drift_survival_count_under_the_walk_check():
    # minimal false count stays 1 and the new frontier node either joins
    # the count (+1) or the walk flags everything (-1): drift 1 - 2p
    for p in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 5)):
        r = exact_drift(single_cf(), feats("stringy", p, k=3),
                        MinimalFalseLeavesSimple())
        assert r.value == 1 - 2 * p
    assert exact_drift(single_cf(), feats("stringy", Fraction(1, 2), k=3),
                       MinimalFalseLeavesSimple()).sign == "zero"


def test_drift_zero_without_hidden_errors():
    s = CkpState()
    s.add_root(CT)
    for kind in (MinDistance(PREF, 3), MinimalFalse(),
                 MinimalFalseLeavesSimple()):
        r = exact_drift(s, feats("bfs", Fraction(1, 2)), kind)
        assert r.value == 0
        assert r.sign == "zero"


def test_drift_float_check_rate_is_decided_at_its_binary_value():
    # the drift 4 - 5p is zero at p = 4/5, and the float 0.8 lies 4.4e-17
    # above 4/5: taken at that value, the drift is decided negative
    r = exact_drift(single_cf(), feats("bfs", 0.8), MinDistance(PREF, 3))
    assert r.exact
    assert r.value == 4 - 5 * Fraction(0.8)
    assert r.sign == "negative"
    r = exact_drift(single_cf(), feats("bfs", 0.9), MinDistance(PREF, 3))
    assert (r.value, r.sign) == (4 - 5 * Fraction(0.9), "negative")


def pinned_drift_features() -> Features:
    law = ParentCountLaw({1: Fraction(1, 2), 2: Fraction(1, 4),
                          3: Fraction(1, 4)})
    return Features(PREF, law, Fraction(1, 2), 3, "bfs",
                    detection_rate=Fraction(4, 5))


def test_drift_pinned_on_a_five_node_chain():
    # the value this enumerator has always returned on this input
    chain = init_chain(5, 1, CF)
    r = exact_drift(chain, pinned_drift_features(), MinDistance(PREF, 3))
    assert r.exact
    assert type(r.value) is Fraction
    assert r.value == Fraction(18443, 1620)
    assert r.leaf_count == 451


def test_drift_pinned_on_the_twelve_node_cap_chain():
    # the benchmark's drift input: a 12-node CF chain
    chain = init_chain(12, 1, CF)
    r = exact_drift(chain, pinned_drift_features(), MinDistance(PREF, 3))
    assert r.exact
    assert r.value == Fraction(125703471, 48668)
    assert r.leaf_count == 4833


def test_drift_pinned_for_the_count_potentials():
    # the values and leaf counts the enumerator returned when it
    # recomputed these potentials on every leaf
    chain = init_chain(5, 1, CF)
    for kind, value in ((MinimalFalse(), Fraction(-17, 1215)),
                        (MinimalFalseLeavesSimple(), Fraction(1654, 3645)),
                        (MinimalFalseLeavesGeneral(0, PREF),
                         Fraction(1756, 3645))):
        r = exact_drift(chain, pinned_drift_features(), kind)
        assert (r.value, r.leaf_count) == (value, 451), kind


def test_drift_pinned_with_new_errors():
    # at epsilon > 0 a move's label is a coin, so moves with the same
    # parents and marking but another label score apart; the values the
    # enumerator returned when it scored every move on its own
    f = replace(pinned_drift_features(), error_rate=Fraction(1, 10))
    chain = init_chain(5, 1, CF)
    for kind, value in ((MinDistance(PREF, 3), Fraction(37649, 3375)),
                        (MinimalFalseLeavesSimple(), Fraction(40357, 91125))):
        r = exact_drift(chain, f, kind)
        assert (r.value, r.leaf_count) == (value, 1057), kind


# (mechanism, drift, leaves, the same two with RandomPt at rate 1/4 and
# budget 2) at epsilon = 1/10 on the five-node chain: the values the
# enumerator returned before its replay chooser kept its option tables
# in ints
MECHANISM_PINS = (
    ("stringy", Fraction(7883, 375), 1841,
     Fraction(15773, 500), 1891),
    ("bfs", Fraction(37649, 3375), 1057,
     Fraction(108659, 4500), 1107),
    ("exhaustive-bfs", Fraction(-3663559, 1687500), 4321,
     Fraction(31841441, 2250000), 4371),
    ("parentwise-bfs", Fraction(-230694971, 75937500), 8553,
     Fraction(1367030029, 101250000), 8603),
    ("complete", Fraction(-555535867, 75937500), 12102,
     Fraction(1042189133, 101250000), 12152),
)


@pytest.mark.parametrize("adversary", [False, True])
@pytest.mark.parametrize("pin", MECHANISM_PINS, ids=lambda pin: pin[0])
def test_drift_pinned_for_every_mechanism(pin, adversary):
    mechanism, value, leaves, adv_value, adv_leaves = pin
    f = replace(pinned_drift_features(), mechanism=mechanism,
                error_rate=Fraction(1, 10))
    if adversary:
        f = replace(f, adversary_rate=Fraction(1, 4), adversary_budget=2)
        assert f.adversary == RandomPt()
        value, leaves = adv_value, adv_leaves
    r = exact_drift(init_chain(5, 1, CF), f, MinDistance(PREF, 3))
    assert (r.value, r.leaf_count) == (value, leaves)


@pytest.mark.parametrize("n", [5, 12])
def test_float_drift_is_within_a_rounding_of_the_exact_drift(n):
    # the pinned features typed as floats: all are dyadic but 0.8, which
    # enters at its binary value, 4.4e-17 above 4/5.  The drift is still
    # a Fraction over the same leaves, and it moves by at most 1.1e-15
    # of itself (MinDistance on the cap chain)
    law = ParentCountLaw({1: 0.5, 2: 0.25, 3: 0.25})
    typed = Features(PREF, law, 0.5, 3, "bfs", detection_rate=0.8)
    chain = init_chain(n, 1, CF)
    for kind in (MinDistance(PREF, 3), MinimalFalse(),
                 MinimalFalseLeavesSimple()):
        exact = exact_drift(chain, pinned_drift_features(), kind)
        binary = exact_drift(chain, typed, kind)
        assert type(binary.value) is Fraction, kind
        assert binary.leaf_count == exact.leaf_count, kind
        if exact.value:     # each nonzero drift here depends on 0.8
            assert binary.value != exact.value, kind
        error = abs(binary.value - exact.value)
        assert error <= Fraction(1e-14) * abs(exact.value), kind


def counter(counts):
    """``counted(name, fn)``: ``fn``, counting its calls in
    ``counts[name]``."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return counted


def test_each_move_scores_each_distinct_marking_once(monkeypatch):
    # every move and every check leaf is one run, so no run is spent on
    # an inner node of the decision tree; and there is one score per
    # parent multiset, label and marking, so moves that only order their
    # parents differently share theirs.  The marked nodes other than the
    # move's own node recur across moves, and each distinct nonempty set
    # of them has its distances propagated once per call
    counts = {"run_check": 0, "draw_move": 0, "_marking": 0}
    counted = counter(counts)
    monkeypatch.setattr(checking, "run_check",
                        counted("run_check", checking.run_check))
    monkeypatch.setattr(potentials, "draw_move",
                        counted("draw_move", potentials.draw_move))
    monkeypatch.setattr(potentials, "_marking",
                        counted("_marking", potentials._marking))
    scores = []
    real = potentials._step_delta

    def spy(state, kind, base, v, marked):
        scores.append((tuple(sorted(state.parents[v])), state.labels[v],
                       frozenset(marked)))
        return real(state, kind, base, v, marked)
    monkeypatch.setattr(potentials, "_step_delta", spy)
    for n, checks, moves, n_scores, parts in ((12, 4833, 1884, 728, 9),
                                              (5, 451, 155, 113, 5)):
        counts.update(run_check=0, draw_move=0, _marking=0)
        scores.clear()
        r = exact_drift(init_chain(n, 1, CF), pinned_drift_features(),
                        MinDistance(PREF, 3))
        assert r.leaf_count == checks
        assert counts == {"run_check": checks, "draw_move": moves,
                          "_marking": parts}, n
        assert len(scores) == len(set(scores)) == n_scores, n
        shed = {marked - {n} for _, _, marked in scores}
        assert len(shed - {frozenset()}) == parts, n
        # one empty marking per move: the check coin can always fail
        assert sum(1 for _, _, marked in scores if not marked) == len(
            {(parents, label) for parents, label, _ in scores}), n


COIN_A, COIN_B = Fraction(1, 3), Fraction(2, 5)
LAW3 = ParentCountLaw({1: Fraction(1, 6), 2: Fraction(1, 2),
                       3: Fraction(1, 3)})


def two_coins_and_a_law(chooser):
    if chooser.maybe(COIN_A):
        return (True, chooser.pmf_index(LAW3))
    if chooser.maybe(COIN_B):
        return (False, True, chooser.pmf_index(LAW3))
    return (False, False)


def two_coins_and_a_law_mass(outcome):
    law = [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]
    if outcome[0]:
        return COIN_A * law[outcome[1]]
    if outcome[1]:
        return (1 - COIN_A) * COIN_B * law[outcome[2]]
    return (1 - COIN_A) * (1 - COIN_B)


def test_outcomes_carry_integer_path_weights():
    leaves = outcomes(two_coins_and_a_law, PathChooser())
    assert len({outcome for outcome, _, _ in leaves}) == len(leaves) == 7
    total = Fraction(0)
    for outcome, num, den in leaves:
        assert type(num) is int and type(den) is int
        assert Fraction(num, den) == two_coins_and_a_law_mass(outcome)
        total += Fraction(num, den)
    assert total == 1


def test_both_oracles_refuse_bad_input_by_name():
    f = Features(PREF, ParentCountLaw.const(1), Fraction(1, 2), 2, "bfs")
    chain = init_chain(3, 1, CF)
    for anchor, message in ((1, "does not carry"), (99, "out of range"),
                            (-1, "out of range")):
        kind = MinimalFalseLeavesGeneral(anchor, PREF)
        with pytest.raises(ValueError, match=message):
            exact_drift(chain, f, kind)
        with pytest.raises(ValueError, match=message):
            mc_drift(chain, f, kind, 10, 1)
    # a CF origin with one CT leaf of degree 0, weight a(0) = 1: every
    # new node lands on the leaf, and a CF one keeps it a leaf in the
    # wider sense at degree 1, where the weight is 0
    holes = TableAttachment((1, 0), 0)
    s = single_cf()
    s.add_node([0], CT)
    kind = MinimalFalseLeavesGeneral(0, holes)
    assert potential(s, kind) == 2
    f = Features(holes, ParentCountLaw.const(1), Fraction(1, 2), 2, "bfs",
                 error_rate=Fraction(1, 2))
    with pytest.raises(NonpositiveWeight, match="leaf 1"):
        exact_drift(s, f, kind)
    with pytest.raises(NonpositiveWeight, match="leaf 1"):
        mc_drift(s, f, kind, 50, 1)


def test_no_leaf_or_sample_copies_the_state_or_recomputes_the_potential(
        monkeypatch):
    counts = {"copy": 0, "mark_pf": 0, "potential": 0}
    counted = counter(counts)
    monkeypatch.setattr(CkpState, "copy", counted("copy", CkpState.copy))
    monkeypatch.setattr(CkpState, "mark_pf",
                        counted("mark_pf", CkpState.mark_pf))
    monkeypatch.setattr(potentials, "potential",
                        counted("potential", potentials.potential))
    r = exact_drift(init_chain(12, 1, CF), pinned_drift_features(),
                    MinDistance(PREF, 3))
    assert r.leaf_count == 4833
    assert counts == {"copy": 0, "mark_pf": 0, "potential": 0}
    # the sampler works on the caller's state itself
    counts.update(copy=0, potential=0)
    f = feats("exhaustive-bfs", 0.7, k=3)
    est = mc_drift(init_chain(12, 1, CF), f, MinimalFalseLeavesSimple(),
                   400, 3)
    assert est.se > 0
    assert counts == {"copy": 0, "mark_pf": 0, "potential": 1}


def test_exact_drift_refuses_a_state_that_breaks_the_truth_rule():
    # a CF root over a CT child whose hidden error was cleared by hand:
    # the check enumeration would skip the walk from the child, so the
    # enumeration is refused, as the engine refuses the state
    s = single_cf()
    s.add_node([0], CT)
    s.is_false[1] = False
    f = feats("bfs", Fraction(1, 2))
    message = "node 1 descends from a False node but is True"
    with pytest.raises(StateError, match=message):
        exact_drift(s, f, MinDistance(PREF, 3))
    with pytest.raises(StateError, match=message):
        PyEngine(f, s, SimChooser(1))


def test_exact_drift_needs_a_law_that_sums_to_one_exactly():
    # 0.1 and 0.9 sum to one in floats, not as binary fractions
    law = ParentCountLaw({1: 0.1, 2: 0.9})
    assert Fraction(0.1) + Fraction(0.9) != 1
    f = Features(PREF, law, check_rate=Fraction(1, 2), check_depth=2,
                 mechanism="bfs")
    with pytest.raises(ValueError, match="do not sum to one exactly"):
        exact_drift(single_cf(), f, MinDistance(PREF, 3))


def binary_fractions(f: Features, kind):
    """``f`` and ``kind`` with every float replaced by ``Fraction(float)``."""
    def frac(x):
        return Fraction(x) if isinstance(x, float) else x

    attach = TableAttachment(tuple(map(frac, f.attach.values)),
                             frac(f.attach.tail_slope))
    law = ParentCountLaw({m: frac(p) for m, p in
                          zip(f.parent_count.support, f.parent_count.probs)})
    g = Features(attach, law, frac(f.check_rate), f.check_depth, f.mechanism,
                 error_rate=frac(f.error_rate),
                 detection_rate=frac(f.detection_rate))
    if isinstance(kind, MinDistance):
        kind = MinDistance(attach, frac(kind.c))
    elif isinstance(kind, MinimalFalseLeavesGeneral):
        kind = MinimalFalseLeavesGeneral(kind.anchor, attach)
    return g, kind


def test_float_features_drift_as_their_binary_fractions_on_sampled_states():
    attach = TableAttachment((0.5,), 1.3)
    f = Features(attach, ParentCountLaw({1: 0.75, 2: 0.25}), 0.9, 3,
                 "exhaustive-bfs", error_rate=0.1, detection_rate=0.7)
    kinds = (MinDistance(attach, 2.5), MinimalFalse(),
             MinimalFalseLeavesSimple(), MinimalFalseLeavesGeneral(0, attach))
    states = sampled_states("exhaustive-bfs", 17, steps=25)[:3]
    assert len(states) == 3
    for st in states:
        for kind in kinds:
            r = exact_drift(st, f, kind)
            want = exact_drift(st, *binary_fractions(f, kind))
            assert type(r.value) is Fraction
            assert (r.value, r.leaf_count) == (want.value, want.leaf_count)


def test_drift_enumerates_a_fractional_power_at_the_engines_weights():
    # (d+1)**1.5 has no rational value; the enumeration takes the float
    # weight the engine draws with, at its binary value
    attach = PowerShifted(1, 1.5)
    f = Features(attach, ParentCountLaw.const(1), Fraction(1, 2), 2, "bfs")
    chain = init_chain(4, 1, CF)
    kind = MinDistance(attach, 3)
    r = exact_drift(chain, f, kind)
    assert type(r.value) is Fraction
    est = mc_drift(chain, f, kind, 20_000, 9)
    assert abs(est.mean - float(r.value)) <= 5 * est.se


# -- the step scorer against the whole potential --------------------------

class StepSpy:
    """Stands in for ``potentials._step_delta`` and checks every call
    against ``potential(after) - potential(before)``: ``before`` is the
    state without the step's node, ``after`` a copy with the marking
    applied.  The scorer's answer must equal that difference exactly.

    Counts the calls, the calls that mark, and the calls that move a
    PT False distance."""

    def __init__(self, mp):
        self.real = potentials._step_delta
        self.calls = self.marking = self.moved = 0
        self.before = None      # the current oracle call's base and view
        mp.setattr(potentials, "_step_delta", self)

    def __call__(self, state, kind, base, v, marked):
        got = self.real(state, kind, base, v, marked)
        if self.before is None or self.before[0] is not base:
            prior = state.copy()
            prior.pop_last_node()
            self.before = (base, potential(prior, kind),
                           pt_false_distances(prior))
        _, phi_before, dist = self.before
        after = state.copy()
        after.mark_pf(marked)
        assert got == potential(after, kind) - phi_before
        self.calls += 1
        self.marking += bool(marked)
        new = pt_false_distances(after)
        self.moved += any(new[w] != d for w, d in dist.items() if w in new)
        return got


@pytest.mark.parametrize("kind", KINDS, ids=["integral", "fractional"])
def test_step_delta_splits_the_marking_from_the_move(kind):
    """The three cases the move's part of a MinDistance score treats
    apart, on the chain 0 (CF) - 1 - 2 - 3, each held to the whole
    potential: the new node ``v`` marked with node 3; ``v`` unmarked
    below the marked node 3, so minimal itself; and a CF ``v`` while
    node 1 is marked, which moves 2 and 3 up.  A marking scored again
    on the call's warm base, whose memo the first two cases share, gives
    what a fresh base gives."""
    prior = init_chain(4, 1, CF)
    phi = potential(prior, kind)
    warm = potentials._step_base(prior, kind, _label_bytes(prior))
    for parents, label, marked in (([2, 3], CT, {3, 4}),
                                   ([1, 3, 3], CT, {3}),
                                   ([2], CF, {1})):
        state = prior.copy()
        v = state.add_node(parents, label)
        after = state.copy()
        after.mark_pf(marked)
        want = potential(after, kind) - phi
        for _ in range(2):
            assert potentials._step_delta(state, kind, warm, v,
                                          marked) == want, marked
        fresh = potentials._step_base(prior, kind, _label_bytes(prior))
        assert potentials._step_delta(state, kind, fresh, v,
                                      marked) == want, marked
    assert set(warm.marks) == {frozenset({3}), frozenset({1})}


@st.composite
def grown_steps(draw, errors=(0, Fraction(1, 10)),
                adversaries=(None, RandomPt(), DeepAttach(), LeafAttach())):
    """A small state grown by the engine, with the features to step it:
    any mechanism, an error rate from ``errors`` and an adversary from
    ``adversaries`` (None for none)."""
    eps = draw(st.sampled_from(errors))
    adversary = draw(st.sampled_from(adversaries))
    f = Features(PREF, ParentCountLaw({1: Fraction(1, 2), 2: Fraction(1, 2)}),
                 check_rate=Fraction(1, 2),
                 check_depth=draw(st.integers(2, 3)),
                 mechanism=draw(st.sampled_from(MECHANISMS)),
                 error_rate=eps, detection_rate=Fraction(4, 5),
                 adversary_budget=2)
    if adversary is not None:
        f = replace(f, adversary_rate=Fraction(1, 4), adversary=adversary)
    root = draw(st.sampled_from((CF, CT))) if eps else CF
    eng = PyEngine(f, init_chain(2, 1, root),
                   SimChooser(draw(st.integers(0, 2**32 - 1))))
    for _ in range(draw(st.integers(0, 10))):
        if eng.stopped or len(eng.state.pt_ids()) >= 7:
            break
        eng.step()
    return eng.state, f


def spied_kind(name, state):
    if name != "leaves-general":
        return {"min-distance": KINDS[0], "min-distance-affine": KINDS[1],
                "minimal-false": MinimalFalse(),
                "leaves-simple": MinimalFalseLeavesSimple()}[name]
    origins = [w for w in range(len(state.labels))
               if state.labels[w] != CT and state.is_false[w]]
    return MinimalFalseLeavesGeneral(origins[0], PREF) if origins else None


@pytest.mark.parametrize("name", ["min-distance", "min-distance-affine",
                                  "minimal-false", "leaves-simple",
                                  "leaves-general"])
@given(grown_steps(), st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_step_delta_matches_the_whole_potential(name, case, seed):
    """Every leaf of exact_drift and every sample of mc_drift."""
    state, f = case
    kind = spied_kind(name, state)
    if kind is None:            # no error for the scoped potential to hang on
        return
    with pytest.MonkeyPatch.context() as mp:
        spy = StepSpy(mp)
        r = exact_drift(state, f, kind)
        assert spy.calls <= r.leaf_count
        mc_drift(state, f, kind, 20, seed)


@st.composite
def reordered_steps(draw):
    """A state grown with new errors and a RandomPt adversary, so from a
    CT or CF root; its features; and a step on it with at least two
    parent edges: an adversarial RandomPt move, or a growth move on drawn
    parents and label, as ``(parents, label, adversarial)``."""
    prior, f = draw(grown_steps(errors=(Fraction(1, 10),),
                                adversaries=(RandomPt(),)))
    pt = prior.pt_ids()
    assume(pt)                  # a step needs a PT node to attach below
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        parents, label = RandomPt().move(prior, f, SimChooser(seed))
        return prior, f, parents, label, True
    parents = draw(st.lists(st.sampled_from(pt), min_size=2, max_size=3))
    return prior, f, parents, draw(st.sampled_from((CT, CF))), False


@pytest.mark.parametrize("name", ["min-distance", "min-distance-affine",
                                  "minimal-false", "leaves-simple",
                                  "leaves-general"])
@given(reordered_steps(), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_step_delta_reads_the_parents_as_a_multiset(name, case, seed):
    """What lets exact_drift score each parent multiset once: the state
    with the step's node and the score are the same for every order of
    its parent edges."""
    prior, f, parents, label, adversarial = case
    kind = spied_kind(name, prior)
    if kind is None:            # no error for the scoped potential to hang on
        return
    base = potentials._step_base(prior, kind, _label_bytes(prior))
    state = prior.copy()
    v = state.add_node(parents, label)
    # a certain check and detection, so that most growth steps mark
    marked = set() if adversarial else checking.run_check(
        f.mechanism, state, v, f.check_depth, 1, 1, SimChooser(seed)).marked
    want = potentials._step_delta(state, kind, base, v, marked)
    for order in set(itertools.permutations(parents)):
        state.pop_last_node()
        state.add_node(order, label)
        got = potentials._step_delta(state, kind, base, v, marked)
        assert got == want, order


def test_mc_drift_samples_meet_the_coverage_floors():
    """States grown under light checking, so they stay alive, then
    sampled under heavier checking and an unchecked adversary, so steps
    mark and move distances: every sample passes the spy, and enough of
    them reach both halves of the distance delta."""
    with pytest.MonkeyPatch.context() as mp:
        spy = StepSpy(mp)
        for mech, kind, eps, seed in itertools.product(MECHANISMS, KINDS,
                                                       (0, 0.1), range(3)):
            grow = Features(kind.attach, LAW, check_rate=0.1, check_depth=3,
                            mechanism=mech, error_rate=eps,
                            detection_rate=0.8)
            root = CF if eps == 0 or seed == 2 else CT
            eng = PyEngine(grow, init_chain(3, 1, root), SimChooser(seed))
            for _ in range(40):
                eng.step()
            step = Features(kind.attach, LAW, check_rate=0.6, check_depth=3,
                            mechanism=mech, error_rate=eps,
                            detection_rate=0.8, adversary_rate=1 / 3,
                            adversary_budget=2)
            mc_drift(eng.state, step, kind, 30, 100 + seed)
    assert spy.calls == 1800
    assert spy.marking >= 400 and spy.moved >= 300, (spy.marking, spy.moved)


# -- exact drift: adversaries and caps -------------------------------------

def adversarial_feats(q=Fraction(1, 2)) -> Features:
    return Features(attach=PREF, parent_count=ParentCountLaw.const(1),
                    check_rate=Fraction(1, 2), check_depth=2,
                    mechanism="bfs", adversary_rate=q, adversary_budget=1)


def test_drift_with_a_scripted_adversary():
    # the scripted move hangs a CT child on the origin without a check:
    # the same +4 rise as an unchecked growth step
    f = replace(adversarial_feats(), adversary=Scripted((0,), CT))
    r = exact_drift(single_cf(), f, MinDistance(PREF, 3))
    assert r.value == Fraction(1, 2) * 4 + Fraction(1, 2) * (4 - 5 * Fraction(1, 2))


def test_drift_leaves_the_callers_state_and_adversary_alone(monkeypatch):
    # a grown state with PF nodes, a check that marks, and a scripted
    # adversary that every replay plays
    law = ParentCountLaw({1: Fraction(1, 2), 2: Fraction(1, 2)})
    f = Features(PREF, law, check_rate=Fraction(3, 5), check_depth=3,
                 mechanism="complete", error_rate=Fraction(1, 10),
                 adversary_rate=Fraction(1, 5), adversary_budget=2)
    eng = PyEngine(f, init_chain(3, 1, CF), SimChooser(6))
    while eng.state.pf_total == 0 or len(eng.state.pt_ids()) < 4:
        eng.step()
    grown = eng.state
    assert (len(grown.labels), grown.pf_total) == (6, 2)
    target = grown.pt_ids()[0]
    f = replace(f, adversary=Scripted((target, target), CF))
    before = snapshot(grown)
    r = exact_drift(grown, f, MinDistance(PREF, 3))
    assert r.leaf_count > 100
    assert snapshot(grown) == before
    # a check that raises partway through the enumeration, with the
    # enumeration's node on the caller's state
    real_run_check = checking.run_check
    calls = []

    def failing_run_check(mechanism, state, v, *args):
        calls.append(v)
        assert state is grown
        if len(calls) == 40:
            raise RuntimeError("check failed mid-enumeration")
        return real_run_check(mechanism, state, v, *args)

    monkeypatch.setattr(checking, "run_check", failing_run_check)
    with pytest.raises(RuntimeError, match="mid-enumeration"):
        exact_drift(grown, f, MinDistance(PREF, 3))
    assert len(calls) == 40
    assert snapshot(grown) == before


def test_drift_enumerates_a_randomized_adversary():
    # RandomPt's two uniform picks and its label coin are enumerated like
    # the step's own decisions: 16 parent pairs times 2 labels, plus 4
    # parents times 2 check outcomes on the growth branch
    f = Features(PREF, ParentCountLaw.const(1), check_rate=Fraction(1, 2),
                 check_depth=2, mechanism="bfs",
                 adversary_rate=Fraction(1, 4), adversary_budget=2)
    chain = init_chain(4, 1, CF)
    assert f.adversary == RandomPt()
    r = exact_drift(chain, f, MinDistance(PREF, 3))
    assert r.value == Fraction(605, 32)
    assert r.leaf_count == 40
    est = mc_drift(chain, f, MinDistance(PREF, 3), 20_000, 5)
    assert abs(est.mean - float(r.value)) <= 5 * est.se


def test_drift_refuses_too_many_moves_before_enumerating(monkeypatch):
    def no_checks(*args):
        raise AssertionError("the enumeration started")
    monkeypatch.setattr(checking, "run_check", no_checks)
    chain = init_chain(12, 1, CF)
    # 12**7 ordered parent tuples, about 23 minutes of leaves
    wide = Features(PREF, ParentCountLaw.const(7), Fraction(1, 2), 3, "bfs")
    with pytest.raises(BranchBudgetExceeded, match=f"least {12**7} moves"):
        exact_drift(chain, wide, MinDistance(PREF, 3))
    # 12 growth moves, and RandomPt's 12**7 parent tuples times 2 labels
    adversarial = Features(PREF, ParentCountLaw.const(1), Fraction(1, 2), 3,
                           "bfs", adversary_rate=Fraction(1, 4),
                           adversary_budget=7)
    with pytest.raises(BranchBudgetExceeded,
                       match=f"least {12 + 2 * 12**7} moves"):
        exact_drift(chain, adversarial, MinDistance(PREF, 3))
    # the pinned five-node chain makes 5 + 5**2 + 5**3 moves, 451 leaves
    with pytest.raises(BranchBudgetExceeded, match="least 155 moves"):
        exact_drift(init_chain(5, 1, CF), pinned_drift_features(),
                    MinDistance(PREF, 3), leaf_cap=154)


@pytest.mark.parametrize("cap, runs", [(450, 451), (300, 301), (451, None)])
def test_drift_leaf_cap_bites_at_the_first_leaf_past_it(monkeypatch, cap,
                                                        runs):
    # the pinned five-node chain: 155 moves, every leaf a check leaf, so
    # the check run that makes leaf cap + 1 is the last one
    calls = []
    run_check = checking.run_check

    def spy(*args):
        calls.append(None)
        return run_check(*args)
    monkeypatch.setattr(checking, "run_check", spy)
    chain = init_chain(5, 1, CF)
    if runs is None:
        r = exact_drift(chain, pinned_drift_features(), MinDistance(PREF, 3),
                        leaf_cap=cap)
        assert (r.value, r.leaf_count, len(calls)) == (
            Fraction(18443, 1620), 451, 451)
        return
    with pytest.raises(BranchBudgetExceeded,
                       match=f"outcome tree exceeded {cap} leaves"):
        exact_drift(chain, pinned_drift_features(), MinDistance(PREF, 3),
                    leaf_cap=cap)
    assert len(calls) == runs


def test_drift_leaf_cap_bites_on_an_unchecked_leaf():
    # a(0) = 0, so the lone CF node has no weight and a growth step
    # stops: 2 RandomPt moves (one pick, two labels), the only moves
    # counted, then the stopped leaf, the third and unchecked
    f = Features(TableAttachment((0,), 1), ParentCountLaw.const(1),
                 check_rate=Fraction(1, 2), check_depth=2, mechanism="bfs",
                 adversary_rate=Fraction(1, 4), adversary_budget=1)
    state = single_cf()
    text = dump_state(state)
    assert exact_drift(state, f, MinDistance(PREF, 3)).leaf_count == 3
    with pytest.raises(BranchBudgetExceeded) as err:
        exact_drift(state, f, MinDistance(PREF, 3), leaf_cap=2)
    assert err.type is BranchBudgetExceeded
    assert str(err.value) == "outcome tree exceeded 2 leaves"
    assert dump_state(state) == text


def test_drift_bounds_other_adversaries_by_the_leaf_cap_alone(monkeypatch):
    """Only a RandomPt by its exact type has its moves counted up
    front.  A subclass plays the same law, 3 growth moves and 3**2
    parent tuples times 2 labels, so 24 leaves, but only the growth
    moves are counted: at a cap of 20 it is refused at the 21st leaf,
    and the caller's state is restored."""
    made = []

    class Playback(RandomPt):
        def move(self, state, features, chooser):
            made.append("adversary")
            return super().move(state, features, chooser)

    def adversarial(adversary):
        return Features(PREF, ParentCountLaw.const(1), Fraction(1, 2), 3,
                        "bfs", adversary_rate=Fraction(1, 4),
                        adversary_budget=2, adversary=adversary)

    chain = init_chain(3, 1, CF)
    kind = MinDistance(PREF, 3)
    with pytest.raises(BranchBudgetExceeded, match="least 21 moves"):
        exact_drift(chain, adversarial(RandomPt()), kind, leaf_cap=20)
    whole = exact_drift(chain, adversarial(Playback()), kind)
    assert whole == exact_drift(chain, adversarial(RandomPt()), kind)
    assert whole.leaf_count == 24
    real = checking.run_check

    def counted(*args):
        made.append("check")
        return real(*args)

    monkeypatch.setattr(checking, "run_check", counted)
    made.clear()
    text = dump_state(chain)
    with pytest.raises(BranchBudgetExceeded) as err:
        exact_drift(chain, adversarial(Playback()), kind, leaf_cap=20)
    assert err.type is BranchBudgetExceeded
    assert str(err.value) == "outcome tree exceeded 20 leaves"
    assert len(made) == 21              # each move and check run a leaf
    assert dump_state(chain) == text


def test_drift_refuses_outcomes_whose_mass_misses_one(monkeypatch):
    # each move's open fork to a CT label is dropped, so only the CF
    # moves' mass, 1/4, is enumerated; the caller's state is restored
    draw_move = potentials.draw_move

    def dropping(state, features, chooser, pool):
        move = draw_move(state, features, chooser, pool)
        del chooser.forks[-1:]
        return move
    monkeypatch.setattr(potentials, "draw_move", dropping)
    state = init_chain(3, 1, CF)
    text = dump_state(state)
    with pytest.raises(AuditViolation) as err:
        exact_drift(state, feats("bfs", Fraction(1, 2), m=1,
                                 error_rate=Fraction(1, 4)),
                    MinDistance(PREF, 3))
    assert err.type is AuditViolation
    assert str(err.value) == "outcome probabilities sum to 1/4, not 1"
    assert dump_state(state) == text


@pytest.mark.parametrize("cap", [True, False, 2.5, 10.0, "10", None, 0, -3])
def test_drift_refuses_a_leaf_cap_that_is_not_a_positive_integer(cap):
    # a bool or a float would run as a cap, and a string or None fail in
    # a comparison with a message that does not name the argument
    with pytest.raises(ValueError,
                       match=f"leaf_cap must be a positive integer, "
                             f"got {re.escape(repr(cap))}"):
        exact_drift(single_cf(), feats("bfs", Fraction(1, 2)),
                    MinDistance(PREF, 3), leaf_cap=cap)


def test_drift_enumeration_caps():
    with pytest.raises(BranchBudgetExceeded):
        exact_drift(single_cf(), feats("bfs", Fraction(1, 2)),
                    MinDistance(PREF, 3), leaf_cap=1)
    # no cap on the PT nodes: only the moves and leaves are bounded
    r = exact_drift(init_chain(15, 1, CF), feats("bfs", Fraction(1, 2)),
                    MinDistance(PREF, 3))
    assert isinstance(r, DriftResult)


# -- Monte Carlo -----------------------------------------------------------

def test_mc_drift_degenerate_without_checks():
    # p = 0 and a single possible parent: every sample is the same +4
    est = mc_drift(single_cf(), feats("bfs", 0.0), MinDistance(PREF, 3),
                   500, 7)
    assert est.mean == 4.0
    assert est.se == 0.0


def test_mc_drift_stops_every_sample_on_an_all_pf_state():
    # no weight is positive, so the pool is empty and every sample is
    # "stopped": a zero change, and no uniform drawn
    s = init_chain(3, 1, CF)
    s.mark_pf([0, 1, 2])
    gen = make_generator(5)
    est = mc_drift(s, feats("bfs", 0.5), MinDistance(PREF, 3), 50, gen)
    assert est == DriftEstimate(0.0, 0.0, 50)
    assert gen.random() == make_generator(5).random()


def test_mc_drift_matches_the_oracle():
    est = mc_drift(single_cf(), feats("bfs", 0.5), MinDistance(PREF, 3),
                   20_000, 11)
    assert abs(est.mean - 1.5) <= 4 * est.se + 1e-12


def test_mc_drift_seed_repeatability():
    a = mc_drift(single_cf(), feats("bfs", 0.5), MinDistance(PREF, 3),
                 2000, 42)
    b = mc_drift(single_cf(), feats("bfs", 0.5), MinDistance(PREF, 3),
                 2000, 42)
    assert (a.mean, a.se) == (b.mean, b.se)
    c = mc_drift(single_cf(), feats("bfs", 0.5), MinDistance(PREF, 3),
                 2000, make_generator(42))
    assert (c.mean, c.se) == (a.mean, a.se)


def test_a_sampled_delta_past_the_float_range_is_named():
    # with c = 10**400 every step on this chain moves a term of at least
    # c, which exact scoring holds and no float does: the first sample
    # raises by name, not a bare OverflowError, and leaves the chain be;
    # the exact drift of the same step is a plain Fraction
    chain = init_chain(2, 1, CF)
    before = snapshot(chain)
    for attach in (PREF, TableAttachment((0.5,), 1.3)):
        kind = MinDistance(attach, 10**400)
        with pytest.raises(PotentialOverflow,
                           match=r"float range holds \(sample 1\)"):
            mc_drift(chain, feats("bfs", 0.5), kind, 10, 1)
        assert snapshot(chain) == before
        r = exact_drift(chain, feats("bfs", Fraction(1, 2)), kind)
        assert r.value > 10**400


def test_mc_drift_validates_the_sample_count():
    for bad in (0, -3, True, 2.5, 2.0, "10"):
        with pytest.raises(ValueError, match="samples must be a positive"):
            mc_drift(single_cf(), feats("bfs", 0.5), MinDistance(PREF, 3),
                     bad, 1)


def test_mc_drift_rejects_a_bool_rng():
    with pytest.raises(ValueError, match="bool"):
        mc_drift(single_cf(), feats("bfs", 0.5), MinDistance(PREF, 3), 10,
                 True)


def snapshot(st: CkpState) -> tuple:
    return (dump_state(st), [list(c) for c in st.children], list(st.deg_pt),
            list(st.deg_ct), list(st.pf_parent_edges), st.pf_total)


def test_mc_drift_leaves_the_input_state_alone(monkeypatch):
    st = init_chain(4, 1, CF)
    before = snapshot(st)
    mc_drift(st, feats("exhaustive-bfs", 0.7), MinimalFalseLeavesSimple(),
             400, 3)
    assert snapshot(st) == before
    # MinDistance, on a state with PF nodes, with checks
    # that mark and with adversarial steps
    f = Features(PREF, LAW, check_rate=0.6, check_depth=3, mechanism="bfs",
                 error_rate=0.1, adversary_rate=0.2, adversary_budget=2)
    eng = PyEngine(f, init_chain(3, 1, CT), SimChooser(4))
    for _ in range(150):
        eng.step()
    grown = eng.state
    assert grown.pf_total > 0
    before = snapshot(grown)
    mc_drift(grown, f, MinDistance(PREF, 3), 400, 3)
    assert snapshot(grown) == before
    # samples run on the caller's state: a check that raises after the
    # sample's node was added must still leave the state as it was
    real_run_check = checking.run_check
    calls = []

    def failing_run_check(mechanism, state, v, *args):
        calls.append(v)
        assert v == len(state.labels) - 1      # the sample's node is in
        if len(calls) == 7:
            raise RuntimeError("check failed mid-sample")
        return real_run_check(mechanism, state, v, *args)

    monkeypatch.setattr(checking, "run_check", failing_run_check)
    for kind in (MinDistance(PREF, 3), MinimalFalseLeavesSimple()):
        calls.clear()
        with pytest.raises(RuntimeError, match="mid-sample"):
            mc_drift(grown, f, kind, 50, 5)
        assert len(calls) == 7
        assert snapshot(grown) == before


def test_mc_drift_refuses_a_broken_distance_structure_up_front(
        monkeypatch):
    # node 2 claims a hidden error that neither it (CT) nor a parent
    # (both True, neither PF) carries: the distance pass of the call's
    # set-up refuses it before any sample is drawn
    st = init_chain(3, 1, CT)
    st.is_false[2] = True
    before = snapshot(st)
    moves = []
    monkeypatch.setattr(potentials, "draw_move",
                        lambda *args: moves.append(args))
    with pytest.raises(StateError, match="no PT False parent"):
        mc_drift(st, feats("bfs", 0.5), MinDistance(PREF, 3), 10, 1)
    assert moves == []
    assert snapshot(st) == before


@pytest.mark.parametrize("column, entry, message", [
    ("is_false", np.True_, "node 1: is_false np.True_ is not a Python bool"),
    ("labels", "CT", "node 1: label 'CT' is not CT, CF or PF"),
    *(("deg_pt", entry, f"node 1: deg_pt {entry!r} is not a non-negative "
       f"64-bit integer") for entry in (1.5, "x", None, 2**70, -1)),
])
def test_mc_drift_names_the_node_whose_column_entry_it_cannot_read(
        column, entry, message):
    # the set-up reads each column with one bytes() or struct.pack call;
    # an entry that call cannot read, or a negative degree, is named by
    # its node before any sample is drawn
    st = init_chain(3, 1, CF)
    getattr(st, column)[1] = entry
    with pytest.raises(StateError) as err:
        mc_drift(st, feats("bfs", 0.5), MinDistance(PREF, 3), 10, 1)
    assert str(err.value) == message
    assert len(st.labels) == 3


# (mean, se) of mc_drift on 2000-node states grown with each mechanism,
# as this sampler has always returned them.  The terms are integer-valued
# floats, so every sum is exact and any scoring route must reproduce
# these bit for bit.
MC_PINNED = {
    "stringy": (9.995000000000003, 2.969185932246521),
    "bfs": (0.09750000000000002, 0.21768889616557036),
    "exhaustive-bfs": (0.1374999999999999, 0.21055240479013118),
    "parentwise-bfs": (0.25750000000000023, 0.4301343083072512),
    "complete": (0.2899999999999997, 0.16090985038174233),
}


# The same runs scored by the two count potentials, as the sampler gave
# them when it recomputed the potential per sample: integer deltas, so
# they hold bit for bit.
MC_PINNED_COUNTS = {
    "stringy": ((0.09250000000000007, 0.015344314744799418),
                (0.20249999999999996, 0.021907400816306717)),
    "bfs": ((0.09749999999999996, 0.01893093568248902),
            (0.10750000000000001, 0.020999089967153845)),
    "exhaustive-bfs": ((0.045000000000000054, 0.014420727911021319),
                       (0.0675, 0.018593646339826037)),
    "parentwise-bfs": ((0.065, 0.01943919251187622),
                       (0.08749999999999994, 0.020933343909133238)),
    "complete": ((0.04750000000000001, 0.019404915662782442),
                 (0.05250000000000002, 0.02292757202359734)),
}


@pytest.mark.parametrize("mech", MECHANISMS)
def test_mc_drift_pinned_on_grown_states(mech):
    f = Features(PREF, LAW, check_rate=0.5, check_depth=3, mechanism=mech,
                 error_rate=0.1, adversary_rate=0.1, adversary_budget=2,
                 detection_rate=0.8)
    eng = PyEngine(f, init_chain(5, 1, CT), SimChooser(2000))
    while len(eng.state.labels) < 2000:
        eng.step()
    est = mc_drift(eng.state, f, MinDistance(PREF, 3), 400, 7)
    assert (est.mean, est.se) == MC_PINNED[mech]
    for kind, pin in zip((MinimalFalse(), MinimalFalseLeavesSimple()),
                         MC_PINNED_COUNTS[mech]):
        est = mc_drift(eng.state, f, kind, 400, 7)
        assert (est.mean, est.se) == pin, kind


# The same runs under a(d) = 0.5 + 1.3*d, as the append-by-append index
# build gave them: fractional weights, so the engine's Fenwick index holds
# inexact float sums (the 2000-node states have crossed a regrowth), and
# mc_drift's prefix sums round apart from them.  These guard the draws
# end to end; a one-ulp change in a sum rarely moves a draw, so the
# bit-for-bit tests in test_attachment.py are what guard the float folds.
AFFINE = TableAttachment((0.5,), 1.3)
MC_PINNED_AFFINE = {
    "stringy": (0.46173437500000003, 0.11644382031035486),
    "bfs": (0.13812499999999997, 0.05536248988849882),
    "exhaustive-bfs": (0.11143750000000005, 0.05233471705529247),
    "parentwise-bfs": (0.10831250000000005, 0.04236954664989547),
    "complete": (0.08350000000000002, 0.043156680365273425),
}


@pytest.mark.parametrize("mech", MECHANISMS)
def test_mc_drift_pinned_under_fractional_weights(mech):
    f = Features(AFFINE, LAW, check_rate=0.5, check_depth=3, mechanism=mech,
                 error_rate=0.1, adversary_rate=0.1, adversary_budget=2,
                 detection_rate=0.8)
    eng = PyEngine(f, init_chain(5, 1, CT), SimChooser(2000))
    while len(eng.state.labels) < 2000:
        eng.step()
    assert eng.windex.capacity == 2048
    assert not eng.windex.total.is_integer()
    est = mc_drift(eng.state, f, MinDistance(AFFINE, 2.5), 400, 7)
    assert (est.mean, est.se) == MC_PINNED_AFFINE[mech]


def test_mc_drift_adversarial_samples_match_the_oracle():
    # DeepAttach hangs both edges on the deepest node of the chain; the
    # enumeration gives 183/4
    f = Features(PREF, ParentCountLaw.const(1), check_rate=Fraction(1, 2),
                 check_depth=2, mechanism="bfs",
                 adversary_rate=Fraction(1, 4), adversary_budget=2,
                 adversary=DeepAttach())
    chain = init_chain(4, 1, CF)
    exact = exact_drift(chain, f, MinDistance(PREF, 3))
    assert exact.value == Fraction(183, 4)
    est = mc_drift(chain, f, MinDistance(PREF, 3), 20_000, 5)
    assert abs(est.mean - float(exact.value)) <= 5 * est.se


def test_potential_refuses_an_unknown_kind():
    kind = object()
    with pytest.raises(TypeError) as err:
        potential(single_cf(), kind)
    assert err.type is TypeError
    assert str(err.value) == f"unknown potential kind {kind!r}"


# -- agreement with engine bookkeeping -------------------------------------

def test_survival_count_tracks_engine_counters_along_a_run():
    # in an error-seeded simple run every node is hidden-False, so the
    # potential equals the engine's minimal-false + leaf counters step
    # by step
    f = feats("exhaustive-bfs", 0.4, k=3)
    eng = PyEngine(f, single_cf(), SimChooser(23))
    for _ in range(120):
        eng.step()
        value = potential(eng.state, MinimalFalseLeavesSimple())
        assert value == eng.member_count[1] + eng.member_count[2]
        if eng.stopped:
            break


def test_uniform_attachment_changes_the_arithmetic_not_the_logic():
    # with flat weights the origin's degree rise is worthless: the
    # unchecked branch gains only the distance-1 child, so 3(1-p) - p
    p = Fraction(1, 2)
    f = Features(attach=uniform(), parent_count=ParentCountLaw.const(1),
                 check_rate=p, check_depth=2, mechanism="bfs")
    r = exact_drift(single_cf(), f, MinDistance(uniform(), 3))
    assert r.value == 3 * (1 - p) - p
