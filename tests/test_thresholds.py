"""Verdict predicates: proven survival, proven elimination, and the
false-fraction bound checker.

Threshold values asserted exactly here are plug-ins of the closed-form
expressions, worked out by hand in comments next to each assertion.
"""

import math
from fractions import Fraction

import pytest

from ckplab.attachment import (
    ParentCountLaw, PowerShifted, TableAttachment, preferential, uniform,
)
from ckplab.checking import PER_EDGE
from ckplab.engine import kernel_available, run_trial
from ckplab.evolution import Features, TrialResult, init_chain
from ckplab.rand import derive_seed
from ckplab.state import CF, CT
from ckplab.thresholds import (
    PROVEN_ELIMINATION, PROVEN_SURVIVAL, UNKNOWN,
    PreconditionNotProven, _survival_threshold_claim, elimination_claims,
    false_fraction_check, survival_claims, theorem_verdict,
)

PREF = preferential()
# the reason an unknown verdict gives when the elimination hypotheses fail
IRREGULAR = ("elimination thresholds need nondecreasing weights with "
             "bounded increments and base weight >= 1, got {}")


def feats(mechanism="exhaustive-bfs", p=Fraction(1, 2), k=3, m=1, **kw):
    base = dict(attach=PREF, parent_count=ParentCountLaw.const(m),
                check_rate=p, check_depth=k, mechanism=mechanism)
    base.update(kw)
    return Features(**base)


# -- simple elimination ----------------------------------------------------

def test_simple_elimination_threshold_m3():
    # N = b + 3 a(0) E{1/M} = 1 + 3*(1/3) = 2, so the two terms are
    # 2/(2 + 2/3) = 3/4 and 2/((2*2 + 1)*2/3) = 3/5; max is 3/4 <= 0.80.
    v = theorem_verdict(feats(m=3, k=3, p=0.80))
    assert v.kind == PROVEN_ELIMINATION
    assert v.source == "simple-elimination-threshold"
    assert v.detail["threshold"] == Fraction(3, 4)


def test_simple_elimination_boundary_inclusive():
    # Preferential, M = 1, k = 4: N = 4 and both max terms equal 6/7.
    v = theorem_verdict(feats(p=Fraction(6, 7), k=4))
    assert v.kind == PROVEN_ELIMINATION
    assert v.detail["threshold"] == Fraction(6, 7)
    just_below = theorem_verdict(feats(p=Fraction(6, 7) - Fraction(1, 10**9), k=4))
    assert just_below.kind == UNKNOWN


def test_simple_elimination_reads_a_rational_slope_exactly():
    # b = 1/10, a(0) = 1, a(1) = 11/10, k = 6: N = 1/10 + 3 = 31/10, so
    # the two terms are (31/10)/(113/30) = 93/113 and
    # (31/10)/((5*11/10 + 1)*2/3) = 93/130; a float slope would put b at
    # the binary value of 0.1, just above 1/10, and the threshold with it
    slope = TableAttachment((1,), Fraction(1, 10))
    v = theorem_verdict(feats("complete", Fraction(93, 113), 6, attach=slope))
    assert v.kind == PROVEN_ELIMINATION
    assert v.detail["threshold"] == Fraction(93, 113)
    just_below = Fraction(93, 113) - Fraction(1, 10**12)
    assert theorem_verdict(feats("complete", just_below, 6,
                                 attach=slope)).kind == UNKNOWN
    # b = 1/3, k = 4: N = 10/3 and (3*4/3 + 1)*2/3 = 10/3, a threshold
    # of exactly 1
    third = TableAttachment((1,), Fraction(1, 3))
    v = theorem_verdict(feats("complete", 1, 4, attach=third))
    assert v.kind == PROVEN_ELIMINATION
    assert v.detail["threshold"] == 1


def test_simple_elimination_needs_depth_two():
    # At k = 1 a small threshold would come out of the formula for large
    # M, but the predicate refuses shallow checks outright.
    v = theorem_verdict(feats(m=100, k=1, p=1.0, attach=uniform()))
    assert v.kind == UNKNOWN


def test_elimination_only_for_ball_mechanisms():
    for mech in ("stringy", "bfs"):
        assert elimination_claims(feats(mechanism=mech, p=1.0, k=6)) == ()
        assert theorem_verdict(feats(mechanism=mech, p=1.0, k=6)).kind == UNKNOWN
    for mech in PER_EDGE:
        v = theorem_verdict(feats(mechanism=mech, p=1.0, k=6))
        assert v.kind == PROVEN_ELIMINATION


def test_uniform_attachment_needs_depth_five():
    # Uniform weights: N = 3, second term 3/((k-1+1)*2/3); at k = 4 that
    # is 9/8 > 1 so no p suffices, at k = 5 it is 9/10.
    assert theorem_verdict(feats(attach=uniform(), p=1.0, k=4)).kind == UNKNOWN
    v = theorem_verdict(feats(attach=uniform(), p=Fraction(9, 10), k=5))
    assert v.kind == PROVEN_ELIMINATION
    assert v.detail["threshold"] == Fraction(9, 10)


def test_noisy_detection_scales_elimination_rate():
    # p * p_e = 0.9 * 0.9 = 0.81 misses the 6/7 threshold; raising the
    # detection rate to 0.96 clears it (0.864).
    assert theorem_verdict(feats(p=0.9, k=4, detection_rate=0.9)).kind == UNKNOWN
    v = theorem_verdict(feats(p=0.9, k=4, detection_rate=0.96))
    assert v.kind == PROVEN_ELIMINATION


# -- general elimination ---------------------------------------------------

def test_general_elimination_margin_hand_value():
    # eps = 1/4, p = 19/20, k = 6, preferential M = 1:
    #   deep term  = -(19/40)*11 + 3 = -89/40
    #   shallow    = -19/40 + 3*(1/20) = -13/40
    #   margin     = (3/4)*(-13/40) + (1/4)*2*(1/20) = -7/32
    v = theorem_verdict(feats(p=Fraction(19, 20), k=6, error_rate=Fraction(1, 4)))
    assert v.kind == PROVEN_ELIMINATION
    assert v.source == "general-elimination-threshold"
    assert v.detail["margin"] == Fraction(-7, 32)


def test_general_elimination_fails_at_low_depth():
    # Same features at k = 2: deep term = -(19/40)*3 + 3 = 63/40 > 0,
    # so the max is positive and the margin cannot reach zero.
    v = theorem_verdict(feats(p=Fraction(19, 20), k=2, error_rate=Fraction(1, 4)))
    assert v.kind == UNKNOWN


def test_general_elimination_with_adversary_needs_slack():
    base = dict(p=Fraction(19, 20), k=6, error_rate=Fraction(1, 4))
    # margin without adversary is -7/32; an adversarial term of
    # q*(b+2)*(r*b+2a0)/(a0+a1) = q*(3*4/3) = 4q eats it at q = 7/128.
    ok = theorem_verdict(feats(adversary_rate=Fraction(1, 20),
                               adversary_budget=2, **base))
    assert ok.kind == PROVEN_ELIMINATION
    gone = theorem_verdict(feats(adversary_rate=Fraction(1, 10),
                                 adversary_budget=2, **base))
    assert gone.kind == UNKNOWN


# -- simple survival -------------------------------------------------------

def test_simple_survival_threshold_and_boundary():
    # M = 1: growth ratio 1/2, budget (1 - 1/2)/2 = 1/4.  Stringy uses
    # the literal check rate, so 0.24 proves survival and 1/4 sits
    # exactly on the (inclusive) boundary.
    v = theorem_verdict(feats(mechanism="stringy", p=0.24))
    assert v.kind == PROVEN_SURVIVAL
    assert v.source == "simple-survival-threshold"
    assert v.detail["check_budget"] == Fraction(1, 4)
    assert theorem_verdict(feats(mechanism="stringy", p=0.25)).kind \
        == PROVEN_SURVIVAL
    assert theorem_verdict(feats(mechanism="stringy", p=0.26)).kind == UNKNOWN


def test_per_edge_survival_scales_by_mean_parents():
    # Same p on a per-edge mechanism counts one coin per parent edge:
    # with M = 2 the effective rate doubles, and min(M) = 2 moves the
    # budget to (1 - 2/3)/2 = 1/6.
    p = Fraction(3, 20)
    assert theorem_verdict(feats(mechanism="stringy", p=p, m=2)).kind \
        == PROVEN_SURVIVAL
    assert theorem_verdict(feats(mechanism="exhaustive-bfs", p=p, m=2)).kind \
        == UNKNOWN
    v = theorem_verdict(feats(mechanism="parentwise-bfs", p=Fraction(1, 15), m=2))
    assert v.detail["effective_check_rate"] == Fraction(2, 15)
    assert v.kind == PROVEN_SURVIVAL


def test_survival_needs_increments_at_least_base():
    # Uniform weights have zero increments, below the base weight of 1,
    # so the survival thresholds stay silent however small p is.
    assert theorem_verdict(feats(attach=uniform(), mechanism="stringy",
                                 p=Fraction(1, 100))).kind == UNKNOWN
    # a(d) = 2 + d grows, but by less than its base weight of 2.
    assert theorem_verdict(feats(attach=TableAttachment((2,), 1),
                                 mechanism="stringy",
                                 p=Fraction(1, 100))).kind == UNKNOWN


def test_survival_with_mixed_parent_law():
    # pmf {1: 1/2, 2: 1/2}: E{M} = 3/2, min = 1, ratio 3/4, budget 1/8.
    law = ParentCountLaw({1: Fraction(1, 2), 2: Fraction(1, 2)})
    v = theorem_verdict(feats(mechanism="bfs", p=Fraction(1, 8),
                              parent_count=law))
    assert v.kind == PROVEN_SURVIVAL
    assert v.detail["check_budget"] == Fraction(1, 8)
    assert theorem_verdict(feats(mechanism="bfs", p=Fraction(1, 8) + Fraction(1, 10**6),
                                 parent_count=law)).kind == UNKNOWN


def test_survival_ignores_detection_noise():
    # Detection noise only lowers the true removal rate, so the literal
    # rate stays the conservative input on the survival side.
    v = theorem_verdict(feats(mechanism="stringy", p=0.24, detection_rate=0.1))
    assert v.kind == PROVEN_SURVIVAL


def test_simple_survival_is_silent_when_growth_outruns_removal():
    # pmf {1: 1/2, 5: 1/2}: E{M} = 3, min 1, growth ratio 3/2 >= 1, so
    # no check rate is small enough; M = 1 (ratio 1/2) proves survival
    # at the same p
    law = ParentCountLaw({1: Fraction(1, 2), 5: Fraction(1, 2)})
    p = Fraction(1, 100)
    heavy = feats(mechanism="stringy", p=p, parent_count=law)
    assert _survival_threshold_claim(heavy) is None
    assert theorem_verdict(heavy).kind == UNKNOWN
    assert (_survival_threshold_claim(feats(mechanism="stringy", p=p)).source
            == "simple-survival-threshold")


# -- general survival ------------------------------------------------------

def test_undetected_error_rate_claim():
    v = theorem_verdict(feats(p=0.2, error_rate=0.25))
    assert v.kind == PROVEN_SURVIVAL
    assert v.source == "undetected-error-rate"
    # strict inequality: p == eps does not fire this claim
    v = theorem_verdict(feats(p=0.25, error_rate=0.25, k=1))
    assert v.source != "undetected-error-rate"


def test_general_survival_margin_hand_value():
    # eps = 1/20, p = 1/5, stringy, preferential M = 1, eta = 1/2:
    #   p*(-2 + (1/20)*(1 + (1/2)(1/2))) = -31/80
    #   1 - (1/2)*(1 - 1/40) = 41/80, margin 10/80 = 1/8.
    v = theorem_verdict(feats(mechanism="stringy", p=Fraction(1, 5),
                              error_rate=Fraction(1, 20)))
    assert v.kind == PROVEN_SURVIVAL
    assert v.source == "general-survival-threshold"
    assert v.detail["margin"] == Fraction(1, 8)


def test_general_survival_adversary_erodes_margin():
    base = dict(mechanism="stringy", p=Fraction(1, 5),
                error_rate=Fraction(1, 20))
    # (9/10)*(1/8) - q*r with q = 1/10: r = 0 keeps 9/80, r = 2 spends
    # 16/80 and the claim disappears.
    assert theorem_verdict(feats(adversary_rate=Fraction(1, 10),
                                 adversary_budget=0, **base)).kind \
        == PROVEN_SURVIVAL
    assert theorem_verdict(feats(adversary_rate=Fraction(1, 10),
                                 adversary_budget=2, **base)).kind == UNKNOWN


def test_general_survival_rejects_heavy_parent_laws():
    # M = 5: eta = (10 + 5 - 1)/12 > 1, so the general threshold is
    # silent even though the simple-mode ratio 5/6 would pass.
    v = theorem_verdict(feats(mechanism="stringy", p=Fraction(1, 100), m=5,
                              error_rate=Fraction(1, 200)))
    assert v.kind == UNKNOWN


def test_general_survival_needs_bounded_increments():
    # a(d) = (1 + d)**2: a(0) = 1 and every increment 2d + 3 >= 3 is at
    # least the base weight, but the increments are unbounded, so the
    # noisy route has no hi to bound the error term by; preferential
    # weights at the same p and eps give the margin 1/8 (above)
    noisy = dict(mechanism="stringy", p=Fraction(1, 5),
                 error_rate=Fraction(1, 20))
    squares = feats(attach=PowerShifted(1, 2), **noisy)
    assert _survival_threshold_claim(squares) is None
    assert theorem_verdict(squares).kind == UNKNOWN
    assert (_survival_threshold_claim(feats(**noisy)).source
            == "general-survival-threshold")


# -- structural survival claims --------------------------------------------

def test_hole_claims_survival_below_full_checking():
    holey = TableAttachment((1, 0, 2), 1)
    v = theorem_verdict(feats(attach=holey, p=0.99))
    assert v.kind == PROVEN_SURVIVAL
    assert v.source == "attachment-hole"
    # at p = 1 the shielding structure cannot be built unnoticed, and
    # the decreasing table then fails the elimination hypotheses
    v = theorem_verdict(feats(attach=holey, p=1.0))
    assert (v.kind, v.source) == (UNKNOWN, None)
    assert v.detail == {"reason": IRREGULAR.format(
        "table(1, 0, 2; 1) (increments in [-1, 2], base weight 1)")}
    assert elimination_claims(feats(attach=holey, p=1.0)) == ()


def test_zero_base_weight_counts_as_hole():
    v = theorem_verdict(feats(attach=TableAttachment((0,), 1),
                              mechanism="bfs", p=0.5))
    assert v.source == "attachment-hole"


def test_runaway_growth_claims_survival():
    v = theorem_verdict(feats(attach=PowerShifted(1, 3), p=0.99, k=10))
    assert v.kind == PROVEN_SURVIVAL
    assert v.source == "runaway-attachment-growth"
    # exponent 2 is not runaway, and its unbounded increments keep the
    # elimination predicates silent
    v = theorem_verdict(feats(attach=PowerShifted(1, 2), p=0.9, k=5))
    assert v.kind == UNKNOWN
    assert v.detail == {"reason": IRREGULAR.format(
        "power(1, 2) (increments in [3, unbounded], base weight 1)")}
    # ...but only when an elimination-capable mechanism asks
    v = theorem_verdict(feats(attach=PowerShifted(1, 2), mechanism="stringy",
                              p=Fraction(1, 5)))
    assert v.kind == PROVEN_SURVIVAL
    assert v.source == "simple-survival-threshold"


def test_power_growth_at_full_checking_is_not_claimed():
    v = theorem_verdict(feats(attach=PowerShifted(1, 3), p=1.0))
    assert v.kind == UNKNOWN
    assert v.detail == {"reason": IRREGULAR.format(
        "power(1, 3) (increments in [7, unbounded], base weight 1)")}


@pytest.mark.parametrize("gamma", [Fraction(5, 4), Fraction(3, 2), 2,
                                   Fraction(5, 2)])
def test_superlinear_growth_below_three_gets_an_unknown_verdict(gamma):
    """Between linear and runaway growth no predicate applies: every
    mechanism gets ``unknown``, a per-edge one with the failed hypothesis
    as its reason, and the false-fraction bound is refused there."""
    attach = PowerShifted(1, gamma)
    bfs, complete = (feats(mech, Fraction(1, 2), 4, attach=attach)
                     for mech in ("bfs", "complete"))
    for f in (bfs, complete):
        v = theorem_verdict(f)
        assert (v.kind, v.source) == (UNKNOWN, None)
        assert elimination_claims(f) == ()
    assert theorem_verdict(bfs).detail == {}
    reason = theorem_verdict(complete).detail["reason"]
    assert reason.startswith(IRREGULAR.format(
        f"{attach.describe()} (increments in ["))
    assert reason.endswith(", unbounded], base weight 1)")
    trials = [_fake_trial(i, [(100, 50, 0)]) for i in range(30)]
    with pytest.raises(PreconditionNotProven) as refused:
        false_fraction_check(trials, complete)
    assert str(refused.value) == ("features are outside the proven-"
                                  f"elimination region (unknown): {reason}")
    # at exponent 3 the runaway claim fires for both
    for mech in ("bfs", "complete"):
        v = theorem_verdict(feats(mech, Fraction(1, 2), 4,
                                  attach=PowerShifted(1, 3)))
        assert v.describe() == "proven-survival:runaway-attachment-growth"


# -- claim-set consistency -------------------------------------------------

def test_claims_never_overlap_on_a_small_sweep():
    laws = (ParentCountLaw.const(1), ParentCountLaw.const(3))
    attachments = (preferential(), uniform())
    checked = both = 0
    for attach in attachments:
        for law in laws:
            for mech in ("stringy", "exhaustive-bfs"):
                for p10 in range(11):
                    for k in range(1, 7):
                        for eps in (0, Fraction(1, 4)):
                            for q in (0, Fraction(1, 10)):
                                f = Features(
                                    attach=attach, parent_count=law,
                                    check_rate=Fraction(p10, 10),
                                    check_depth=k, mechanism=mech,
                                    error_rate=eps, adversary_rate=q,
                                    adversary_budget=1 if q else 0)
                                surv = survival_claims(f)
                                elim = elimination_claims(f)
                                checked += 1
                                if surv and elim:
                                    both += 1
    assert checked == 2112
    assert both == 0


def test_verdict_describe_strings():
    assert theorem_verdict(feats(p=0.5, k=1)).describe() == "unknown"
    assert theorem_verdict(feats(m=3, k=3, p=0.8)).describe() \
        == "proven-elimination:simple-elimination-threshold"


# -- false-fraction check --------------------------------------------------

def _fake_trial(seed, rows):
    """TrialResult with just enough shape for the checker: rows are
    (time, pt, pt_false) triples."""
    checkpoints = [(t, {"nodes": pt, "pt": pt, "pt_false": ptf, "pf": 0,
                        "minimal_false": ptf, "leaves": 0})
                   for t, pt, ptf in rows]
    return TrialResult(seed=seed, horizon=rows[-1][0], survived_at_horizon=True,
                       eliminated_at=None, stopped_at=None,
                       final_counts=checkpoints[-1][1], checkpoints=checkpoints,
                       backend="python")


ELIM_FEATURES = dict(p=Fraction(19, 20), k=6, error_rate=Fraction(1, 4))


def test_false_fraction_needs_thirty_trials():
    trials = [_fake_trial(i, [(100, 50, 1)]) for i in range(29)]
    with pytest.raises(ValueError):
        false_fraction_check(trials, feats(**ELIM_FEATURES))


def test_false_fraction_requires_proven_elimination():
    trials = [_fake_trial(i, [(100, 50, 1)]) for i in range(30)]
    with pytest.raises(PreconditionNotProven):
        false_fraction_check(trials, feats(p=Fraction(1, 2), k=6,
                                           error_rate=Fraction(1, 4)))
    with pytest.raises(PreconditionNotProven):
        false_fraction_check(trials, feats(adversary_rate=Fraction(1, 100),
                                           adversary_budget=1, **ELIM_FEATURES))


def test_false_fraction_refuses_trials_with_no_shared_time():
    trials = [_fake_trial(i, [(100 + i % 2, 50, 1)]) for i in range(30)]
    with pytest.raises(ValueError) as err:
        false_fraction_check(trials, feats(**ELIM_FEATURES))
    assert err.type is ValueError
    assert str(err.value) == "trials share no checkpoint times to compare at"


@pytest.mark.parametrize("undetected, ratio", [(1, math.inf), (0, 0.0)])
def test_false_fraction_ratio_without_true_nodes(undetected, ratio):
    # every PT node is hidden-False, so the mean true count is 0: the
    # ratio is infinite while undetected nodes remain, else 0
    trials = [_fake_trial(i, [(100, undetected, undetected)])
              for i in range(30)]
    report = false_fraction_check(trials, feats(**ELIM_FEATURES))
    (row,) = report.rows
    assert (row.mean_true, row.measured_ratio) == (0, ratio)
    assert report.passed is (undetected == 0)


def test_false_fraction_bound_value_and_pass():
    # bound = eps(1-p)a(0)/(1-eps) = (1/4)(1/20)/(3/4) = 1/60
    f = feats(**ELIM_FEATURES)
    rows = [_fake_trial(i, [(250, 60 + (i % 3), 2 + i % 2), (500, 120, 2 + i % 2)])
            for i in range(40)]
    report = false_fraction_check(rows, f)
    assert report.bound == Fraction(1, 60)
    assert [r.time for r in report.rows] == [250, 500]
    assert report.rows[0].trials == 40
    # mean undetected 2.5 vs limit 1/60 * 61ish + 3 SE; the per-trial
    # spread is about half a node, so the slack is roughly a quarter
    # node and cannot cover the gap
    assert not report.passed


def test_false_fraction_accepts_bounded_counts():
    f = feats(**ELIM_FEATURES)
    # one undetected node per ~200 true nodes stays under 1/60
    rows = [_fake_trial(i, [(1000, 200 + (i % 5), 1 if i % 4 == 0 else 0)])
            for i in range(60)]
    report = false_fraction_check(rows, f)
    assert report.passed
    assert report.rows[0].measured_ratio < float(report.bound)
    assert "pass" in report.describe()


def test_false_fraction_zero_error_rate_is_trivial():
    # with eps = 0 the bound is zero and only identically-zero counts pass
    f = feats(p=Fraction(19, 20), k=6)
    assert theorem_verdict(f).kind == PROVEN_ELIMINATION
    clean = [_fake_trial(i, [(500, 80, 0)]) for i in range(30)]
    report = false_fraction_check(clean, f)
    assert report.bound == 0
    assert report.passed
    # one stray count in one trial hides inside the 3 SE slack, but a
    # systematic single node per trial has zero spread and fails flat
    stray = [_fake_trial(i, [(500, 80, 1 if i == 0 else 0)]) for i in range(30)]
    assert false_fraction_check(stray, f).passed
    dirty = [_fake_trial(i, [(500, 80, 1)]) for i in range(30)]
    assert not false_fraction_check(dirty, f).passed


# -- the claim, end to end on the kernel -----------------------------------

@pytest.mark.skipif(not kernel_available(), reason="compiled kernel not built")
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("mechanism", ["complete", "exhaustive-bfs"])
def test_proven_elimination_holds_in_simulation(mechanism, m):
    """Where the thresholds prove elimination, errors die out: no kernel
    trial from a CF-rooted chain survives, and with errors arriving the
    undetected fraction stays under the proven bound."""
    f = feats(mechanism, Fraction(19, 20), 4, m)
    assert theorem_verdict(f).kind == PROVEN_ELIMINATION
    cf_start = init_chain(5, 1, CF)
    runs = [run_trial(f, cf_start, 2000,
                      derive_seed(2309, "claim", mechanism, m, i),
                      audit="cheap", backend="compiled") for i in range(30)]
    assert not any(r.survived_at_horizon for r in runs)
    noisy = feats(mechanism, Fraction(19, 20), 4, m,
                  error_rate=Fraction(1, 20))
    assert theorem_verdict(noisy).kind == PROVEN_ELIMINATION
    ct_start = init_chain(5, 1, CT)
    runs = [run_trial(noisy, ct_start, 2000,
                      derive_seed(2309, "claim-noisy", mechanism, m, i),
                      checkpoint_steps=(500, 1000, 2000), audit="cheap",
                      backend="compiled") for i in range(30)]
    report = false_fraction_check(runs, noisy)
    assert [r.time for r in report.rows] == [500, 1000, 2000]
    assert report.passed, report.describe()
