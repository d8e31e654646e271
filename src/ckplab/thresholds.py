"""Closed-form parameter thresholds and the verdicts they prove.

Given a feature bundle, :func:`theorem_verdict` decides whether the
configured process provably eliminates its errors, provably lets them
survive, or sits in territory the analysis does not cover.  Each
predicate transcribes a drift condition: it states when a potential
function moves in one direction on every state that still carries
error, which pins the long-run behaviour without simulation.  All
comparisons run in exact rational arithmetic, every input entering under
the rule of :func:`attachment._to_fraction` (a float at its binary
value), so boundary cases are decided, not rounded.

The survival predicates are checked before the elimination ones, in a
fixed order, and the first one that fires names itself in the verdict.
Every valid feature bundle gets a verdict.  Where a hypothesis of the
elimination predicates fails (the per-edge mechanisms need
nondecreasing weights with bounded increments and a unit of base
weight), the verdict is ``unknown`` and its ``detail`` names the
hypothesis under ``"reason"``.  :func:`survival_claims` and
:func:`elimination_claims` expose the raw claim sets so a sweep can
assert the two sides never overlap.

:func:`false_fraction_check` is the statistical companion: inside the
proven-elimination region it compares measured undetected-error counts
from finished trials against the stationary bound the drift argument
implies.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

from .attachment import PowerShifted, _to_fraction
from .checking import PER_EDGE

PROVEN_ELIMINATION = "proven-elimination"
PROVEN_SURVIVAL = "proven-survival"
UNKNOWN = "unknown"


class PreconditionNotProven(RuntimeError):
    """A statistical comparison was requested outside its proven regime."""


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of the threshold predicates for one feature bundle.

    ``kind`` is ``proven-elimination``, ``proven-survival`` or
    ``unknown``.  ``source`` names the predicate that fired (``None``
    when unknown) and ``detail`` carries the quantities behind the
    decision, every number among them a Fraction.  An ``unknown``
    verdict's ``detail`` is empty, or holds under ``"reason"`` the text
    of the hypothesis that kept the elimination predicates silent.
    """

    kind: str
    source: str | None = None
    detail: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.source is None:
            return self.kind
        return f"{self.kind}:{self.source}"


def _survival_check_rate(features) -> Fraction:
    """Per-step rate at which checking can remove tracked-component nodes.

    Whole-walk mechanisms spend one check coin per step; per-edge
    mechanisms spend one per parent edge, so their rate scales with the
    expected parent count.  Detection noise is deliberately ignored
    here: it can only lower the true rate, and the survival predicates
    ask the rate to stay small, so the noiseless rate is the
    conservative one.
    """
    p = _to_fraction(features.check_rate)
    if features.mechanism in PER_EDGE:
        return p * features.parent_count.mean_exact()
    return p


def _elimination_check_rate(features) -> Fraction:
    # noisy detection weakens every check the same way, so the
    # elimination predicates only ever see the product
    return (_to_fraction(features.check_rate)
            * _to_fraction(features.detection_rate))


# -- survival claims -------------------------------------------------------

def _hole_claim(features):
    """A zero-weight degree lets a shielding structure freeze forever."""
    if not features.attach.has_hole():
        return None
    p = _to_fraction(features.check_rate)
    if p >= 1:
        return None
    return TheoremVerdict(PROVEN_SURVIVAL, "attachment-hole",
                          {"attachment": features.attach.describe(),
                           "check_rate": p})


def _runaway_growth_claim(features):
    """Cubic or faster weight growth concentrates children so heavily on
    the deepest frontier that checks cannot keep pace."""
    a = features.attach
    if not isinstance(a, PowerShifted):
        return None
    if _to_fraction(a.exponent) < 3:
        return None
    p = _to_fraction(features.check_rate)
    if p >= 1:
        return None
    return TheoremVerdict(PROVEN_SURVIVAL, "runaway-attachment-growth",
                          {"exponent": _to_fraction(a.exponent),
                           "check_rate": p})


def _undetected_error_claim(features):
    p = _to_fraction(features.check_rate)
    eps = _to_fraction(features.error_rate)
    if p < eps:
        return TheoremVerdict(PROVEN_SURVIVAL, "undetected-error-rate",
                              {"check_rate": p, "error_rate": eps})
    return None


def _survival_threshold_claim(features):
    """Drift of the minimal-false-plus-leaves potential stays nonnegative.

    Needs every weight increment to carry at least the base weight
    (so each new leaf replaces what a removed one contributed).  The
    error-free route compares the effective check rate against half the
    leaf-growth headroom; the noisy route evaluates the full signed
    drift bound including error and adversary terms.
    """
    law = features.parent_count
    lo, hi = features.attach.increment_bounds()
    a0 = features.attach.evaluate_exact(0)
    if a0 < 1 or lo < a0:
        return None
    p_eff = _survival_check_rate(features)
    if features.simple:
        growth_ratio = law.mean_exact() / (law.min + 1)
        if growth_ratio >= 1:
            return None
        budget = (1 - growth_ratio) / 2
        if p_eff <= budget:
            return TheoremVerdict(
                PROVEN_SURVIVAL, "simple-survival-threshold",
                {"effective_check_rate": p_eff, "check_budget": budget,
                 "growth_ratio": growth_ratio})
        return None
    if hi == math.inf:
        return None
    growth_ratio = (2 * law.mean_exact() + law.min - 1) / (2 * (law.min + 1))
    if growth_ratio > 1:
        return None
    eps = _to_fraction(features.error_rate)
    q = _to_fraction(features.adversary_rate)
    r = features.adversary_budget
    margin = (1 - q) * (p_eff * (-2 + eps * (1 + hi / (hi + a0) * growth_ratio))
                        + 1 - growth_ratio * (1 - eps * a0 / (hi + a0))) - q * r
    if margin >= 0:
        return TheoremVerdict(
            PROVEN_SURVIVAL, "general-survival-threshold",
            {"margin": margin, "effective_check_rate": p_eff,
             "growth_ratio": growth_ratio})
    return None


# -- elimination claims ----------------------------------------------------

def _elimination_verdict(features) -> TheoremVerdict:
    """Drift of the minimum-distance potential stays negative: a
    ``proven-elimination`` verdict, or ``unknown`` when it does not.

    Only the per-edge mechanisms, whose checks fan out over whole
    ancestor balls, support an elimination proof, and only for
    nondecreasing weights with bounded increments and at least a unit of
    base weight; elsewhere the ``unknown`` names that hypothesis.
    Error-free route: the effective check rate must clear a closed-form
    threshold that grows with the increment bound and shrinks with the
    check depth.  Noisy route: a signed drift bound combining the
    checked, unchecked, wrong-label and adversarial contributions must
    come out nonpositive.
    """
    silent = TheoremVerdict(UNKNOWN)
    if features.mechanism not in PER_EDGE:
        return silent
    a = features.attach
    lo, b = a.increment_bounds()
    a0 = a.evaluate_exact(0)
    if lo < 0 or b == math.inf or a0 < 1:
        top = "unbounded" if b == math.inf else str(b)
        return TheoremVerdict(UNKNOWN, detail={"reason": (
            "elimination thresholds need nondecreasing weights with bounded "
            f"increments and base weight >= 1, got {a.describe()} "
            f"(increments in [{lo}, {top}], base weight {a0})")})
    a1 = a.evaluate_exact(1)
    law = features.parent_count
    p_eff = _elimination_check_rate(features)
    k = features.check_depth
    if features.simple:
        if k < 2:
            return silent
        base_mass = b + 3 * a0 * law.mean_reciprocal_exact()
        depth_weight = ((k - 1) * a1 + a0) * Fraction(2, 3)
        threshold = max(base_mass / (base_mass + Fraction(2, 3)),
                        base_mass / depth_weight)
        if p_eff >= threshold:
            return TheoremVerdict(
                PROVEN_ELIMINATION, "simple-elimination-threshold",
                {"threshold": threshold, "effective_check_rate": p_eff})
        return silent
    eps = _to_fraction(features.error_rate)
    if eps >= 1:
        return silent
    q = _to_fraction(features.adversary_rate)
    r = features.adversary_budget
    slack = b + 2 * a0
    term_deep = -p_eff * ((k - 1) * a1 + a0) / 2 + slack
    term_shallow = -p_eff / 2 + slack * (1 - p_eff)
    margin = ((1 - q) * ((1 - eps) * max(term_deep, term_shallow)
                         + eps * (b + a0) * (1 - p_eff))
              + q * (b + 2) * (r * b + 2 * a0) / (a0 + a1))
    if margin <= 0:
        return TheoremVerdict(
            PROVEN_ELIMINATION, "general-elimination-threshold",
            {"margin": margin, "effective_check_rate": p_eff})
    return silent


# -- public API ------------------------------------------------------------

def survival_claims(features) -> tuple:
    """All survival predicates that fire, in evaluation order."""
    claims = (_hole_claim(features),
              _runaway_growth_claim(features),
              _undetected_error_claim(features),
              _survival_threshold_claim(features))
    return tuple(c for c in claims if c is not None)


def elimination_claims(features) -> tuple:
    """Elimination predicates that fire, in evaluation order: none where
    a hypothesis they need fails, the cells :func:`theorem_verdict`
    calls ``unknown`` with a reason."""
    verdict = _elimination_verdict(features)
    return (verdict,) if verdict.kind == PROVEN_ELIMINATION else ()


def theorem_verdict(features) -> TheoremVerdict:
    """Decide what the thresholds prove about one feature bundle.

    Survival predicates run first (attachment hole, runaway growth,
    check rate below error rate, then the drift threshold), elimination
    predicates after, and the first claim to fire becomes the verdict.
    When nothing fires the verdict is ``unknown``, which says only that
    the proofs are silent, not that either behaviour is ruled out; its
    ``detail["reason"]`` names a hypothesis of the elimination
    predicates that fails, if one does.
    """
    for claim in survival_claims(features):
        return claim
    return _elimination_verdict(features)


@dataclass(frozen=True)
class CheckpointComparison:
    time: int
    trials: int
    mean_undetected: float
    mean_true: float
    measured_ratio: float
    limit: float
    standard_error: float
    passed: bool


@dataclass(frozen=True)
class FalseFractionReport:
    """Per-checkpoint comparison of undetected-error mass against the
    stationary bound, with three standard errors of slack."""

    passed: bool
    bound: Fraction
    rows: tuple

    def describe(self) -> str:
        lines = [f"bound {float(self.bound):.6g} per true node"]
        for row in self.rows:
            word = "pass" if row.passed else "FAIL"
            lines.append(
                f"t={row.time}: mean undetected {row.mean_undetected:.3f} "
                f"vs limit {row.limit:.3f} ({word})")
        return "\n".join(lines)


def false_fraction_check(trials, features) -> FalseFractionReport:
    """Compare trial-averaged undetected-error counts to the proven bound.

    At every checkpoint time shared by all ``trials``, the mean count of
    hidden-False nodes still proclaimed true must stay below
    ``eps * (1 - p) * a(0) / (1 - eps)`` times the mean count of true
    nodes, plus three standard errors of the per-trial difference.
    Requires features in the proven-elimination region with no
    adversary, and at least 30 trials so the standard error means
    something.
    """
    trials = list(trials)
    if len(trials) < 30:
        raise ValueError(
            "false-fraction comparison needs at least 30 trials for a "
            f"standard-error estimate, got {len(trials)}")
    if _to_fraction(features.adversary_rate) != 0:
        raise PreconditionNotProven(
            "the undetected-fraction bound is proven only without "
            "adversarial steps")
    verdict = theorem_verdict(features)
    if verdict.kind != PROVEN_ELIMINATION:
        raise PreconditionNotProven(
            "features are outside the proven-elimination region "
            f"({verdict.describe()})")
    eps = _to_fraction(features.error_rate)
    p = _to_fraction(features.check_rate)
    bound = eps * (1 - p) * features.attach.evaluate_exact(0) / (1 - eps)
    bound_f = float(bound)

    tables = [dict(tr.checkpoints) for tr in trials]
    times = set(tables[0])
    for table in tables[1:]:
        times &= set(table)
    if not times:
        raise ValueError("trials share no checkpoint times to compare at")

    rows = []
    for t in sorted(times):
        undetected = [float(table[t]["pt_false"]) for table in tables]
        true_side = [float(table[t]["pt"] - table[t]["pt_false"])
                     for table in tables]
        diffs = [u - bound_f * s for u, s in zip(undetected, true_side)]
        se = statistics.stdev(diffs) / math.sqrt(len(diffs))
        mean_undetected = statistics.fmean(undetected)
        mean_true = statistics.fmean(true_side)
        limit = bound_f * mean_true + 3 * se
        if mean_true > 0:
            ratio = mean_undetected / mean_true
        else:
            ratio = math.inf if mean_undetected > 0 else 0.0
        rows.append(CheckpointComparison(
            time=t, trials=len(trials), mean_undetected=mean_undetected,
            mean_true=mean_true, measured_ratio=ratio, limit=limit,
            standard_error=se, passed=mean_undetected <= limit))
    return FalseFractionReport(passed=all(r.passed for r in rows),
                               bound=bound, rows=rows)
