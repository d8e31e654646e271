"""Backend agreement: the compiled kernel replays the pure engine's
decision stream draw for draw, and the dispatcher routes requests to
the right backend."""

import gc
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from ckplab.attachment import (
    ParentCountLaw, PowerShifted, TableAttachment, preferential, uniform,
)
from ckplab.audits import full_audit
from ckplab.checking import MECHANISMS
from ckplab.engine import (
    compiled_supports, deep_audit_compiled, kernel_available, run_trial,
)
from ckplab.evolution import AuditViolation, Features, PyEngine, init_chain
from ckplab.rand import SimChooser
from ckplab.potentials import MinDistance, exact_drift, mc_drift
from ckplab.state import (
    CF, CT, PF, CkpState, StateError, dump_state, load_state,
)

needs_kernel = pytest.mark.skipif(not kernel_available(),
                                  reason="compiled kernel not built")

LAW_MIX = ParentCountLaw({1: 0.5, 2: 0.25, 3: 0.25})

CASES = []
for _mech in MECHANISMS:
    CASES.append((_mech, 0.0, "preferential", 0.3, 3))
    CASES.append((_mech, 0.25, "preferential", 0.3, 3))
CASES += [
    ("bfs", 0.25, "uniform", 0.3, 3),
    ("complete", 0.0, "table", 0.3, 2),
    ("stringy", 0.25, "table", 0.9, 5),
    ("parentwise-bfs", 0.0, "uniform", 0.9, 4),
    ("bfs", 0.25, "rounding", 0.3, 3),
    ("complete", 0.0, "rounding", 0.3, 2),
]

ATTACHMENTS = {
    "preferential": lambda: (preferential(), LAW_MIX),
    "uniform": lambda: (uniform(), ParentCountLaw.const(1)),
    "table": lambda: (TableAttachment((1.0, 0.5, 2.0), 0.25), LAW_MIX),
    # weights that are not dyadic, so Fenwick sums round: an update made
    # in another order would show in the tree's bits
    "rounding": lambda: (TableAttachment((0.1,), 0.7), LAW_MIX),
}


def case_features(mech, eps, attach_name, p, k):
    attach, law = ATTACHMENTS[attach_name]()
    return Features(attach=attach, parent_count=law, check_rate=p,
                    check_depth=k, mechanism=mech, error_rate=eps,
                    detection_rate=0.8 if eps else 1.0)


def run_both(feats, init, seed, steps):
    """Both engines from the same start and seed, driven by the same
    ``run`` call, which must return the same summary.  Returns the
    Python engine, the kernel and that summary."""
    from ckplab._kernel import KernelEngine

    eng = PyEngine(feats, init, SimChooser(seed))
    ker = KernelEngine(feats, init, seed)
    summary = eng.run(steps)
    assert ker.run(steps) == summary
    return eng, ker, summary


def assert_same_engines(eng, ker):
    """Equal states, equal bookkeeping, and a Fenwick tree equal bit for
    bit: the draws alone miss a one-ulp slip in a fold."""
    assert dump_state(ker.export_state()) == dump_state(eng.export_state())
    book = ker.export_bookkeeping()
    assert book == eng.export_bookkeeping()
    assert hex_floats(book["tree"]) == hex_floats(eng.windex.tree)


def hex_floats(values) -> list:
    return [float(x).hex() for x in values]


@needs_kernel
@pytest.mark.parametrize("mech,eps,attach_name,p,k", CASES)
def test_trajectories_bit_identical(mech, eps, attach_name, p, k):
    feats = case_features(mech, eps, attach_name, p, k)
    eng, ker, _ = run_both(feats, init_chain(12, 2, CF), 777, 400)
    assert_same_engines(eng, ker)


@needs_kernel
@pytest.mark.parametrize("mech", MECHANISMS)
def test_trajectories_bit_identical_ct_rooted(mech):
    """From a CT root most nodes are hidden-True, so both engines skip
    most ball walks; errors still arise, are checked for and marked."""
    feats = case_features(mech, 0.1, "preferential", 0.3, 3)
    eng, ker, summary = run_both(feats, init_chain(12, 2, CT), 777, 400)
    assert summary["final_counts"]["pf"] > 0
    assert not all(eng.state.is_false)
    assert_same_engines(eng, ker)


@needs_kernel
@pytest.mark.parametrize("mech", ["stringy", "bfs", "complete"])
@pytest.mark.parametrize("eps", [0.0, 0.25])
def test_runs_in_pieces_agree(mech, eps):
    """Each ``run`` call counts its steps and checkpoints from its own
    start, and calls go on after an early exit: after elimination in the
    simple regime a call takes one more step, after a stop it takes
    none.  One checkpoint falls inside a piece and one past them all."""
    from ckplab._kernel import KernelEngine

    feats = case_features(mech, eps, "preferential", 0.4, 3)
    init = init_chain(5, 1, CF)
    eng = PyEngine(feats, init, SimChooser(21))
    ker = KernelEngine(feats, init, 21)
    checkpoint_steps = (0, 50, 7, 10**30)
    for steps in (60, 1, 139, 200):
        summary = eng.run(steps, checkpoint_steps)
        assert ker.run(steps, checkpoint_steps) == summary
        assert [at for at, _ in summary["checkpoints"]] == [0, 7, 50, 10**30]
    assert_same_engines(eng, ker)


@needs_kernel
def test_trajectories_bit_identical_across_regrowths():
    """Non-dyadic weights make every Fenwick sum inexact: both engines
    lay their index out at construction, the Python one with numpy folds
    per tree level and the kernel with sequential folds per slot, keep
    it across regrowths, and must still agree bit for bit."""
    feats = Features(attach=TableAttachment((0.1,), 0.7),
                     parent_count=LAW_MIX, check_rate=0.3, check_depth=3,
                     mechanism="bfs", error_rate=0.05, detection_rate=0.8)
    eng, ker, summary = run_both(feats, init_chain(5, 1, CT), 4242, 2200)
    assert summary["stopped_at"] is None
    assert eng.windex.capacity >= 4096     # two regrowths, from 1024
    assert_same_engines(eng, ker)


BATCHED_LAWS = {
    "const2": ParentCountLaw.const(2),
    "const3": ParentCountLaw.const(3),
    # more picks than any small fixed buffer would hold
    "wide": ParentCountLaw({1: 0.5, 12: 0.5}),
}


@needs_kernel
@pytest.mark.parametrize("law", BATCHED_LAWS)
@pytest.mark.parametrize("attach_name", ["rounding", "preferential"])
@pytest.mark.parametrize("root", [CF, CT], ids=["cf", "ct"])
def test_batched_parent_picks_bit_identical(law, attach_name, root):
    """A kernel step with several parents draws all its picks, then finds
    them in one descent that advances every pick at each tree level.
    Each must still be ``WeightIndex.select``'s slot for its draw, and
    the draws those of ``draw_move``, over a thousand steps of such
    picks, with weights that round and weights that do not."""
    attach = {"rounding": TableAttachment((0.1,), 0.7),
              "preferential": preferential()}[attach_name]
    feats = Features(attach=attach, parent_count=BATCHED_LAWS[law],
                     check_rate=0.3, check_depth=3, mechanism="bfs",
                     error_rate=0.1, detection_rate=0.8)
    eng, ker, summary = run_both(feats, init_chain(12, 2, root), 4242, 1000)
    assert summary["stopped_at"] is None
    assert eng.step_index == 1000
    assert_same_engines(eng, ker)


@needs_kernel
def test_batched_picks_across_a_regrowth_from_an_imported_chain():
    """Imported at 1,500 nodes, the index's capacity is 2,048, so slots
    past the last node are empty; batched picks must agree before and
    across the regrowth to 4,096."""
    feats = Features(attach=TableAttachment((0.1,), 0.7),
                     parent_count=ParentCountLaw.const(3), check_rate=0.3,
                     check_depth=3, mechanism="bfs", error_rate=0.1,
                     detection_rate=0.8)
    eng, ker, _ = run_both(feats, init_chain(1500, 1, CF), 99, 1000)
    assert eng.windex.capacity == 4096
    assert_same_engines(eng, ker)


TINY = Fraction(1, 10**400)


@needs_kernel
@pytest.mark.parametrize("rates", [
    dict(error_rate=TINY),
    dict(error_rate=0.25, detection_rate=1 - TINY),
], ids=["error-rate-rounds-to-0", "detection-rate-rounds-to-1"])
def test_a_rate_that_rounds_to_a_sure_coin_draws_nothing(rates):
    """The kernel reads each rate as a double, so a Fraction that rounds
    to 0.0 or 1.0 is a sure coin there and draws no uniform; the Python
    engine must read it the same way, or the streams part."""
    feats = Features(preferential(), ParentCountLaw.const(1),
                     check_rate=0.5, check_depth=2, mechanism="bfs",
                     **rates)
    eng, ker, _ = run_both(feats, init_chain(5, 1, CT), 777, 300)
    assert_same_engines(eng, ker)


@needs_kernel
def test_trajectories_bit_identical_across_the_column_mapping():
    """The kernel's growable columns leave the heap for their own page
    mappings at 1 MB, and double by mremap from there.  From three nodes
    the 24-byte node records double through 3 * 2**k slots: 49,152 of
    them (1.2 MB) are the first mapping, and node 49,153 remaps it.
    Everything laid down before either move has to come through it."""
    feats = Features(attach=preferential(),
                     parent_count=ParentCountLaw.const(1), check_rate=0.1,
                     check_depth=2, mechanism="bfs", error_rate=0.05,
                     detection_rate=0.8)
    eng, ker, summary = run_both(feats, init_chain(3, 1, CT), 9090, 50_000)
    assert summary["stopped_at"] is None
    assert len(eng.state.labels) > 49_152
    assert eng.state.pf_total > 0

    exported = ker.export_state()
    assert_same_items(dump_state(exported).splitlines(),
                      dump_state(eng.state).splitlines(), "dump_state")
    for column in ("children", "deg_pt", "deg_ct", "pf_parent_edges"):
        assert_same_items(getattr(exported, column),
                          getattr(eng.state, column), column)
    book, want = ker.export_bookkeeping(), eng.export_bookkeeping()
    assert book.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, dict):
            assert_same_items(sorted(book[key].items()),
                              sorted(value.items()), key)
        elif isinstance(value, list):
            assert_same_items(book[key], value, key)
        else:
            assert book[key] == value, key
    assert_same_items(hex_floats(book["tree"]), hex_floats(eng.windex.tree),
                      "tree")


def assert_same_items(ours, theirs, what):
    """``ours == theirs``, naming the first difference: pytest's own
    report would diff 50k items in quadratic time."""
    if ours == theirs:
        return
    for i, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            raise AssertionError(f"{what}[{i}]: {a!r} != {b!r}")
    raise AssertionError(f"{what}: {len(ours)} items, not {len(theirs)}")


@needs_kernel
@pytest.mark.parametrize("mech", ["stringy", "bfs", "exhaustive-bfs",
                                  "parentwise-bfs", "complete"])
def test_repeated_parents_keep_edge_and_child_order(mech):
    """Three parent edges per node on a two-node start: the same parent
    is drawn twice or three times in most early steps, and marking
    removes repeated edges from the degrees."""
    feats = Features(attach=preferential(),
                     parent_count=ParentCountLaw.const(3), check_rate=0.4,
                     check_depth=3, mechanism=mech, error_rate=0.1,
                     detection_rate=0.8)
    eng, ker, _ = run_both(feats, init_chain(2, 1, CT), 31, 300)
    assert eng.state.pf_total > 0
    assert any(len(set(ps)) < len(ps) for ps in eng.state.parents)

    exported = ker.export_state()
    assert exported.children == eng.state.children
    assert exported.deg_pt == eng.state.deg_pt
    assert exported.deg_ct == eng.state.deg_ct
    assert exported.pf_parent_edges == eng.state.pf_parent_edges
    assert_same_engines(eng, ker)


class DegreeCapReached(Exception):
    pass


class DegreeCapped:
    """Preferential weights up to a degree cap; evaluating at or past
    the cap raises."""

    def __init__(self, cap):
        self.cap = cap

    def evaluate(self, d):
        if d >= self.cap:
            raise DegreeCapReached(d)
        return 1.0 + d


@needs_kernel
@pytest.mark.parametrize("mech", ["bfs", "complete"])
def test_attachment_errors_propagate_at_the_same_step(mech):
    from ckplab._kernel import KernelEngine

    feats = Features(attach=DegreeCapped(6), parent_count=LAW_MIX,
                     check_rate=0.3, check_depth=3, mechanism=mech,
                     error_rate=0.1, detection_rate=0.8)
    init = init_chain(4, 1, CT)
    seed = 12
    eng = PyEngine(feats, init, SimChooser(seed))
    with pytest.raises(DegreeCapReached):
        eng.run(10_000)
    assert eng.step_index > 1

    ker = KernelEngine(feats, init, seed)
    with pytest.raises(DegreeCapReached):
        ker.run(10_000)
    assert ker.export_bookkeeping()["step_index"] == eng.step_index


def root_with_children(kids):
    s = init_chain(1, 1, CF)
    for _ in range(kids):
        s.add_node([0], CT)
    return s


# (attachment, the first degree whose weight is refused, the refusal)
NONFINITE_WEIGHTS = [
    pytest.param(TableAttachment((1e308,), 1e308), 1,
                 "attachment weight at degree 1 is inf, not finite",
                 id="affine"),
    pytest.param(TableAttachment((1.0, 1e308, 1e308), 1e308), 3,
                 "attachment weight at degree 3 is inf, not finite",
                 id="table"),
    pytest.param(PowerShifted(1, 2000), 1,
                 "attachment weight at degree 1 overflows the float range "
                 "((34, 'Numerical result out of range'))", id="power"),
]


@pytest.mark.parametrize("backend", [
    "python", pytest.param("compiled", marks=needs_kernel)])
@pytest.mark.parametrize("attach,degree,message", NONFINITE_WEIGHTS)
def test_nonfinite_weights_are_refused_by_name(attach, degree, message,
                                               backend):
    """A weight past the float range is refused when a degree first
    enters the weight table, with one text on both backends: at a
    step, from a root one edge short of that degree, and at set-up,
    from a state that has it already.  ``mc_drift`` fills its pool
    through the same function."""
    feats = Features(attach, ParentCountLaw.const(1), 0.5, 2, "bfs",
                     error_rate=0.1)
    for init in (root_with_children(degree - 1),
                 root_with_children(degree)):
        with pytest.raises(ValueError) as err:
            run_trial(feats, init, 50, seed=1, backend=backend)
        assert str(err.value) == message
    if backend == "python":
        with pytest.raises(ValueError) as err:
            mc_drift(root_with_children(degree), feats,
                     MinDistance(preferential(), 3), 20, 1)
        assert str(err.value) == message


TOTAL_PAST_RANGE = "attachment weight total is inf, not finite"


@pytest.mark.parametrize("backend", [
    "python", pytest.param("compiled", marks=needs_kernel)])
def test_nonfinite_weight_totals_are_refused_by_name(backend):
    """Finite weights whose total overflows would make every draw
    ``u * inf``.  The total is refused with one text on both backends:
    at set-up, from a chain whose two degree-1 nodes weigh 1e308 each,
    and at the step whose edge takes it past the float range, the same
    step on both; ``mc_drift``'s pool refuses it too."""
    feats = Features(TableAttachment((1.0, 1e308, 1e308), 1e308),
                     ParentCountLaw.const(1), 0.5, 2, "bfs", error_rate=0.1)
    with pytest.raises(ValueError) as err:
        run_trial(feats, init_chain(3, 1, CT), 50, seed=1, backend=backend)
    assert str(err.value) == TOTAL_PAST_RANGE
    if backend == "python":
        with pytest.raises(ValueError) as err:
            mc_drift(init_chain(3, 1, CT), feats,
                     MinDistance(preferential(), 3), 20, 1)
        assert str(err.value) == TOTAL_PAST_RANGE

    # a(d) = 1e307 * d: 9 edges weigh 9e307, each new edge adds 1e307
    # and each mark takes its node's edges away, so marks put the 18th
    # edge past step 9, while no node comes near the degree whose own
    # weight overflows
    feats = Features(TableAttachment((0,), 1e307), ParentCountLaw.const(1),
                     0.5, 2, "bfs", error_rate=0.3)
    init = init_chain(10, 1, CT)
    eng = PyEngine(feats, init, SimChooser(2))
    with pytest.raises(ValueError) as err:
        eng.run(50)
    assert str(err.value) == TOTAL_PAST_RANGE
    assert eng.step_index > 9 and eng.state.pf_total > 0
    if backend == "compiled":
        from ckplab._kernel import KernelEngine

        ker = KernelEngine(feats, init, 2)
        with pytest.raises(ValueError) as err:
            ker.run(50)
        assert str(err.value) == TOTAL_PAST_RANGE
        assert ker.export_bookkeeping()["step_index"] == eng.step_index


def hex_record(book) -> dict:
    """An exported bookkeeping record with every float as ``float.hex``,
    so a zero's sign or an ulp shows."""
    def norm(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, list):
            return [norm(y) for y in x]
        if isinstance(x, dict):
            return {k: norm(y) for k, y in x.items()}
        return x
    return norm(book)


@needs_kernel
def test_derived_weights_agree_across_regrowths():
    """The kernel stores no weight column: it reads each slot's weight
    from the node's degree and label.  A table with a zero hole and a
    -0.0 entry, three parent picks a step (so parents repeat) and a
    marking mechanism drive the index through regrowths at 1024 and
    2048 nodes, each inside a step whose parents' degrees are about to
    move, and past degree falls from marks.  Both records, floats by
    their bits, must agree at every checkpoint."""
    from ckplab._kernel import KernelEngine

    feats = Features(attach=TableAttachment((1.0, 0.0, 40.0, -0.0, 6.0),
                                            0.5),
                     parent_count=ParentCountLaw({1: 0.5, 3: 0.5}),
                     check_rate=0.5, check_depth=3, mechanism="complete",
                     error_rate=0.2, detection_rate=0.8)
    init = init_chain(5, 2, CT)
    eng = PyEngine(feats, init, SimChooser(2718))
    ker = KernelEngine(feats, init, 2718)
    negative_zero = False
    for steps in (700, 330, 1, 1100, 1300):
        assert ker.run(steps) == eng.run(steps)
        assert dump_state(ker.export_state()) == dump_state(eng.state)
        assert (hex_record(ker.export_bookkeeping())
                == hex_record(eng.export_bookkeeping()))
        negative_zero |= any(math.copysign(1.0, w) < 0
                             for w in eng.windex.weights)
    assert eng.windex.capacity == 4096
    assert len(eng.state.labels) == 5 + 3431
    assert eng.state.pf_total > 0
    assert any(len(set(ps)) < len(ps) for ps in eng.state.parents)
    assert negative_zero


def regrowth_case(name):
    """Features, start, and the index's capacity before each regrowth
    :func:`test_exact_and_inexact_regrowths_agree` crosses."""
    from ckplab._kernel import KernelEngine

    if name == "straddling":
        # the trial-ct process, grown on the kernel to 1,525 nodes, so
        # imported off the powers of two
        feats = case_features("complete", 0.05, "preferential", 0.5, 5)
        grower = KernelEngine(feats, init_chain(25, 1, CT), 11)
        grower.run(1500)
        return feats, grower.export_state(), (2048, 4096)
    attach = {"past-2**53": TableAttachment((2.0**43 + 1,), 2.0**43 + 3),
              "half-integer": TableAttachment((1.5, 0.5, 2.5), 0.5)}[name]
    feats = Features(attach=attach, parent_count=ParentCountLaw({1: 0.5,
                                                                 2: 0.5}),
                     check_rate=0.3, check_depth=3, mechanism="bfs",
                     error_rate=0.2, detection_rate=0.8)
    return feats, init_chain(5, 1, CT), (1024, 2048)


@needs_kernel
@pytest.mark.parametrize("case", ["straddling", "past-2**53",
                                  "half-integer"])
def test_exact_and_inexact_regrowths_agree(case):
    """A regrowth keeps the tree and copies its root, whatever the
    weights: integer ones whose sums are exact, a large integer table
    whose totals pass 2**53 before its regrowths, and half-integer ones.
    Both records, floats by their bits, and both states must agree just
    before and just after each regrowth.  Imported at 1,525 nodes, the
    index starts at 2,048, so slots past the last node start empty."""
    from ckplab._kernel import KernelEngine

    feats, init, capacities = regrowth_case(case)
    eng = PyEngine(feats, init, SimChooser(5))
    ker = KernelEngine(feats, init, 5)
    for cap in capacities:
        # the step that appends node ``cap`` regrows the index
        for steps in (cap - len(eng.state.labels), 1):
            assert ker.run(steps) == eng.run(steps)
            assert dump_state(ker.export_state()) == dump_state(eng.state)
            assert (hex_record(ker.export_bookkeeping())
                    == hex_record(eng.export_bookkeeping()))
        assert eng.windex.capacity == 2 * cap


def fingerprint_run(name):
    """Features, start, seed and step count of a fingerprinted run.
    The chain starts cross the index's regrowths at 1,024, 2,048 and
    4,096 nodes; the 1,525-node start, imported off the powers of two,
    crosses the one at 2,048."""
    if name.startswith("grown"):
        feats, init, _ = regrowth_case("straddling")
        if name == "grown-table":
            feats = replace(feats, attach=TableAttachment((0.1,), 0.7))
        return feats, init, 3, 600
    attach = {"table": TableAttachment((0.1,), 0.7),
              "power": PowerShifted(1, Fraction(3, 2))}[name]
    feats = Features(attach=attach, parent_count=LAW_MIX, check_rate=0.3,
                     check_depth=3, mechanism="bfs", error_rate=0.1,
                     detection_rate=0.8)
    return feats, init_chain(25, 1, CT), 7, 4100


# sha256 of dump_state and of the run summary (JSON, sorted keys) at the
# end of each run.  The parity tests compare the backends with each
# other, so a change that moved both the same way would pass them, but
# not these
TRAJECTORY_FINGERPRINTS = {
    "table": (
        "c9c9a2d585f2ff57c0bf1bdc9057dec0ead78e891af54bdbefd8e90dfac46659",
        "064e71d9575a0b70a21a82bbcb265bdd6b2e8f990c90b31f6ff98c35700e014a"),
    "power": (
        "58e5704a15e18213d7c8598b582574b8dd8c00a487db5722a1cca778849045e2",
        "311006507412aa63850256af91b13167b272b059a42e60b23bc39e4ed785dfb1"),
    "grown": (
        "1f9e69a0efe3c7ffc6116cc35f839de0f79371c31ba4bf6b6215673c88d851fa",
        "bdbd612525f30d41a18116b681246332ac2133067ba04c5c5448eb8141ad2692"),
    "grown-table": (
        "cb9359dd211a22f736d570373e6d26ef3d5e8573490212f32b991e49fbee3533",
        "42d6b974fd4fe5e39515d0688a7194183e44035bad6274c071192bb59de0d89c"),
}


@pytest.mark.parametrize("backend", [
    "python", pytest.param("compiled", marks=needs_kernel)])
@pytest.mark.parametrize("name", [
    "table", "power", pytest.param("grown", marks=needs_kernel),
    pytest.param("grown-table", marks=needs_kernel)])
def test_trajectory_fingerprints(name, backend):
    feats, init, seed, steps = fingerprint_run(name)
    if backend == "python":
        eng = PyEngine(feats, init, SimChooser(seed))
        summary = eng.run(steps)
        state = eng.state
    else:
        from ckplab._kernel import KernelEngine

        eng = KernelEngine(feats, init, seed)
        summary = eng.run(steps)
        state = eng.export_state()
    assert summary["stopped_at"] is None
    got = tuple(hashlib.sha256(text.encode()).hexdigest()
                for text in (dump_state(state),
                             json.dumps(summary, sort_keys=True)))
    assert got == TRAJECTORY_FINGERPRINTS[name]


@needs_kernel
def test_superlinear_weights_stay_within_the_audit_bound_across_regrowths():
    """Regrowths add nothing to the tree, so its float drift is only
    what the updates leave: with growing non-integer weights across
    three regrowths both records still pass the full audit."""
    feats, init, seed, steps = fingerprint_run("power")
    eng, ker, _ = run_both(feats, init, seed, steps)
    assert eng.windex.capacity == 8192     # three regrowths, from 1,024
    for engine in (eng, ker):
        deep_audit_compiled(engine, feats)


@needs_kernel
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 1525, "straddling"])
def test_imported_index_capacity_is_one_power_of_two(n):
    """Each engine fills its index at construction with one append per
    node into 1,024 empty slots, so the capacity is the least power of
    two from 1,024 up that holds every node, and the two records agree
    whole, floats by their bits.  The straddling state, grown on the
    kernel to 1,525 nodes, has PF nodes; its table has a -0.0 head
    entry, which its PT leaves read, and weights that are not dyadic."""
    from ckplab._kernel import KernelEngine

    if n == "straddling":
        feats, init, _ = regrowth_case("straddling")
        feats = replace(feats, attach=TableAttachment((-0.0, 0.1), 1.3))
        assert init.pf_total > 0
    else:
        feats = case_features("bfs", 0.1, "rounding", 0.3, 3)
        init = init_chain(n, 1, CT)
    size = len(init.labels)
    eng = PyEngine(feats, init, SimChooser(0))
    ker = KernelEngine(feats, init, 0)
    want = max(1024, 1 << (size - 1).bit_length())
    assert len(eng.export_bookkeeping()["tree"]) == want + 1
    assert (hex_record(ker.export_bookkeeping())
            == hex_record(eng.export_bookkeeping()))
    if n == "straddling":
        assert math.copysign(1.0, eng.aval[0]) < 0
        assert 0 in {d for lab, d in zip(init.labels, init.deg_pt)
                     if lab != PF}


def hub_with_many_parents(parents=600, grandparents=400):
    """A hidden-False CT hub below ``parents`` distinct parents, each
    below two of ``grandparents`` roots; every fifth parent and every
    fourth root is CF.  The hub has five CT children, so under
    ``HUB_ONLY`` it is the one node a step can attach to, and a check
    from its child walks a ball of about a thousand nodes."""
    s = CkpState()
    for g in range(grandparents):
        s.add_root(CF if g % 4 == 0 else CT)
    for i in range(parents):
        a = i % grandparents
        s.add_node([a, (a + 1 + i // grandparents) % grandparents],
                   CF if i % 5 == 0 else CT)
    hub = s.add_node(range(grandparents, grandparents + parents), CT)
    for _ in range(5):
        s.add_node([hub], CT)
    assert s.is_false[hub] and s.labels[hub] == CT
    return s


# a(d) = 0 below degree 5 and d from there on
HUB_ONLY = TableAttachment((0.0, 0.0, 0.0, 0.0, 0.0, 5.0), 1.0)


@needs_kernel
@pytest.mark.parametrize("mech,detection", [
    ("bfs", 0.002), ("complete", 0.002), ("complete", 0.1)])
def test_large_balls_agree(mech, detection):
    """Each step attaches below the hub and checks a ball of about a
    thousand nodes, far past a walk's first scratch size; a rare
    detection lets several such walks pass before a find, and a common
    one gives a sweep dozens of finds, each with its closure.  Both
    records must agree whole."""
    init = hub_with_many_parents()
    feats = Features(HUB_ONLY, ParentCountLaw.const(1), check_rate=0.9,
                     check_depth=3, mechanism=mech, error_rate=0.1,
                     detection_rate=detection)
    marked = 0
    for seed in range(6):
        eng, ker, summary = run_both(feats, init, seed, 60)
        assert_same_engines(eng, ker)
        assert (hex_record(ker.export_bookkeeping())
                == hex_record(eng.export_bookkeeping()))
        marked = max(marked, eng.state.pf_total)
    assert marked >= (20 if detection > 0.01 else 2)


@needs_kernel
@pytest.mark.parametrize("mech", ["stringy", "bfs", "complete"])
def test_trial_results_identical_modulo_backend(mech):
    feats = case_features(mech, 0.25, "preferential", 0.4, 3)
    init = init_chain(25, 1, CF)
    kwargs = dict(checkpoint_steps=(0, 7, 50, 1000), audit="full")
    py = run_trial(feats, init, 300, seed=5, backend="python", **kwargs)
    ck = run_trial(feats, init, 300, seed=5, backend="compiled", **kwargs)
    assert py.backend == "python" and ck.backend == "compiled"
    assert replace(py, backend="compiled") == ck


@needs_kernel
@pytest.mark.parametrize("mech,seed,exit_at", [("bfs", 1, 37),
                                               ("complete", 4, 21)])
def test_audited_pieces_agree_with_one_run(mech, seed, exit_at):
    """Either engine, run in calls of 7 steps with a deep audit after
    each, ends where one call does.  Each call counts its checkpoints
    from its own start and reports the frozen counts past the
    elimination exit, which falls inside a call (37) or on a call's last
    step (21)."""
    from ckplab._kernel import KernelEngine

    feats = case_features(mech, 0.0, "preferential", 0.6, 3)
    init = init_chain(8, 1, CF)
    one = KernelEngine(feats, init, seed).run(400, range(401))
    assert one["eliminated_at"] == exit_at
    counts_at = dict(one.pop("checkpoints"))
    for eng in (PyEngine(feats, init, SimChooser(seed)),
                KernelEngine(feats, init, seed)):
        done = 0
        while True:
            summary = eng.run(7, (0, 3, 7, 10**6))
            deep_audit_compiled(eng, feats)
            assert summary.pop("checkpoints") == [
                (0, counts_at[done]), (3, counts_at[done + 3]),
                (7, counts_at[done + 7]), (10**6, summary["final_counts"])]
            done += 7
            if not summary["survived_at_horizon"]:
                break
        assert done == 7 * math.ceil(exit_at / 7)
        assert summary == one


@needs_kernel
def test_auto_prefers_compiled_when_eligible():
    feats = case_features("bfs", 0.0, "preferential", 0.5, 2)
    init = init_chain(5, 1, CF)
    assert run_trial(feats, init, 50, seed=1).backend == "compiled"


@needs_kernel
def test_auto_falls_back_for_adversarial_variants():
    feats = case_features("bfs", 0.0, "preferential", 0.5, 2)
    adversarial = Features(
        attach=feats.attach, parent_count=feats.parent_count,
        check_rate=feats.check_rate, check_depth=feats.check_depth,
        mechanism=feats.mechanism, adversary_rate=0.2, adversary_budget=2)
    assert not compiled_supports(adversarial)
    init = init_chain(5, 1, CF)
    assert run_trial(adversarial, init, 50, seed=1).backend == "python"


@needs_kernel
def test_auto_falls_back_when_tracing():
    import io

    feats = case_features("bfs", 0.0, "preferential", 0.5, 2)
    init = init_chain(5, 1, CF)
    sink = io.StringIO()
    result = run_trial(feats, init, 20, seed=1, trace=sink)
    assert result.backend == "python"
    assert sink.getvalue().count("\n") > 0


@needs_kernel
def test_compiled_backend_refuses_uncovered_variants():
    feats = case_features("bfs", 0.0, "preferential", 0.5, 2)
    adversarial = Features(
        attach=feats.attach, parent_count=feats.parent_count,
        check_rate=feats.check_rate, check_depth=feats.check_depth,
        mechanism=feats.mechanism, adversary_rate=0.2, adversary_budget=2)
    init = init_chain(5, 1, CF)
    with pytest.raises(RuntimeError):
        run_trial(adversarial, init, 50, seed=1, backend="compiled")


def test_run_trial_validates_arguments():
    feats = case_features("bfs", 0.0, "preferential", 0.5, 2)
    init = init_chain(5, 1, CF)
    with pytest.raises(ValueError):
        run_trial(feats, init, 0, seed=1)
    with pytest.raises(ValueError):
        run_trial(feats, init, 10, seed=1, audit="paranoid")
    with pytest.raises(ValueError):
        run_trial(feats, init, 10, seed=1, backend="gpu")


@pytest.mark.parametrize("backend", [
    "python", pytest.param("compiled", marks=needs_kernel)])
def test_full_audit_passes_a_deep_chain(backend):
    # 3.0**699, the distance term of the chain's last node, is past the
    # float range; the audit's verdict must not need it
    feats = case_features("bfs", 0.0, "preferential", 0.5, 2)
    result = run_trial(feats, init_chain(700, 1, CF), 10, 1, audit="full",
                       backend=backend)
    assert result.backend == backend


@needs_kernel
def test_deep_audit_catches_doctored_bookkeeping():
    from ckplab._kernel import KernelEngine

    feats = case_features("bfs", 0.25, "preferential", 0.4, 3)
    init = init_chain(12, 2, CF)
    ker = KernelEngine(feats, init, 99)
    ker.run(200)
    deep_audit_compiled(ker, feats)

    class Doctored:
        def export_state(self):
            return ker.export_state()

        def export_bookkeeping(self):
            book = ker.export_bookkeeping()
            book["pt_false"] += 1
            return book

    with pytest.raises(AuditViolation):
        deep_audit_compiled(Doctored(), feats)

    class DoctoredWeights:
        def export_state(self):
            return ker.export_state()

        def export_bookkeeping(self):
            book = ker.export_bookkeeping()
            book["weights"] = list(book["weights"])
            book["weights"][0] += 0.5
            return book

    with pytest.raises(AuditViolation):
        deep_audit_compiled(DoctoredWeights(), feats)


@needs_kernel
@pytest.mark.parametrize("key,slot,delta", [
    ("weights", 3, 1), ("weight_total", None, 1),
    ("weight_total", None, math.nan), ("weight_positive", None, 1),
    ("tree", 1, 1),     # slot 1 holds weights[0]
    ("tree", -2, 1),    # a slot whose block starts past the last node
])
def test_full_audit_checks_the_kernels_weight_index(key, slot, delta):
    from ckplab._kernel import KernelEngine

    feats = case_features("bfs", 0.25, "preferential", 0.4, 3)
    ker = KernelEngine(feats, init_chain(12, 2, CF), 99)
    ker.run(200)
    state, book = ker.export_state(), ker.export_bookkeeping()
    full_audit(state, feats, book)
    if slot is None:
        book[key] += delta
    else:
        book[key][slot] += delta
    with pytest.raises(AuditViolation):
        full_audit(state, feats, book)


@needs_kernel
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_export_state_pauses_the_collector(enabled):
    """``export_state`` builds two lists per node with the cyclic
    collector paused, so none of its passes runs inside the export, and
    it leaves the collector as it found it."""
    from ckplab._kernel import KernelEngine

    feats = case_features("bfs", 0.1, "preferential", 0.3, 3)
    ker = KernelEngine(feats, init_chain(5, 1, CT), 3)
    ker.run(2000)                 # 4,000 lists: past gen 0's threshold
    passes = []

    def callback(phase, info):
        passes.append(phase)

    was = gc.isenabled()
    gc.callbacks.append(callback)
    try:
        (gc.enable if enabled else gc.disable)()
        state = ker.export_state()
        assert gc.isenabled() == enabled
        assert passes == []
    finally:
        gc.callbacks.remove(callback)
        (gc.enable if was else gc.disable)()
    assert len(state.labels) == 2005


@needs_kernel
def test_kernel_rejects_adversarial_features():
    from ckplab._kernel import KernelEngine

    feats = case_features("bfs", 0.0, "preferential", 0.5, 2)
    adversarial = Features(
        attach=feats.attach, parent_count=feats.parent_count,
        check_rate=feats.check_rate, check_depth=feats.check_depth,
        mechanism=feats.mechanism, adversary_rate=0.2, adversary_budget=2)
    with pytest.raises(ValueError):
        KernelEngine(adversarial, init_chain(5, 1, CF), 1)


@needs_kernel
def test_checkpoints_past_early_exit_report_frozen_counts():
    feats = case_features("bfs", 0.0, "preferential", 0.9, 6)
    init = init_chain(3, 1, CF)
    kwargs = dict(checkpoint_steps=(10**6,))
    py = run_trial(feats, init, 400, seed=3, backend="python", **kwargs)
    ck = run_trial(feats, init, 400, seed=3, backend="compiled", **kwargs)
    assert py.checkpoints == [(10**6, py.final_counts)]
    assert ck.checkpoints == py.checkpoints


@needs_kernel
@pytest.mark.parametrize("step", [1.5, 2.0, "3", True, -1, 10**30])
def test_engines_agree_on_odd_checkpoint_steps(step):
    """A checkpoint that is not an integer raises one ``TypeError`` on
    both engines; an integer one is reported under the caller's own
    object, so ``True`` stays ``True``."""
    from ckplab._kernel import KernelEngine

    feats = case_features("bfs", 0.25, "preferential", 0.4, 3)
    init = init_chain(5, 1, CF)
    outcomes = []
    for eng in (PyEngine(feats, init, SimChooser(3)),
                KernelEngine(feats, init, 3)):
        try:
            outcomes.append(eng.run(20, (step,)))
        except TypeError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
    if isinstance(step, int):
        [(at, _)] = outcomes[0]["checkpoints"]
        assert at is step
    else:
        assert "cannot be interpreted as an integer" in outcomes[0]


@needs_kernel
def test_backends_agree_past_a_32_bit_horizon():
    feats = Features(preferential(), ParentCountLaw.const(1), 1, 4,
                     "complete")
    init = init_chain(3, 1, CF)
    py = run_trial(feats, init, 2**40, 1, backend="python")
    ck = run_trial(feats, init, 2**40, 1, backend="compiled")
    assert py.eliminated_at == 2
    assert replace(py, backend="compiled") == ck


@needs_kernel
@pytest.mark.parametrize("mechanism", ["bfs", "stringy"])
@pytest.mark.parametrize("depth", [2**31, 2**32 + 1, 2**70])
def test_backends_agree_past_a_32_bit_check_depth(mechanism, depth):
    # no ball or walk is deeper than the node count, so any depth past
    # it checks as far as the graph reaches; the cheap audit's cap grows
    # with the stringy depth
    feats = Features(preferential(), ParentCountLaw({1: 0.5, 2: 0.5}), 0.9,
                     depth, mechanism)
    init = init_chain(40, 1, CF)
    py = run_trial(feats, init, 300, 1, audit="cheap", backend="python")
    ck = run_trial(feats, init, 300, 1, audit="cheap", backend="compiled")
    assert replace(py, backend="compiled") == ck


@needs_kernel
@pytest.mark.parametrize("count", [2**31, 2**32 + 1, 2**70])
def test_kernel_refuses_a_parent_count_it_cannot_hold(count):
    from ckplab._kernel import KernelEngine

    feats = Features(preferential(), ParentCountLaw({1: 0.5, count: 0.5}),
                     0.5, 2, "bfs")
    with pytest.raises(OverflowError, match=f"parent count {count} is too "
                                            "large for the kernel"):
        KernelEngine(feats, init_chain(3, 1, CF), 1)


@needs_kernel
def test_kernel_reads_the_law_as_its_support_and_cum():
    from ckplab._kernel import KernelEngine

    below = ParentCountLaw({1: 0.5, 2: 0.5})
    below.support = [0, 2]
    uneven = ParentCountLaw.const(1)
    uneven.cum = [0.5, 1.0]
    for law, message in ((below, "parent count 0 is below 1"),
                         (uneven, "cum of its length")):
        feats = Features(preferential(), law, 0.5, 2, "bfs")
        with pytest.raises(ValueError, match=message):
            KernelEngine(feats, init_chain(3, 1, CF), 1)


# A law whose max understates its support: the kernel used to size its
# parent buffers by max and overrun them, corrupting the heap, so the run
# is made in a child interpreter, where an abort fails the test alone.
UNDERSTATED_MAX = """
import sys
from dataclasses import replace
sys.path.insert(0, {src!r})
import ckplab
ckplab.__path__.insert(0, {kernel_dir!r})
from ckplab import _kernel
assert _kernel.__file__ == {kernel_file!r}
from ckplab.attachment import ParentCountLaw, preferential
from ckplab.engine import run_trial
from ckplab.evolution import Features, init_chain
from ckplab.state import CT

class Understated(ParentCountLaw):
    @property
    def max(self):
        return 1

feats = Features(preferential(), Understated({{1: 0.5, 40: 0.5}}), 0.3, 3,
                 "bfs", error_rate=0.1)
runs = [run_trial(feats, init_chain(5, 1, CT), 200, 7, backend=backend)
        for backend in ("python", "compiled")]
assert runs[0].final_counts["nodes"] > 100, runs[0]
assert replace(runs[0], backend="compiled") == runs[1]
print("equal")
"""


@needs_kernel
def test_backends_agree_on_a_law_whose_max_understates_its_support():
    from ckplab import _kernel

    kernel = Path(_kernel.__file__)
    script = UNDERSTATED_MAX.format(
        src=str(Path(__file__).resolve().parent.parent / "src"),
        kernel_dir=str(kernel.parent), kernel_file=str(kernel))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "equal\n"), proc.stderr


@needs_kernel
def test_kernel_rejects_malformed_states():
    from ckplab._kernel import KernelEngine

    feats = case_features("bfs", 0.0, "preferential", 0.5, 2)
    for name in CkpState.__slots__:
        short = init_chain(5, 1, CF)
        column = getattr(short, name)
        if isinstance(column, list):    # every per-node column
            column.pop()
            with pytest.raises(StateError, match="differ in length"):
                KernelEngine(feats, short, 1)
    dangling = init_chain(5, 1, CF)
    dangling.parents[3] = [7]
    with pytest.raises(StateError, match="parent id 7"):
        KernelEngine(feats, dangling, 1)


def true_cf():
    s = init_chain(3, 1, CT)
    s.labels[1] = CF
    s.deg_ct[0] -= 1
    return s


def true_pf():
    s = init_chain(3, 1, CT)
    s.labels[2] = PF
    s.deg_pt[1] -= 1
    s.deg_ct[1] -= 1
    s.pf_total = 1
    return s


def true_below_false():
    s = init_chain(3, 1, CF)
    s.is_false[2] = False
    return s


def cf_root_unset():
    s = init_chain(12, 2, CF)
    s.is_false[0] = False       # its children stay False, above it in id
    return s


def last_node_true():
    s = init_chain(12, 2, CF)
    s.is_false[11] = False
    return s


def true_deep_in_a_cone():
    # a False cone under a CT chain, with True nodes born beside it
    s = init_chain(6, 1, CT)
    cone = [s.add_node([5], CF)]
    for i in range(20):
        if i % 3 == 2:
            s.add_node([i % 6], CT)
        else:
            cone.append(s.add_node([cone[-1], i % 6], CT))
    assert cone[-4] == 22       # cone nodes above it and below it
    s.is_false[22] = False      # the False nodes below it lack a cause
    return s


BROKEN_TRUTH = [(true_cf, "CF node 1"), (true_pf, "PF node 2"),
                (true_below_false, "node 2 descends from a False node"),
                (cf_root_unset, "CF node 0 has is_false unset"),
                (last_node_true,
                 "node 11 descends from a False node but is True"),
                (true_deep_in_a_cone,
                 "node 22 descends from a False node but is True")]


def kernel_engine(feats, init, seed):
    from ckplab._kernel import KernelEngine
    return KernelEngine(feats, init, seed)


# what takes a state in, with the error it refuses one with: both
# engines, the exact drift and the deep audit, which reads no
# bookkeeping before it has checked the state
STATE_TAKERS = [
    pytest.param(
        lambda feats, init, seed: PyEngine(feats, init, SimChooser(seed)),
        StateError, id="python"),
    pytest.param(kernel_engine, StateError, id="compiled",
                 marks=needs_kernel),
    pytest.param(
        lambda feats, init, seed: exact_drift(
            init, feats, MinDistance(preferential(), 3)),
        StateError, id="exact_drift"),
    pytest.param(lambda feats, init, seed: full_audit(init, feats, {}),
                 AuditViolation, id="full_audit"),
]


@pytest.mark.parametrize("build,message", BROKEN_TRUTH)
@pytest.mark.parametrize("make_engine,error", STATE_TAKERS + [
    pytest.param(lambda feats, init, seed: load_state(dump_state(init)),
                 StateError, id="load_state"),
])
def test_engines_refuse_broken_truth(build, message, make_engine, error):
    """The ball walks skip hidden-True starts, which is exact only when
    every CF and PF node is False and falseness flows down every edge.
    Both engines, the exact drift, the deep audit and the text format
    refuse a state that breaks this, naming its lowest broken node: at
    the first node, at the last one, or deep in a False cone."""
    feats = case_features("bfs", 0.1, "preferential", 0.5, 2)
    with pytest.raises(error, match=message):
        make_engine(feats, build(), 1)



def degree_edited():
    s = init_chain(5, 1, CF)
    s.deg_pt[0] = 7            # node 0 would weigh a(7)
    return s


def children_emptied():
    s = init_chain(3, 1, CF)
    s.is_false[2] = False      # breaks the truth rule only a child list shows
    s.children[1] = []
    return s


def pf_total_edited():
    s = init_chain(4, 1, CF)
    s.pf_total = 1
    return s


def pf_edges_and_ct_degree_edited():
    s = init_chain(6, 1, CT)
    s.pf_parent_edges[4] = 1
    s.deg_ct[2] = 0            # the lower node is named
    return s


def children_reversed():
    s = init_chain(2, 1, CF)
    s.add_node([0], CT)
    s.children[0].reverse()    # [2, 1]: the right children, out of order
    return s


def label_unknown():
    s = init_chain(3, 1, CF)
    s.labels[0] = 7            # an error no check could ever find
    return s


STALE_COLUMNS = [
    (degree_edited, "node 0: deg_pt is 7, recount 1"),
    (children_emptied, "node 1: children do not mirror the parent lists"),
    (pf_total_edited, "pf_total is 1, recount 0"),
    (pf_edges_and_ct_degree_edited, "node 2: deg_ct is 0, recount 1"),
    (children_reversed, "node 0: children do not mirror the parent lists"),
    (label_unknown, "node 0: label 7 is not CT, CF or PF"),
]


@pytest.mark.parametrize("build,message", STALE_COLUMNS)
@pytest.mark.parametrize("make_engine,error", STATE_TAKERS)
def test_engines_refuse_stale_derived_columns(build, message, make_engine,
                                              error):
    """A state with a label other than CT, CF or PF, or whose derived
    columns were edited out of step with its labels and parents, is
    refused before the truth rule is judged, with one message on both
    engines, in the exact drift and in the deep audit."""
    feats = case_features("bfs", 0.1, "preferential", 0.5, 2)
    with pytest.raises(error) as err:
        make_engine(feats, build(), 1)
    assert str(err.value) == message


@pytest.mark.parametrize("column", ["deg_pt", "deg_ct", "pf_parent_edges"])
@pytest.mark.parametrize("make_engine,error", STATE_TAKERS)
def test_engines_refuse_a_derived_column_of_another_type(column,
                                                         make_engine, error):
    """A derived column that holds its recount's values in a tuple
    equals the recount nowhere element by element, so it is refused by
    its name and type rather than at a node."""
    init = init_chain(4, 1, CF)
    setattr(init, column, tuple(getattr(init, column)))
    feats = case_features("bfs", 0.1, "preferential", 0.5, 2)
    with pytest.raises(error) as err:
        make_engine(feats, init, 1)
    assert str(err.value) == f"{column} is a tuple, not a list"


@needs_kernel
def test_exported_and_loaded_states_pass_the_recount():
    """What an engine exports, and what ``load_state`` reads, starts
    either engine again."""
    from ckplab._kernel import KernelEngine

    feats = case_features("complete", 0.25, "rounding", 0.3, 2)
    eng, ker, summary = run_both(feats, init_chain(12, 2, CF), 5, 300)
    assert summary["final_counts"]["pf"] > 0
    for state in (eng.export_state(), ker.export_state(),
                  load_state(dump_state(eng.export_state()))):
        eng2, ker2 = PyEngine(feats, state, SimChooser(6)), \
            KernelEngine(feats, state, 6)
        assert ker2.run(100) == eng2.run(100)
