"""Backend agreement: the compiled kernel replays the pure engine's
decision stream draw for draw, and the dispatcher routes requests to
the right backend."""

import gc
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from ckplab.attachment import (
    Affine, ParentCountLaw, TableAttachment, preferential, uniform,
)
from ckplab.audits import full_audit
from ckplab.checking import MECHANISMS
from ckplab.engine import (
    compiled_supports, deep_audit_compiled, kernel_available, run_trial,
)
from ckplab.evolution import AuditViolation, Features, PyEngine, init_chain
from ckplab.rand import SimChooser
from ckplab.potentials import MinDistance, exact_drift
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
    "rounding": lambda: (Affine(0.1, 0.7), LAW_MIX),
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
    rebuild their index on regrowth, the Python one with numpy folds per
    tree level and the kernel with sequential folds per slot, and the
    two must still agree bit for bit."""
    feats = Features(attach=Affine(0.1, 0.7), parent_count=LAW_MIX,
                     check_rate=0.3, check_depth=3, mechanism="bfs",
                     error_rate=0.05, detection_rate=0.8)
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
    attach = {"rounding": Affine(0.1, 0.7),
              "preferential": preferential()}[attach_name]
    feats = Features(attach=attach, parent_count=BATCHED_LAWS[law],
                     check_rate=0.3, check_depth=3, mechanism="bfs",
                     error_rate=0.1, detection_rate=0.8)
    eng, ker, summary = run_both(feats, init_chain(12, 2, root), 4242, 1000)
    assert summary["stopped_at"] is None
    assert eng.step_index == 1000
    assert_same_engines(eng, ker)


@needs_kernel
def test_batched_picks_at_a_capacity_off_the_powers_of_two():
    """Imported at 1,500 nodes, the index's capacity is 1,500, so the
    descent starts at 1,024 and a pick's next slot often lies past the
    capacity; across the regrowth to 3,000 it still must not be taken."""
    feats = Features(attach=Affine(0.1, 0.7),
                     parent_count=ParentCountLaw.const(3), check_rate=0.3,
                     check_depth=3, mechanism="bfs", error_rate=0.1,
                     detection_rate=0.8)
    eng, ker, _ = run_both(feats, init_chain(1500, 1, CF), 99, 1000)
    assert eng.windex.capacity == 3000
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
    mappings at 1 MB, and double by mremap from there.  From five nodes
    the 32-byte node records double through 5 * 2**k slots: 40,960 of
    them (1.3 MB) are the first mapping, and node 40,961 remaps it.
    Everything laid down before either move has to come through it."""
    feats = Features(attach=preferential(),
                     parent_count=ParentCountLaw.const(1), check_rate=0.1,
                     check_depth=2, mechanism="bfs", error_rate=0.05,
                     detection_rate=0.8)
    eng, ker, summary = run_both(feats, init_chain(5, 1, CT), 9090, 50_000)
    assert summary["stopped_at"] is None
    assert len(eng.state.labels) > 40_960
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
