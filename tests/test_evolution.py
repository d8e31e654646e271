"""Engine dynamics: step branches, stopping, elimination bookkeeping,
adversary legality, audits, and trajectory reproducibility."""

import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from ckplab.attachment import ParentCountLaw, TableAttachment, preferential
from ckplab.audits import full_audit, verify_pf_frozen
from ckplab.engine import deep_audit_compiled, run_trial
from ckplab.evolution import (
    AuditViolation, DeepAttach, Features, LeafAttach, PyEngine, RandomPt,
    init_chain, survival_potential_floor,
)
from ckplab.rand import SimChooser
from ckplab.state import CT, CF, PF, StateError, dump_state

from reference import Scripted


def simple_features(**kw):
    base = dict(attach=preferential(), parent_count=ParentCountLaw.const(1),
                check_rate=0.5, check_depth=2, mechanism="bfs")
    base.update(kw)
    return Features(**base)


STRATEGIES = (DeepAttach(), LeafAttach(), RandomPt())


# -- initial states --------------------------------------------------------

def test_init_chain_shape():
    state = init_chain(25, 2, CF)
    assert len(state.labels) == 25
    assert sum(len(ps) for ps in state.parents) == 48
    assert state.labels[0] == CF
    assert all(lab == CT for lab in state.labels[1:])
    assert all(state.is_false)
    assert [state.deg_pt[v] for v in range(24)] == [2] * 24
    assert state.deg_pt[24] == 0


def test_init_chain_rejects_bad_args():
    with pytest.raises(ValueError):
        init_chain(0, 1, CF)
    with pytest.raises(ValueError):
        init_chain(3, 0, CF)
    # a bool would build a chain of one or zero nodes, and a float die
    # inside range() with a message that names neither argument
    for args, field, value in (((True, 1), "n", "True"),
                               ((2.0, 1), "n", "2.0"),
                               (("3", 1), "n", "'3'"),
                               ((3, False), "edge_multiplicity", "False"),
                               ((3, 1.5), "edge_multiplicity", "1.5")):
        with pytest.raises(ValueError,
                           match=f"{field} must be an integer, got {value}"):
            init_chain(*args, CF)


def test_features_validation():
    with pytest.raises(ValueError):
        simple_features(mechanism="depth-first")
    with pytest.raises(ValueError):
        simple_features(error_rate=1.0)
    with pytest.raises(ValueError):
        simple_features(check_rate=1.5)
    with pytest.raises(ValueError):
        simple_features(check_depth=0)
    with pytest.raises(ValueError):
        simple_features(detection_rate=0.0)
    # a fractional or boolean depth or budget would run as some other
    # integer, or die inside the step
    for field, value in (("check_depth", 2.5), ("check_depth", True),
                         ("check_depth", 2.0), ("adversary_budget", 1.5),
                         ("adversary_budget", False)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            simple_features(**{field: value})
    assert simple_features().simple
    assert not simple_features(error_rate=0.1).simple
    assert not simple_features(adversary_rate=0.1, adversary_budget=1).simple


@pytest.mark.parametrize("field", ["check_rate", "error_rate",
                                   "adversary_rate", "detection_rate"])
def test_features_refuse_a_rate_that_is_not_a_real_number(field):
    # a bool would run as rate 0 or 1, and a string would fail in a
    # comparison without naming the field
    for value in (True, "0.5"):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            simple_features(**{field: value})


# -- single steps ----------------------------------------------------------

def test_two_node_elimination_trace():
    """From a lone CF root with the check certain to run, one step adds a
    child, the search finds the root, and both end PF; the next attempt
    discovers the process is stuck."""
    feats = simple_features(check_rate=1.0, check_depth=1)
    engine = PyEngine(feats, init_chain(1, 1, CF), SimChooser(7))
    rec = engine.step()
    assert rec.branch == "grow"
    assert rec.node == 1 and rec.parents == [0]
    assert rec.outcome.found == [0]
    assert engine.state.labels == [PF, PF]
    assert engine.pt_false == 0 and engine.state.pf_total == 2
    rec2 = engine.step()
    assert rec2.branch == "stopped" and rec2.stopped
    assert engine.stopped and engine.step_index == 2


def test_stopped_is_absorbing():
    feats = simple_features(check_rate=1.0, check_depth=1)
    engine = PyEngine(feats, init_chain(1, 1, CF), SimChooser(7))
    engine.step()
    engine.step()
    frozen_nodes = len(engine.state.labels)
    frozen_index = engine.step_index
    for _ in range(5):
        rec = engine.step()
        assert rec.stopped
    assert len(engine.state.labels) == frozen_nodes
    assert engine.step_index == frozen_index


def test_stuck_when_no_weight_anywhere():
    dead = TableAttachment((0.0,), 0.0)
    feats = simple_features(attach=dead, check_rate=0.0)
    engine = PyEngine(feats, init_chain(1, 1, CF), SimChooser(3))
    rec = engine.step()
    assert rec.branch == "stopped"
    assert engine.stopped


def test_simple_mode_all_nodes_false():
    feats = simple_features(check_rate=0.3, check_depth=2)
    engine = PyEngine(feats, init_chain(1, 1, CF), SimChooser(11))
    for _ in range(300):
        rec = engine.step()
        if rec.stopped:
            break
        if rec.branch == "grow":
            assert rec.label == CT
    assert all(engine.state.is_false)


# -- adversaries -----------------------------------------------------------

def test_branch_frequency_matches_adversary_rate():
    feats = simple_features(check_rate=0.0, mechanism="stringy",
                            adversary_rate=0.3, adversary_budget=1)
    engine = PyEngine(feats, init_chain(1, 1, CF), SimChooser(2024))
    hits = 0
    n = 100_000
    for _ in range(n):
        rec = engine.step()
        assert not rec.stopped
        hits += rec.branch in ("adversary", "adversary-noop")
    assert 0.29 <= hits / n <= 0.31


def test_default_adversary_is_random_pt():
    feats = simple_features(error_rate=0.1, adversary_rate=0.3,
                            adversary_budget=2)
    assert feats.adversary == RandomPt()
    explicit = replace(feats, adversary=RandomPt())
    runs = []
    for f in (feats, explicit):
        engine = PyEngine(f, init_chain(3, 1, CT), SimChooser(11))
        records = [engine.step() for _ in range(300)]
        runs.append((records, dump_state(engine.state),
                     engine.export_bookkeeping()))
    assert sum(rec.branch == "adversary" for rec in runs[0][0]) > 50
    assert runs[0] == runs[1]


@pytest.mark.parametrize("adversary", [None, object(), "deep",
                                       type("NoMove", (), {"move": 3})()])
def test_features_refuse_an_adversary_without_move(adversary):
    with pytest.raises(ValueError, match="adversary must have a callable "
                                         "move"):
        simple_features(adversary=adversary)


def test_deep_attach_picks_farthest_node():
    state = init_chain(4, 1, CF)
    feats = simple_features(adversary_rate=0.5, adversary_budget=2)
    move = DeepAttach().move(state, feats, SimChooser(0))
    assert move == ([3, 3], CT)


def test_leaf_attach_picks_leaves():
    state = init_chain(3, 1, CF)
    feats = simple_features(adversary_rate=0.5, adversary_budget=3)
    move = LeafAttach().move(state, feats, SimChooser(0))
    assert move == ([2], CT)


def test_zero_budget_adversary_noops():
    feats = simple_features(adversary_rate=0.5, adversary_budget=0)
    for adv in STRATEGIES:
        assert adv.move(init_chain(3, 1, CF), feats, SimChooser(1)) is None
    engine = PyEngine(replace(feats, adversary=DeepAttach()),
                      init_chain(3, 1, CF), SimChooser(5))
    branches = {engine.step().branch for _ in range(40)}
    assert "adversary-noop" in branches


def test_scripted_adversary_validates_moves():
    feats = simple_features(adversary_rate=0.5, adversary_budget=1)
    state = init_chain(2, 1, CF)
    with pytest.raises(StateError, match="edge budget"):
        Scripted((0, 1), CT).move(state, feats, SimChooser(0))
    marked = init_chain(2, 1, CF)
    marked.mark_pf({0})
    with pytest.raises(StateError, match="below a PF node"):
        Scripted((0,), CT).move(marked, feats, SimChooser(0))
    # one fixed move, played on every adversarial step
    script = Scripted([1], CF)
    assert script.parents == (1,)
    for _ in range(3):
        assert script.move(state, feats, SimChooser(0)) == ([1], CF)


@pytest.mark.parametrize("adversary", STRATEGIES,
                         ids=["deep", "leaf", "random-pt"])
def test_adversarial_insertions_are_legal(adversary):
    feats = simple_features(check_rate=0.5, check_depth=2,
                            mechanism="exhaustive-bfs", error_rate=0.2,
                            adversary_rate=0.4, adversary_budget=3)
    adversarial_steps = 0
    for seed in range(6):
        engine = PyEngine(replace(feats, adversary=adversary),
                          init_chain(1, 1, CF), SimChooser(seed))
        for _ in range(500):
            rec = engine.step()
            if rec.stopped:
                break
            if rec.branch == "adversary":
                adversarial_steps += 1
                assert len(rec.parents) <= 3
                assert all(engine.state.labels[u] != PF
                           for u in rec.parents)
        verify_pf_frozen(engine.state, feats, engine.export_bookkeeping())
    assert adversarial_steps > 100


# -- elimination bookkeeping -----------------------------------------------

def test_zero_run_marker_tracks_final_run():
    """The recorded elimination time must equal the start of the last
    maximal run of PT-False-free steps, recomputed here from the raw
    per-step counts."""
    feats = Features(attach=preferential(),
                     parent_count=ParentCountLaw.const(1),
                     check_rate=0.6, check_depth=3, mechanism="bfs",
                     error_rate=0.5)
    for seed in range(30):
        engine = PyEngine(feats, init_chain(3, 1, CT), SimChooser(seed))
        expected = 0 if engine.pt_false == 0 else None
        for _ in range(60):
            rec = engine.step()
            if rec.stopped:
                break
            if engine.pt_false == 0:
                if expected is None:
                    expected = engine.step_index
            else:
                expected = None
        assert engine.zero_since == expected


def test_trial_reports_elimination_and_stop():
    feats = simple_features(check_rate=1.0, check_depth=1)
    result = run_trial(feats, init_chain(1, 1, CF), horizon=10, seed=7,
                       backend="python")
    assert result.eliminated_at == 1
    assert not result.survived_at_horizon
    assert result.stopped_at is None  # elimination exits before the attempt
    assert result.final_counts["nodes"] == 2
    assert result.final_counts["pf"] == 2


def test_trial_survives_without_checks():
    feats = simple_features(check_rate=0.0)
    result = run_trial(feats, init_chain(1, 1, CF), horizon=200, seed=3,
                       backend="python")
    assert result.survived_at_horizon
    assert result.eliminated_at is None
    assert result.final_counts["pf"] == 0
    assert result.final_counts["nodes"] == 201


def test_trial_records_stop_attempt_index():
    dead = TableAttachment((0.0,), 0.0)
    feats = simple_features(attach=dead, check_rate=0.0)
    result = run_trial(feats, init_chain(1, 1, CF), horizon=10, seed=1,
                       backend="python")
    assert result.stopped_at == 1
    assert result.final_counts["nodes"] == 1


def test_checkpoints_freeze_after_early_exit():
    feats = simple_features(check_rate=1.0, check_depth=1)
    result = run_trial(feats, init_chain(1, 1, CF), horizon=10, seed=7,
                       checkpoint_steps=(0, 1, 5, 10), backend="python")
    recorded = dict(result.checkpoints)
    assert recorded[0]["nodes"] == 1 and recorded[0]["pt_false"] == 1
    assert recorded[1]["nodes"] == 2 and recorded[1]["pf"] == 2
    assert recorded[5] == recorded[1]
    assert recorded[10] == recorded[1]


def test_holes_attachment_run_survives():
    """With weight only at degree zero the frontier runs away from the
    root, checks at bounded depth never reach it, and the error keeps its
    descendants forever."""
    holes = TableAttachment((1.0, 0.0), 0.0)
    feats = Features(attach=holes, parent_count=ParentCountLaw.const(1),
                     check_rate=0.9, check_depth=5,
                     mechanism="exhaustive-bfs")
    result = run_trial(feats, init_chain(25, 1, CF), horizon=2000, seed=5,
                       backend="python")
    assert result.survived_at_horizon
    assert result.eliminated_at is None
    assert result.final_counts["pf"] == 0
    again = run_trial(feats, init_chain(25, 1, CF), horizon=2000, seed=5,
                      backend="python")
    assert again == result


# -- reproducibility -------------------------------------------------------

def test_horizon_determinism_byte_for_byte():
    feats = Features(attach=preferential(),
                     parent_count=ParentCountLaw({1: 0.5, 2: 0.5}),
                     check_rate=0.4, check_depth=3,
                     mechanism="exhaustive-bfs", error_rate=0.25)
    runs = [run_trial(feats, init_chain(5, 1, CF), horizon=400,
                      seed=1234, checkpoint_steps=(100, 200, 400),
                      audit="cheap", backend="python")
            for _ in range(2)]
    assert runs[0] == runs[1]
    different = run_trial(feats, init_chain(5, 1, CF), horizon=400,
                          seed=1235, checkpoint_steps=(100, 200, 400),
                          backend="python")
    assert different != runs[0]


@pytest.mark.parametrize("backend", ["python", "compiled", "auto"])
def test_run_rejects_bad_horizon(backend):
    for horizon in (0, True, 2.5, 2**63):
        with pytest.raises(ValueError, match="horizon"):
            run_trial(simple_features(), init_chain(1, 1, CF),
                      horizon=horizon, seed=0, backend=backend)


@pytest.mark.parametrize("backend", ["python", "compiled", "auto"])
def test_run_rejects_a_bool_seed_on_every_backend(backend):
    with pytest.raises(ValueError, match="bool"):
        run_trial(simple_features(), init_chain(1, 1, CF), horizon=10,
                  seed=True, backend=backend)


def test_run_rejects_unknown_audit_level():
    with pytest.raises(ValueError, match="paranoid"):
        run_trial(simple_features(), init_chain(1, 1, CF), horizon=10,
                  seed=0, audit="paranoid", backend="python")


# -- audits ----------------------------------------------------------------

MLAWS = [ParentCountLaw.const(1), ParentCountLaw({1: 0.5, 2: 0.5}),
         ParentCountLaw.const(5)]


@pytest.mark.parametrize("mechanism", ["stringy", "bfs", "exhaustive-bfs",
                                       "parentwise-bfs", "complete"])
@pytest.mark.parametrize("law", MLAWS, ids=["m1", "m12", "m5"])
def test_audited_runs_stay_clean(mechanism, law):
    feats = Features(attach=preferential(), parent_count=law,
                     check_rate=0.6, check_depth=2, mechanism=mechanism)
    engine = PyEngine(feats, init_chain(5, 1, CF), SimChooser(17))
    for _ in range(6):
        engine.run(50)
        deep_audit_compiled(engine, feats)


def test_audited_general_mode_run_stays_clean():
    feats = Features(attach=preferential(),
                     parent_count=ParentCountLaw({1: 0.5, 3: 0.5}),
                     check_rate=0.7, check_depth=3, mechanism="complete",
                     error_rate=0.25)
    engine = PyEngine(feats, init_chain(5, 1, CF), SimChooser(23))
    for _ in range(10):
        engine.run(25)
        deep_audit_compiled(engine, feats)
    assert engine.state.pf_total > 0


def test_full_audit_catches_corrupted_counters():
    feats = simple_features(check_rate=0.5)
    engine = PyEngine(feats, init_chain(5, 1, CF), SimChooser(3))
    for _ in range(40):
        engine.step()
    full_audit(engine.state, feats, engine.export_bookkeeping())
    engine.f_count += 1
    with pytest.raises(AuditViolation):
        full_audit(engine.state, feats, engine.export_bookkeeping())
    engine.f_count -= 1
    engine.windex.set_weight(0, 99.0)
    with pytest.raises(AuditViolation):
        full_audit(engine.state, feats, engine.export_bookkeeping())


def _check_cheap_audit(audit_cheap, **kw):
    feats = simple_features(check_rate=0.5, **kw)
    engine = PyEngine(feats, init_chain(5, 1, CF), SimChooser(3),
                      audit_cheap=audit_cheap)
    engine.l_count -= 50      # the potential appears to fall by 50 at once
    if audit_cheap:
        with pytest.raises(AuditViolation, match="fell by"):
            engine.run(5)
    else:
        assert engine.run(5)["final_counts"]["nodes"] > 5


@pytest.mark.parametrize("audit_cheap", [True, False])
def test_cheap_audit_runs_inside_every_step(audit_cheap):
    _check_cheap_audit(audit_cheap)


# a detection rate that rounds to 1.0 is exact detection, as the
# kernel and the detection coin decide it
@pytest.mark.parametrize("audit_cheap", [True, False])
def test_cheap_audit_treats_near_one_detection_as_exact(audit_cheap):
    _check_cheap_audit(audit_cheap,
                       detection_rate=1 - Fraction(1, 10**400))


def test_pf_freeze_audit_catches_growth():
    feats = simple_features(check_rate=1.0, check_depth=1)
    engine = PyEngine(feats, init_chain(1, 1, CF), SimChooser(7))
    engine.step()
    verify_pf_frozen(engine.state, feats, engine.export_bookkeeping())
    engine.pf_child_len[0] -= 1
    with pytest.raises(AuditViolation):
        verify_pf_frozen(engine.state, feats, engine.export_bookkeeping())


def test_survival_potential_floor_values():
    assert survival_potential_floor(simple_features(mechanism="stringy")) == 2
    wide = simple_features(mechanism="stringy",
                           parent_count=ParentCountLaw({1: 0.5, 3: 0.5}),
                           check_depth=2)
    assert survival_potential_floor(wide) == 2 + 1 + 3
    assert survival_potential_floor(simple_features(mechanism="bfs")) == 2
    assert survival_potential_floor(
        simple_features(mechanism="exhaustive-bfs",
                        parent_count=ParentCountLaw.const(4))) == 5
    assert survival_potential_floor(
        simple_features(mechanism="parentwise-bfs",
                        parent_count=ParentCountLaw.const(4))) == 8
    assert survival_potential_floor(simple_features(mechanism="complete")) == 0
    assert survival_potential_floor(
        simple_features(mechanism="complete", adversary_rate=0.1,
                        adversary_budget=6)) == 6


# -- tracing ---------------------------------------------------------------

def test_trace_lines_are_valid_json():
    feats = Features(attach=preferential(),
                     parent_count=ParentCountLaw.const(2),
                     check_rate=0.2, check_depth=2,
                     mechanism="parentwise-bfs", error_rate=0.25)
    sink = io.StringIO()
    result = run_trial(feats, init_chain(3, 1, CF), horizon=60, seed=41,
                       trace=sink, backend="python")
    lines = sink.getvalue().splitlines()
    # general mode has no early elimination exit: one line per step unless
    # the process went stuck
    assert len(lines) == (result.stopped_at or 60)
    assert len(lines) >= 10
    for i, line in enumerate(lines, start=1):
        entry = json.loads(line)
        assert entry["step"] == i
        assert entry["branch"] in ("grow", "adversary", "adversary-noop",
                                   "stopped")
        counts = entry["counts"]
        assert counts["nodes"] == counts["pt"] + counts["pf"]
        if entry["branch"] == "grow":
            assert entry["label"] in ("CT", "CF")
            assert 1 <= len(entry["parents"]) <= 2
            assert sorted(entry["marked"]) == entry["marked"]
