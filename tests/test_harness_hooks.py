"""The benchmark harness's tracer finds every hook it patches by name,
and the engine calls every hook it counts.

``bench/harness/tracing.py`` wraps methods and module functions of
``ckplab`` by attribute name.  A rename in the package would break a
traced benchmark run (``--trace 1``) and nothing else, so one test
installs and uninstalls the tracer and checks both directions.  An
engine that reached the work behind a hook some other way (a bound
method cached before the tracer was installed, a walk inlined around
the call) would zero a per-layer metric silently, so the other tests
check the traced counts against what the step records determine, and
against the moves and leaves of the drift oracles.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from ckplab import attachment, audits, checking, engine, evolution, \
    potentials, rand, state, thresholds
from ckplab.attachment import ParentCountLaw, preferential
from ckplab.engine import kernel_available
from ckplab.evolution import Features, PyEngine, init_chain
from ckplab.rand import SimChooser
from ckplab.state import CF

HARNESS = Path(__file__).resolve().parent.parent / "bench" / "harness"

# every (owner, attribute) the tracer replaces with a shim
HOOKS = {
    rand.SimChooser: ["__init__"],
    attachment.WeightIndex: ["select", "_grow", "append", "set_weight"],
    state.CkpState: ["add_node", "copy", "mark_pf"],
    checking: ["run_check"],
    evolution.PyEngine: ["step"],
    evolution.CheapAudit: ["after_step"],
    audits: ["full_audit"],
    engine: ["deep_audit_compiled", "_kernel"],
    thresholds: ["theorem_verdict", "false_fraction_check"],
    potentials: ["_checked_total", "_phi_value", "mc_drift", "exact_drift"],
}


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel not built")
def test_tracer_patches_every_hook_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(HARNESS))
    import tracing

    before = {owner: dict(vars(owner)) for owner in HOOKS}
    tracer = tracing.Tracer()
    tracer.install()    # raises on a missing name, WeightIndex.prefix too
    try:
        for owner, names in HOOKS.items():
            for name in names:
                assert vars(owner)[name] is not before[owner][name], name
    finally:
        tracer.uninstall()
    for owner, attrs in before.items():
        now = vars(owner)
        assert now.keys() == attrs.keys()
        for name, value in attrs.items():
            assert now[name] is value, name


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel not built")
def test_traced_counts_match_the_step_records(monkeypatch):
    """A ``trial-cf``-like run: CF-rooted, every node False, checks that
    mark.  One ``add_node`` per grown node, one ``select`` per parent
    edge drawn, one ``mark_pf`` per step that marks."""
    monkeypatch.syspath_prepend(str(HARNESS))
    import tracing

    feats = Features(preferential(), ParentCountLaw({1: 0.5, 2: 0.25,
                                                     3: 0.25}),
                     check_rate=0.3, check_depth=3, mechanism="bfs")
    init = init_chain(25, 1, CF)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        eng = PyEngine(feats, init, SimChooser(5))
        records = [eng.step() for _ in range(400)]
    finally:
        tracer.uninstall()
    grown = [r for r in records if r.branch == "grow"]
    marking = [r for r in grown if r.outcome.marked]
    metrics = tracer.layer_metrics()
    assert len(grown) > 300 and len(marking) > 50
    assert tracer.spans["state.add_node"].calls == len(grown)
    assert metrics["attachment.select_calls"] == sum(len(r.parents)
                                                     for r in grown)
    assert metrics["state.mark_pf_calls"] == len(marking)
    assert metrics["state.marked_nodes"] == sum(len(r.outcome.marked)
                                                for r in marking)
    assert metrics["checking.checks"] == len(grown)
    assert metrics["attachment.update_calls"] > 0


def pinned_chain_inputs():
    law = ParentCountLaw({1: Fraction(1, 2), 2: Fraction(1, 4),
                          3: Fraction(1, 4)})
    feats = Features(preferential(), law, Fraction(1, 2), 3, "bfs",
                     detection_rate=Fraction(4, 5))
    return init_chain(5, 1, CF), feats, potentials.MinDistance(
        preferential(), 3)


@pytest.mark.skipif(not kernel_available(), reason="compiled kernel not built")
def test_traced_drift_oracles_count_every_leaf_and_move(monkeypatch):
    """The pinned 5-node chain: ``exact_drift`` makes 155 moves and 451
    check leaves, and ``mc_drift`` one move and one check per sample.
    An oracle that reached ``run_check`` or ``add_node`` through an alias
    cached before the tracer was installed would count none."""
    monkeypatch.syspath_prepend(str(HARNESS))
    import tracing

    chain, feats, kind = pinned_chain_inputs()     # built untraced
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = potentials.exact_drift(chain, feats, kind)
    finally:
        tracer.uninstall()
    assert res.leaf_count == 451
    assert tracer.counts["potentials.leaves"] == 451
    assert {name: span.calls for name, span in tracer.spans.items()} == {
        "potentials.exact_drift": 1, "state.add_node": 155,
        "potentials.check": 451}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        potentials.mc_drift(chain, feats, kind, 40, 3)
    finally:
        tracer.uninstall()
    assert {name: span.calls for name, span in tracer.spans.items()} == {
        "potentials.mc_drift": 1, "state.add_node": 40,
        "potentials.check": 40}
