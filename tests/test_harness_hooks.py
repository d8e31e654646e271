"""The benchmark harness's tracer finds every hook it patches by name.

``bench/harness/tracing.py`` wraps methods and module functions of
``ckplab`` by attribute name.  A rename in the package would break a
traced benchmark run (``--trace 1``) and nothing else, so this test
installs and uninstalls the tracer and checks both directions.
"""

from pathlib import Path

import pytest

from ckplab import attachment, audits, checking, engine, evolution, \
    potentials, rand, state, thresholds
from ckplab.engine import kernel_available

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
