"""Trial runner with backend selection.

`run_trial` is the front door for single trajectories.  It picks the
compiled kernel when one is importable and the requested variant fits
its scope (no adversary, no step tracing), and falls back to the pure
Python engine otherwise.  Both backends replay the same decision
stream, so for any fixed seed they produce the same trajectory; the
result only differs in its ``backend`` tag.  ``backend="python"`` forces
the pure engine, which is useful for timing comparisons and for ruling
the kernel out when debugging.

Audit levels mean the same thing on both backends: "cheap" runs the
O(1) per-step invariant checks inside the run, "full" adds deep
recomputation audits.  The kernel has the cheap checks built in; for
"full" it is audited once at the end of the run.  Either engine exports
its state and one bookkeeping record of the same shape, and
``audits.full_audit`` reads the two, so both backends pass through the
same audit (the python backend additionally supports mid-run deep audits
via ``audit_every``, which the kernel ignores).
"""

from __future__ import annotations

from . import audits
from .evolution import Features, TrialResult, check_trial_args, \
    run_python_trial
from .state import CkpState

try:
    from . import _kernel
except ImportError:
    _kernel = None


def kernel_available() -> bool:
    return _kernel is not None and getattr(_kernel, "KERNEL_READY", False)


def compiled_supports(features: Features, adversary=None, trace=None) -> bool:
    """Whether the compiled kernel can run this variant at all.

    The kernel covers the non-adversarial regime only, and it does not
    emit per-step trace lines.
    """
    return (features.adversary_rate == 0 and adversary is None
            and trace is None)


def _want_compiled(backend: str, features: Features, adversary, trace) -> bool:
    if backend not in ("auto", "python", "compiled"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "python":
        return False
    if backend == "compiled":
        if not kernel_available():
            raise RuntimeError("compiled backend requested but the kernel "
                               "extension is not importable")
        if not compiled_supports(features, adversary, trace):
            raise RuntimeError("compiled backend requested for a variant "
                               "it does not cover (adversary or tracing)")
        return True
    return kernel_available() and compiled_supports(features, adversary,
                                                    trace)


def run_trial(features: Features, init_state: CkpState, horizon: int,
              seed: int, adversary=None, checkpoint_steps=(),
              audit: str = "none", audit_every: int = 0, trace=None,
              backend: str = "auto") -> TrialResult:
    """Run one trajectory on the best available backend.

    Accepts everything `run_python_trial` does plus ``backend``, one of
    "auto", "python", "compiled".  "compiled" raises when the kernel
    cannot serve the request; "auto" silently falls back.
    """
    check_trial_args(horizon, audit)
    if not _want_compiled(backend, features, adversary, trace):
        return run_python_trial(
            features, init_state, horizon, seed, adversary=adversary,
            checkpoint_steps=checkpoint_steps, audit=audit,
            audit_every=audit_every, trace=trace)

    ke = _kernel.KernelEngine(features, init_state, seed,
                              audit_cheap=audit in ("cheap", "full"))
    summary = ke.run(horizon, checkpoint_steps)
    if audit == "full":
        deep_audit_compiled(ke, features)
    return TrialResult(seed=seed, horizon=horizon, backend="compiled",
                       **summary)


def deep_audit_compiled(ke, features: Features) -> None:
    """Audit the kernel's own numbers: its exported state and bookkeeping
    record, recomputed from scratch by the audit the python engine
    passes through."""
    audits.full_audit(ke.export_state(), features, ke.export_bookkeeping())
