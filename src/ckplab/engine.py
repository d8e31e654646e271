"""Trial runner with backend selection.

`run_trial` is the front door for single trajectories.  It picks the
compiled kernel when one is importable and the requested variant fits
its scope (no adversarial steps, no step tracing), and falls back to the pure
Python engine otherwise.  The engines share one surface, so a trial is
one path: build the engine, ``run`` it, audit it.  Both replay the same
decision stream, so for any fixed seed they produce the same trajectory;
the result only differs in its ``backend`` tag.  ``backend="python"``
forces the pure engine, for timing comparisons and for ruling the
kernel out when debugging.

Audit levels mean the same thing on both backends: "cheap" runs the
O(1) per-step invariant checks inside every step, "full" adds the deep
recomputation audit over the engine's exported state and bookkeeping
at the end.  A caller that wants deep audits along the way runs an
engine in several ``run`` calls, which resume where the last one
stopped, with :func:`deep_audit_compiled` after each.
"""

from __future__ import annotations

import numbers

from . import audits
from .evolution import Features, PyEngine, TrialResult
from .rand import SimChooser
from .state import CkpState

try:
    from . import _kernel
except ImportError:
    _kernel = None


def kernel_available() -> bool:
    return _kernel is not None and getattr(_kernel, "KERNEL_READY", False)


def compiled_supports(features: Features, trace=None) -> bool:
    """Whether the compiled kernel can run this variant at all.

    The kernel covers the non-adversarial regime only, and it does not
    emit per-step trace lines.
    """
    return features.adversary_rate == 0 and trace is None


def _want_compiled(backend: str, features: Features, trace) -> bool:
    if backend not in ("auto", "python", "compiled"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "python":
        return False
    if backend == "compiled":
        if not kernel_available():
            raise RuntimeError("compiled backend requested but the kernel "
                               "extension is not importable")
        if not compiled_supports(features, trace):
            raise RuntimeError("compiled backend requested for a variant "
                               "it does not cover (adversary or tracing)")
        return True
    return kernel_available() and compiled_supports(features, trace)


def run_trial(features: Features, init_state: CkpState, horizon: int,
              seed: int, *, checkpoint_steps=(),
              audit: str = "none", trace=None,
              backend: str = "auto") -> TrialResult:
    """Run one trajectory on the best available backend and report its
    summary: one engine, one ``run`` call of ``horizon`` steps.
    ``audit`` is "none", "cheap" or "full"; the rest is the engines'
    own.  ``backend`` is "auto", "python" or "compiled": "compiled"
    raises when the kernel cannot serve the request, "auto" silently
    falls back.
    """
    if isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, not the bool {seed!r}")
    if isinstance(horizon, bool) or not isinstance(horizon, numbers.Integral):
        raise ValueError(f"horizon must be an integer, not {horizon!r}")
    if not 1 <= horizon < 2**63:
        raise ValueError(f"horizon must be from 1 to 2**63 - 1, not {horizon}")
    if audit not in ("none", "cheap", "full"):
        raise ValueError(f"unknown audit level {audit!r}")
    audit_cheap = audit != "none"
    if _want_compiled(backend, features, trace):
        backend = "compiled"
        engine = _kernel.KernelEngine(features, init_state, seed,
                                      audit_cheap=audit_cheap)
        summary = engine.run(horizon, checkpoint_steps)
    else:
        backend = "python"
        engine = PyEngine(features, init_state, SimChooser(seed),
                          audit_cheap=audit_cheap)
        summary = engine.run(horizon, checkpoint_steps, trace=trace)
    if audit == "full":
        deep_audit_compiled(engine, features)
    return TrialResult(seed=seed, horizon=horizon, backend=backend,
                       **summary)


def deep_audit_compiled(engine, features: Features) -> None:
    """Audit either engine's own numbers: its exported state and
    bookkeeping record, recomputed from scratch by ``audits.full_audit``."""
    audits.full_audit(engine.export_state(), features,
                      engine.export_bookkeeping())
