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
recomputation audits over the engine's exported state and bookkeeping
at the end, and with ``audit_every`` also after every that many steps.
"""

from __future__ import annotations

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
              audit: str = "none", audit_every: int = 0, trace=None,
              backend: str = "auto") -> TrialResult:
    """Run one trajectory on the best available backend and report its
    summary.  ``audit`` is "none", "cheap" or "full"; a "full" run with
    ``audit_every`` runs the engine in pieces of that many steps and
    audits after each, and no other level takes ``audit_every``.  The
    rest is the engines' own.  ``backend`` is "auto", "python" or
    "compiled": "compiled" raises when the kernel cannot serve the
    request, "auto" silently falls back.
    """
    if isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, not the bool {seed!r}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if audit not in ("none", "cheap", "full"):
        raise ValueError(f"unknown audit level {audit!r}")
    if audit_every < 0:
        raise ValueError("audit_every must be nonnegative")
    if audit_every and audit != "full":
        raise ValueError(f"audit_every needs audit='full', not {audit!r}")
    audit_cheap = audit != "none"
    if _want_compiled(backend, features, trace):
        backend = "compiled"
        engine = _kernel.KernelEngine(features, init_state, seed,
                                      audit_cheap=audit_cheap)
        run = engine.run
    else:
        backend = "python"
        engine = PyEngine(features, init_state, SimChooser(seed),
                          audit_cheap=audit_cheap)

        def run(steps, checkpoints):
            return engine.run(steps, checkpoints, trace=trace)
    if audit_every:
        summary = _run_in_pieces(run, engine, features, horizon,
                                 checkpoint_steps, audit_every)
    else:
        summary = run(horizon, checkpoint_steps)
        if audit == "full":
            deep_audit_compiled(engine, features)
    return TrialResult(seed=seed, horizon=horizon, backend=backend,
                       **summary)


def _run_in_pieces(run, engine, features: Features, horizon: int,
                   checkpoint_steps, every: int) -> dict:
    """``horizon`` steps of ``run`` in pieces of ``every``, with
    :func:`deep_audit_compiled` after each; the summary is the one a
    single call gives.  Each piece gets the checkpoints that fall in it,
    counted from its own start; the pieces end at the engines' early
    exit, and the checkpoints past it report the frozen counts."""
    pending = sorted(set(checkpoint_steps))
    checkpoints = []
    done = 0
    while True:
        piece = min(every, horizon - done)
        due = [c - done for c in pending if c <= done + piece]
        pending = pending[len(due):]
        summary = run(piece, due)
        deep_audit_compiled(engine, features)
        checkpoints += [(at + done, counts)
                        for at, counts in summary["checkpoints"]]
        done += piece
        if (done == horizon or summary["stopped_at"] is not None
                or (features.simple and not summary["survived_at_horizon"])):
            break
    checkpoints += [(c, engine.counts()) for c in pending]
    return {**summary, "checkpoints": checkpoints}


def deep_audit_compiled(engine, features: Features) -> None:
    """Audit either engine's own numbers: its exported state and
    bookkeeping record, recomputed from scratch by ``audits.full_audit``."""
    audits.full_audit(engine.export_state(), features,
                      engine.export_bookkeeping())
