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
"full" it is audited once at the end of the run, by exporting the
final state plus all incremental bookkeeping and recomputing both from
scratch (the python backend additionally supports mid-run deep audits
via ``audit_every``, which the kernel ignores).
"""

from __future__ import annotations

from .attachment import weight_index_for
from .evolution import AuditViolation, Features, TrialResult, \
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
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if audit not in ("none", "cheap", "full"):
        raise ValueError(f"unknown audit level {audit!r}")
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
    return TrialResult(
        seed=seed,
        horizon=horizon,
        survived_at_horizon=summary["survived_at_horizon"],
        eliminated_at=summary["eliminated_at"],
        stopped_at=summary["stopped_at"],
        pf_exists=summary["pf_exists"],
        final_counts=summary["final_counts"],
        checkpoints=summary["checkpoints"],
        backend="compiled",
    )


class _Shadow:
    """Engine-shaped view of a kernel's exported state and bookkeeping,
    so the deep audits can interrogate the kernel's own numbers."""

    def __init__(self, features: Features, exported: CkpState, book: dict):
        self.features = features
        self.state = exported
        self.windex = weight_index_for(exported, features.attach)
        self.pt_false = book["pt_false"]
        self.pf_count = book["pf_count"]
        self.f_count = book["f_count"]
        self.l_count = book["l_count"]
        self.f_mem = book["f_mem"]
        self.l_mem = book["l_mem"]
        self.zero_since = book["zero_since"]
        self.pf_child_len = book["pf_child_len"]


def deep_audit_compiled(ke, features: Features) -> None:
    """Recompute everything the kernel maintains incrementally and
    compare, exactly where the arithmetic is replayed in the same order
    and with drift tolerance on the running weight total."""
    from .audits import full_audit

    exported = ke.export_state()
    book = ke.export_bookkeeping()
    shadow = _Shadow(features, exported, book)

    fresh = shadow.windex
    if book["weights"] != fresh.weights[:fresh.size]:
        raise AuditViolation("kernel attachment weights differ from a "
                             "from-scratch rebuild")
    if book["weight_positive"] != fresh.positive:
        raise AuditViolation(
            f"kernel counts {book['weight_positive']} positive weights, "
            f"rebuild has {fresh.positive}")
    drift = abs(book["weight_total"] - fresh.total)
    if drift > 1e-9 * max(1.0, fresh.total):
        raise AuditViolation(
            f"kernel weight total {book['weight_total']} drifted from "
            f"rebuilt total {fresh.total}")

    full_audit(shadow)
