"""Per-layer counters and spans, recorded from outside the program.

:class:`Tracer` wraps public functions and methods of the ``ckplab``
modules (and the compiled ``KernelEngine`` behind ``engine._kernel``)
with timing shims, keeps a span stack so each span also knows its self
time, and turns the totals into the per-layer metrics listed in
``BENCHMARK.json``.  Nothing under ``src/`` changes; the shims are
installed into the imported modules for the life of a traced run.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict
from dataclasses import replace

import workloads
from ckplab import attachment, audits, checking, engine, evolution, \
    potentials, rand, state, thresholds
from ckplab.evolution import init_chain
from ckplab.rand import derive_seed
from ckplab.state import CF

DRIFT_SPANS = ("potentials.exact_drift", "potentials.mc_drift")


class _Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span and counter store plus the shims that feed it."""

    def __init__(self):
        self.spans: dict[str, _Span] = defaultdict(_Span)
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list = []         # [name, child seconds] per open span
        self._undo: list = []

    # -- span recording ---------------------------------------------------

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def call(self, name: str, fn, *args, **kwargs):
        frame = [name, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            span = self.spans[name]
            span.calls += 1
            span.total += elapsed
            span.self_time += elapsed - frame[1]
            if self.stack:
                self.stack[-1][1] += elapsed

    def _patch(self, owner, attr: str, shim) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, shim)

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        tracer = self

        def shim(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)
        self._patch(owner, attr, shim)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        tracer = self
        self._install_rand()
        self._install_attachment()
        for attr in ("add_node", "copy"):
            self._wrap(state.CkpState, attr, f"state.{attr}")

        mark_pf = state.CkpState.mark_pf

        def traced_mark_pf(st, marked):
            marked = list(marked)
            tracer.counts["state.marked_nodes"] += len(set(marked))
            return tracer.call("state.mark_pf", mark_pf, st, marked)
        self._patch(state.CkpState, "mark_pf", traced_mark_pf)

        run_check = checking.run_check

        def traced_run_check(*args, **kwargs):
            name = ("potentials.check"
                    if any(tracer.inside(s) for s in DRIFT_SPANS)
                    else "checking.run_check")
            outcome = tracer.call(name, run_check, *args, **kwargs)
            tracer.counts["checking.performed"] += sum(
                1 for go in outcome.performed if go)
            tracer.counts["checking.visited"] += len(outcome.visited)
            tracer.counts["checking.found"] += len(outcome.found)
            return outcome
        self._patch(checking, "run_check", traced_run_check)

        self._wrap(evolution.PyEngine, "step", "evolution.step")
        self._wrap(evolution.CheapAudit, "after_step", "audits.cheap")
        self._wrap(audits, "full_audit", "audits.full_audit")
        self._wrap(engine, "deep_audit_compiled", "engine.deep_audit")
        self._wrap(thresholds, "theorem_verdict", "thresholds.verdict")
        self._wrap(thresholds, "false_fraction_check",
                   "thresholds.false_fraction")
        for attr in ("_checked_total", "_phi_value"):
            self._wrap(potentials, attr, "potentials.potential")
        self._wrap(potentials, "mc_drift", "potentials.mc_drift")

        exact_drift = potentials.exact_drift

        def traced_exact_drift(*args, **kwargs):
            res = tracer.call("potentials.exact_drift", exact_drift,
                              *args, **kwargs)
            tracer.counts["potentials.leaves"] += res.leaf_count
            return res
        self._patch(potentials, "exact_drift", traced_exact_drift)
        self._patch(engine, "_kernel", _traced_kernel_module(self,
                                                             engine._kernel))

    def _install_rand(self) -> None:
        tracer = self
        init = rand.SimChooser.__init__

        def traced_init(chooser, seed_or_gen):
            init(chooser, seed_or_gen)
            chooser.gen = _CountingGenerator(chooser.gen, tracer)
        self._patch(rand.SimChooser, "__init__", traced_init)

    def _install_attachment(self) -> None:
        tracer = self
        cls = attachment.WeightIndex
        select, prefix = cls.select, cls.prefix

        def traced_select(windex, x):
            pos = tracer.call("attachment.select", select, windex, x)
            low = prefix(windex, pos)
            if not low <= x < low + windex.weights[pos]:
                tracer.counts["attachment.select_fallbacks"] += 1
            return pos
        self._patch(cls, "select", traced_select)
        self._wrap(cls, "_grow", "attachment.regrow")
        for attr in ("append", "set_weight"):
            original = cls.__dict__[attr]

            def traced_update(windex, *args, _original=original):
                # the re-appends of a regrowth belong to the regrowth
                if tracer.stack and tracer.stack[-1][0] == "attachment.regrow":
                    return _original(windex, *args)
                return tracer.call("attachment.update", _original, windex,
                                   *args)
            self._patch(cls, attr, traced_update)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def _mean_us(self, name: str) -> float:
        span = self.spans.get(name)
        if span is None or span.calls == 0:
            return 0.0
        return span.total / span.calls * 1e6

    def _calls(self, name: str) -> int:
        span = self.spans.get(name)
        return 0 if span is None else span.calls

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the ones the harness times
        itself (the kernel ablations and the tracing overhead)."""
        counts = self.counts
        performed = counts["checking.performed"]
        leaves = counts["potentials.leaves"]
        exact = self.spans.get("potentials.exact_drift")
        step = self.spans.get("evolution.step")
        return {
            "rand.draws": counts["rand.draws"],
            "rand.draw_us": self._mean_us("rand.draw"),
            "attachment.select_calls": self._calls("attachment.select"),
            "attachment.select_us": self._mean_us("attachment.select"),
            "attachment.update_calls": self._calls("attachment.update"),
            "attachment.update_us": self._mean_us("attachment.update"),
            "attachment.regrows": self._calls("attachment.regrow"),
            "attachment.select_fallbacks":
                counts["attachment.select_fallbacks"],
            "state.add_node_us": self._mean_us("state.add_node"),
            "state.mark_pf_calls": self._calls("state.mark_pf"),
            "state.marked_nodes": counts["state.marked_nodes"],
            "state.mark_pf_us": self._mean_us("state.mark_pf"),
            "state.copy_calls": self._calls("state.copy"),
            "state.copy_us": self._mean_us("state.copy"),
            "checking.checks": (self._calls("checking.run_check")
                                + self._calls("potentials.check")),
            "checking.performed": performed,
            "checking.visited": counts["checking.visited"],
            "checking.found": counts["checking.found"],
            "checking.find_ratio": (counts["checking.found"] / performed
                                    if performed else 0.0),
            "checking.run_check_us": self._mean_us("checking.run_check"),
            "evolution.self_us": (step.self_time / step.calls * 1e6
                                  if step and step.calls else 0.0),
            "potentials.leaves": leaves,
            "potentials.leaf_us": (exact.total / leaves * 1e6
                                   if exact and leaves else 0.0),
            "potentials.potential_us": self._mean_us("potentials.potential"),
            "potentials.check_us": self._mean_us("potentials.check"),
            "engine.kernel_init_ms": self._mean_us("engine.kernel_init") / 1e3,
            "engine.export_s": self._mean_us("engine.export") / 1e6,
            "audits.cheap_us": self._mean_us("audits.cheap"),
            "audits.full_audit_s": self._mean_us("audits.full_audit") / 1e6,
            "engine.deep_audit_s": self._mean_us("engine.deep_audit") / 1e6,
            "thresholds.verdict_us": self._mean_us("thresholds.verdict"),
            "thresholds.false_fraction_us":
                self._mean_us("thresholds.false_fraction"),
        }


class _CountingGenerator:
    """Stands in for a chooser's numpy Generator: every uniform the
    Python side consumes is one ``rand.draws``."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self):
        self._tracer.counts["rand.draws"] += 1
        return self._tracer.call("rand.draw", self._gen.random)


class _TracedKernel:
    """A ``KernelEngine`` whose construction and exports are spans."""

    def __init__(self, tracer: Tracer, cls, *args, **kwargs):
        self._tracer = tracer
        self._ke = tracer.call("engine.kernel_init", cls, *args, **kwargs)

    def run(self, *args, **kwargs):
        return self._ke.run(*args, **kwargs)

    def export_state(self):
        return self._tracer.call("engine.export", self._ke.export_state)

    def export_bookkeeping(self):
        return self._ke.export_bookkeeping()

    def counts(self):
        return self._ke.counts()


def _traced_kernel_module(tracer: Tracer, module):
    def make(*args, **kwargs):
        return _TracedKernel(tracer, module.KernelEngine, *args, **kwargs)
    return types.SimpleNamespace(KernelEngine=make,
                                 KERNEL_READY=module.KERNEL_READY)


# -- the traced run --------------------------------------------------------

def untraced_round(tracer: Tracer, inp):
    """The traced run's per-round hook.  With the shims out, it times
    the workload's Python prefix and two kernel ablations of its trial,
    growth only (p = 0) and the full step with the cheap audit, the same
    way and with the same seed as the trial job, so each is compared
    with a sample of the same trajectory and reported like the
    end-to-end metrics."""
    job = inp.spec.trial
    seed = derive_seed(inp.seed, inp.spec.name, "trial")

    def hook(out) -> None:
        tracer.uninstall()
        try:
            _, plain = workloads.python_prefix(job.features, inp.trial_init,
                                               job.python_steps, seed)
            out.record("untraced_python_step_ns", *plain)
            for metric, feats, audit_cheap in (
                    ("grow_step_ns", replace(job.features, check_rate=0),
                     False),
                    ("audited_step_ns", job.features, True)):
                _, samples = workloads.compiled_trial(
                    feats, inp.trial_init, job.compiled_steps, seed, 0,
                    audit_cheap)
                out.record(metric, *samples)
        finally:
            tracer.install()
    return hook


def deep_audits(inp, out) -> None:
    """One fully audited compiled trial per sweep cell; an audit that
    fails raises, which counts as a failed gate."""
    init = init_chain(5, 1, CF)
    for label, feats in inp.sweep_cells:
        seed = derive_seed(inp.seed, "deep-audit", label)
        out.guarded(f"deep audit {label}", lambda: engine.run_trial(
            feats, init, inp.spec.sweep.steps, seed, audit="full",
            backend="compiled"))


def traced_run(inp, seconds: float) -> tuple:
    """The workload's jobs under the tracer, each round preceded by
    :func:`untraced_round`.  The kernel ablations and the tracing
    overhead (traced over untraced ``python_step_ns``) come from the
    speed-corrected medians of their samples; a metric whose samples a
    failed gate withheld is left out."""
    tracer = Tracer()
    tracer.install()
    try:
        out = workloads.run(inp, seconds, untraced_round(tracer, inp))
        deep_audits(inp, out)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    ns = {name: workloads.reported(out.samples[name], False)
          for name in ("compiled_step_ns", "grow_step_ns",
                       "audited_step_ns", "python_step_ns",
                       "untraced_python_step_ns")
          if out.samples.get(name)}
    if {"compiled_step_ns", "grow_step_ns", "audited_step_ns"} <= ns.keys():
        metrics["engine.grow_step_ns"] = ns["grow_step_ns"]
        metrics["engine.check_step_ns"] = (ns["compiled_step_ns"]
                                           - ns["grow_step_ns"])
        metrics["engine.cheap_audit_step_ns"] = (ns["audited_step_ns"]
                                                 - ns["compiled_step_ns"])
    if {"python_step_ns", "untraced_python_step_ns"} <= ns.keys():
        metrics["trace.overhead_frac"] = (ns["python_step_ns"]
                                          / ns["untraced_python_step_ns"])
    return out, metrics
