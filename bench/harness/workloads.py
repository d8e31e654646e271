"""The benchmark's workloads: inputs, timed jobs and correctness gates.

Every workload runs the same three jobs, the three things a user of
``ckplab`` does:

* ``trial``: one long trajectory on the compiled backend and a prefix
  of it on the pure-Python engine, with a parity gate between them;
* ``drift``: one ``exact_drift`` call on a CF chain, checked against
  its recorded exact value, and one ``mc_drift`` call on a state grown
  with the trial job's process from a fixed seed;
* ``sweep``: a verdict-vs-simulation grid of short compiled trials,
  with the paper-claim gates.

A workload fixes the inputs and sizes of each job: its own job is
large and the other two are small controls, so that every end-to-end
metric is measured on every workload.  The drift control is the same
small input on every workload.  Inputs depend only on the workload and
the seed.  See README.md for why each workload exists.

Import this module only after :func:`kernel.import_package`.
"""

from __future__ import annotations

import math
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from fractions import Fraction

from ckplab import engine, potentials, thresholds
from ckplab.attachment import ParentCountLaw, preferential
from ckplab.evolution import Features, PyEngine, init_chain
from ckplab.rand import SimChooser, derive_seed
from ckplab.state import CF, CT, dump_state

SCALE = 1.0               # the tests shrink every step and sample count
MIN_ROUNDS = 3
CALIBRATION_LOOPS = 5000  # about half a millisecond of plain Python
SAMPLE_EVERY_S = 0.05     # calibration inside a timed region, 1% of it
PYTHON_CHUNKS = 40       # timed pieces of each Python prefix
COMPILED_CHUNKS = 20     # timed pieces of each compiled trajectory

LAW = ParentCountLaw({1: 0.5, 2: 0.25, 3: 0.25})
LAW_EXACT = ParentCountLaw({1: Fraction(1, 2), 2: Fraction(1, 4),
                            3: Fraction(1, 4)})
POTENTIAL = potentials.MinDistance(preferential(), 3)

# trial-ct: errors are rare, so true nodes dominate and balls are large
CT_TRIAL = Features(preferential(), LAW, check_rate=0.5, check_depth=5,
                    mechanism="complete", error_rate=0.05,
                    detection_rate=0.8)
# trial-cf: the simple regime, every node false and most end PF
CF_TRIAL = Features(preferential(), LAW, check_rate=0.3, check_depth=3,
                    mechanism="bfs")

# the cross-check of the text-only bench/benchmark_engine.py: both
# backends must agree on these variants at a short horizon
CROSSCHECK = {
    "bfs": dict(check_rate=0.3, check_depth=3, mechanism="bfs"),
    "stringy": dict(check_rate=0.3, check_depth=3, mechanism="stringy"),
    "complete": dict(check_rate=0.1, check_depth=2, mechanism="complete"),
}
CROSSCHECK_STEPS = 3000
CROSSCHECK_SEEDS = 2

SWEEP_GRID = [(mech, p, k, m)
              for mech in ("bfs", "exhaustive-bfs", "complete")
              for p in (Fraction(1, 10), Fraction(1, 2), Fraction(19, 20))
              for k in (2, 4)
              for m in (1, 2)]
SWEEP_MINI = [("complete", Fraction(19, 20), 4, 1),
              ("bfs", Fraction(1, 10), 2, 1)]
SWEEP_ERROR_RATE = Fraction(1, 20)
SWEEP_FF_TRIALS = 30          # false_fraction_check needs at least 30
SWEEP_PARITY_STEPS = 200

# exact_drift runs on a CF chain of DRIFT_CHAIN nodes (the default
# 12-PT-node cap) on the drift workload and of CONTROL_CHAIN nodes
# elsewhere; per chain length, the value and leaf count this code base
# computes, recorded once so that a change to the oracle's arithmetic
# shows as a failed gate
DRIFT_FEATURES = Features(preferential(), LAW_EXACT, Fraction(1, 2), 3, "bfs",
                          detection_rate=Fraction(4, 5))
DRIFT_CHAIN = 12
CONTROL_CHAIN = 5
DRIFT_EXPECTED = {
    DRIFT_CHAIN: (Fraction(125703471, 48668), 4833),
    CONTROL_CHAIN: (Fraction(18443, 1620), 451),
}
MC_STATE_SEED = 20230911
MC_AGREEMENT_SAMPLES = 4000
MC_AGREEMENT_SIGMAS = 5


@dataclass(frozen=True)
class TrialJob:
    features: Features
    init_nodes: int
    root: int
    compiled_steps: int
    python_steps: int


@dataclass(frozen=True)
class DriftJob:
    chain: int                   # nodes of the CF chain exact_drift runs on
    mc_samples: int
    calls: int                   # timed calls of each oracle per round


@dataclass(frozen=True)
class SweepJob:
    cells: list
    trials: int
    steps: int


@dataclass(frozen=True)
class Workload:
    name: str
    trial: TrialJob
    drift: DriftJob
    sweep: SweepJob


def _scaled(n: int, floor: int) -> int:
    return max(floor, int(n * SCALE))


def workload(name: str) -> Workload:
    """The named workload, with its step and sample counts times SCALE."""
    mini_sweep = SweepJob(SWEEP_MINI, 10, _scaled(10_000, 100))
    # three short calls: one left too few samples for a steady median
    control_drift = DriftJob(CONTROL_CHAIN, _scaled(100, 20), 3)
    long_steps = _scaled(1_000_000, 1000)
    prefix = _scaled(20_000, 200)
    ct_trial = TrialJob(CT_TRIAL, 25, CT, long_steps, prefix)
    if name == "trial-ct":
        return Workload(name, ct_trial, control_drift, mini_sweep)
    if name == "trial-cf":
        return Workload(name, TrialJob(CF_TRIAL, 25, CF, long_steps, prefix),
                        control_drift, mini_sweep)
    if name == "drift":
        # the trial job is a control: the trial-ct process, cut to 2e5
        # compiled steps, which still times 10 ms chunks
        return Workload(name, replace(ct_trial,
                                      compiled_steps=_scaled(200_000, 1000)),
                        DriftJob(DRIFT_CHAIN, _scaled(1000, 20), 1),
                        mini_sweep)
    if name == "sweep":
        survival = Features(preferential(), ParentCountLaw.const(1),
                            Fraction(1, 10), 2, "bfs")
        return Workload(name,
                        TrialJob(survival, 5, CF, _scaled(100_000, 1000),
                                 _scaled(5000, 200)),
                        control_drift,
                        SweepJob(SWEEP_GRID, 10, _scaled(10_000, 100)))
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Inputs:
    """Everything a run needs before its first timed operation."""
    spec: Workload
    seed: int
    trial_init: object
    exact_state: object
    exact_expected: tuple
    mc_state: object              # what mc_drift samples steps from
    sweep_cells: list             # (label, features) per grid cell
    crosscheck: list


def grown_state(job: TrialJob, init):
    """The trial job's process grown for its prefix length on the
    kernel, from a fixed seed: every run samples drift from the same
    state, so the cost of a sample does not vary with ``--seed``."""
    ke = engine._kernel.KernelEngine(job.features, init, MC_STATE_SEED)
    ke.run(job.python_steps)
    return ke.export_state()


def prepare(name: str, seed: int) -> Inputs:
    spec = workload(name)
    cells = []
    for mech, p, k, m in spec.sweep.cells:
        label = f"{mech}/p={p}/k={k}/m={m}"
        cells.append((label, Features(preferential(),
                                      ParentCountLaw.const(m), p, k, mech)))
    crosscheck = [(label, Features(attach=preferential(), parent_count=LAW,
                                   error_rate=0.25, **kw))
                  for label, kw in CROSSCHECK.items()]
    trial_init = init_chain(spec.trial.init_nodes, 1, spec.trial.root)
    return Inputs(
        spec=spec, seed=seed, trial_init=trial_init,
        exact_state=init_chain(spec.drift.chain, 1, CF),
        exact_expected=DRIFT_EXPECTED[spec.drift.chain],
        mc_state=grown_state(spec.trial, trial_init),
        sweep_cells=cells, crosscheck=crosscheck)


# -- timing ------------------------------------------------------------------

def calibrate() -> float:
    """Seconds a fixed plain-Python loop takes.  It shares no code with
    ckplab, so a change to the program cannot move it; only the speed
    of the machine at that moment can."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
        table[i & 63] = acc
    return time.perf_counter() - start


class Timer:
    """Wall time of one region and the machine's speed during it.

    The calibration loop runs just before and just after the region and,
    from a SIGALRM every ``SAMPLE_EVERY_S``, inside it whenever Python
    code is running there; the time those inner calls take is removed
    from the region's.  ``speed`` is the mean calibration time (lower is
    faster).  Regions do not nest."""

    _active = None   # the open Timer, for the signal handler

    def __enter__(self):
        if Timer._active is not None:
            raise RuntimeError("timed regions do not nest")
        self._speeds = [calibrate()]
        self._spent = 0.0
        if signal.getsignal(signal.SIGALRM) is not Timer._sample:
            signal.signal(signal.SIGALRM, Timer._sample)
        Timer._active = self
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = time.perf_counter()
        return self

    @staticmethod
    def _sample(signum, frame):
        timer = Timer._active
        if timer is None:        # a signal that was pending at close
            return
        start = time.perf_counter()
        timer._speeds.append(calibrate())
        timer._spent += time.perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        Timer._active = None
        self.seconds = time.perf_counter() - self._start - self._spent
        self._speeds.append(calibrate())
        self.speed = statistics.fmean(self._speeds)

    def per(self, units: float) -> tuple:
        """(seconds per unit, speed) sample."""
        return self.seconds / units, self.speed

    def rate(self, units: float) -> tuple:
        """(units per second, speed) sample."""
        return units / self.seconds, self.speed


# the calibration loop's time in the fast phases of the 2-vCPU machine the
# benchmark was tuned on; every timed sample is rescaled to this speed
REFERENCE_SPEED_S = 0.0005


def reported(rounds: list, higher_is_better: bool) -> float:
    """Speed-corrected median per sample position, averaged over the
    positions (one position per call, one per chunk of a trajectory).

    Each sample carries the calibration time measured around it and is
    rescaled to ``REFERENCE_SPEED_S``: the value reads as the time on a
    machine where the calibration loop takes that long.  The machines
    this runs on have slow phases of tens of seconds in which the same
    code runs up to 1.7 times slower; uncorrected, they moved a run's
    median by 20 to 50% between runs."""
    def corrected(value, speed):
        scale = speed / REFERENCE_SPEED_S
        return value * scale if higher_is_better else value / scale
    positions = max(len(r) for r in rounds)
    return statistics.fmean(
        statistics.median(corrected(*r[i]) for r in rounds if len(r) > i)
        for i in range(positions))


# -- bookkeeping of one run ------------------------------------------------

@dataclass
class Outcome:
    """Timed samples per metric, one list of (value, speed) pairs per
    round, and the gated operations of one run."""
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, metric: str, *samples: tuple) -> None:
        self.samples.setdefault(metric, []).append(list(samples))

    def gate(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"GATE FAILED: {what}", file=sys.stderr)
        return ok

    def guarded(self, what: str, fn, *args):
        """Run one operation; an exception counts as a failed gate."""
        try:
            return fn(*args)
        except Exception:
            self.attempted += 1
            self.failures.append(f"{what}: raised")
            traceback.print_exc()
            return None


def kernel_dump(ke) -> str:
    return dump_state(ke.export_state())


# -- trial job ---------------------------------------------------------------

def python_prefix(features, init, steps: int, seed: int):
    """Drive the reference engine the way run_python_trial does (no
    audit, same early exit), timing it in ``PYTHON_CHUNKS`` equal
    chunks.  Returns (engine, a (ns per step, speed) sample per chunk)."""
    eng = PyEngine(features, init, SimChooser(seed))
    simple = features.simple
    chunk = max(1, steps // PYTHON_CHUNKS)
    samples = []
    done = 0
    over = False
    while done < steps and not over:
        ran = 0
        with Timer() as timer:
            while ran < min(chunk, steps - done):
                rec = eng.step()
                ran += 1
                if rec.stopped or (eng.pt_false == 0 and simple):
                    over = True
                    break
        samples.append(timer.per(ran * 1e-9))
        done += ran
    return eng, samples


def compiled_trial(features, init, steps: int, seed: int, checkpoint: int,
                   audit_cheap: bool = False):
    """One compiled trajectory in ``COMPILED_CHUNKS`` timed
    ``KernelEngine.run`` calls, with run_trial's early exit.  Returns
    (counts at ``checkpoint``, a (ns per step, speed) sample per chunk)."""
    ke = engine._kernel.KernelEngine(features, init, seed,
                                     audit_cheap=audit_cheap)
    chunk = max(1, steps // COMPILED_CHUNKS)
    samples = []
    at_checkpoint = None
    done = 0
    while done < steps:
        horizon = min(chunk, steps - done)
        marks = ([checkpoint - done] if done < checkpoint <= done + horizon
                 else [])
        before = ke.counts()["nodes"]
        with Timer() as timer:
            summary = ke.run(horizon, marks)
        counts = summary["final_counts"]
        if marks:
            at_checkpoint = summary["checkpoints"][0][1]
        if counts["nodes"] > before:
            samples.append(timer.per((counts["nodes"] - before) * 1e-9))
        done += horizon
        if (summary["stopped_at"] is not None
                or (features.simple and counts["pt_false"] == 0)):
            break
    if at_checkpoint is None:
        at_checkpoint = ke.counts()
    return at_checkpoint, samples


def trial_rep(inp: Inputs, out: Outcome) -> None:
    job = inp.spec.trial
    seed = derive_seed(inp.seed, inp.spec.name, "trial")
    eng, py_ns = python_prefix(job.features, inp.trial_init,
                               job.python_steps, seed)
    ke = engine._kernel.KernelEngine(job.features, inp.trial_init, seed)
    ke.run(job.python_steps)
    same_state = out.gate(kernel_dump(ke) == dump_state(eng.state),
                          f"{inp.spec.name}: Python and kernel states "
                          f"differ at step {job.python_steps}")
    del ke
    at_prefix, compiled_ns = compiled_trial(
        job.features, inp.trial_init, job.compiled_steps, seed,
        job.python_steps)
    same_counts = out.gate(
        at_prefix == eng.counts(),
        f"{inp.spec.name}: compiled counts at step {job.python_steps} "
        f"differ from the Python final counts")
    if same_state and same_counts:
        out.record("python_step_ns", *py_ns)
        out.record("compiled_step_ns", *compiled_ns)


def crosscheck(inp: Inputs, out: Outcome) -> None:
    """Both backends must return the same trial summary."""
    init = init_chain(25, 1, CF)
    for label, feats in inp.crosscheck:
        for i in range(CROSSCHECK_SEEDS):
            seed = derive_seed(inp.seed, "crosscheck", label, i)
            py = engine.run_trial(feats, init, CROSSCHECK_STEPS, seed,
                                  backend="python")
            ck = engine.run_trial(feats, init, CROSSCHECK_STEPS, seed,
                                  backend="compiled")
            out.gate(replace(py, backend="") == replace(ck, backend=""),
                     f"crosscheck {label} seed {i}: backends disagree")


# -- drift job ---------------------------------------------------------------

def drift_rep(inp: Inputs, out: Outcome) -> None:
    """``calls`` timed calls of each oracle."""
    job = inp.spec.drift
    value, leaves = inp.exact_expected
    exact_s = []
    for _ in range(job.calls):
        with Timer() as timer:
            res = potentials.exact_drift(inp.exact_state, DRIFT_FEATURES,
                                         POTENTIAL)
        exact_s.append(timer.per(1))
        if not out.gate(
                res.exact and res.value == value and res.leaf_count == leaves,
                f"exact_drift on the {job.chain}-node chain: got "
                f"{res.value} over {res.leaf_count} leaves, recorded "
                f"{value} over {leaves}"):
            return
    out.record("exact_drift_s", *exact_s)

    rates = []
    for call in range(job.calls):
        # fixed like the state: every run samples the same steps
        seed = derive_seed(MC_STATE_SEED, inp.spec.name, call)
        with Timer() as timer:
            est = potentials.mc_drift(inp.mc_state, inp.spec.trial.features,
                                      POTENTIAL, job.mc_samples, seed)
        rates.append(timer.rate(job.mc_samples))
        if not out.gate(est.samples == job.mc_samples
                        and math.isfinite(est.mean) and math.isfinite(est.se),
                        f"mc_drift returned {est}"):
            return
    out.record("mc_drift_samples_per_s", *rates)


def mc_agreement(inp: Inputs, out: Outcome) -> None:
    """The sampler and the enumeration describe the same step law."""
    value, _ = inp.exact_expected
    est = potentials.mc_drift(inp.exact_state, DRIFT_FEATURES, POTENTIAL,
                              MC_AGREEMENT_SAMPLES,
                              derive_seed(inp.seed, "mc-agreement"))
    gap = abs(est.mean - float(value))
    out.gate(gap <= MC_AGREEMENT_SIGMAS * est.se + 1e-9,
             f"mc_drift mean {est.mean} (se {est.se}) is {gap} away from "
             f"the exact drift {float(value)}")


# -- sweep job ---------------------------------------------------------------

def _with_errors(features: Features) -> Features:
    return replace(features, error_rate=SWEEP_ERROR_RATE)


def _sweep_cells(inp: Inputs) -> tuple:
    """The timed part of a sweep pass: per cell, the verdict and the
    trials that test it.  Returns (trial count, per-cell results)."""
    job = inp.spec.sweep
    cf_init = init_chain(5, 1, CF)
    ct_init = init_chain(5, 1, CT)
    checkpoints = (job.steps // 4, job.steps // 2, job.steps)
    trials = 0
    verdicts = []
    for label, feats in inp.sweep_cells:
        verdict = thresholds.theorem_verdict(feats)
        runs = [engine.run_trial(feats, cf_init, job.steps,
                                 derive_seed(inp.seed, "sweep", label, i),
                                 audit="cheap", backend="compiled")
                for i in range(job.trials)]
        trials += len(runs)
        report = None
        if verdict.kind == thresholds.PROVEN_ELIMINATION:
            noisy = _with_errors(feats)
            ff_runs = [engine.run_trial(
                noisy, ct_init, job.steps,
                derive_seed(inp.seed, "sweep-ff", label, i),
                checkpoint_steps=checkpoints, audit="cheap",
                backend="compiled") for i in range(SWEEP_FF_TRIALS)]
            trials += len(ff_runs)
            report = thresholds.false_fraction_check(ff_runs, noisy)
        verdicts.append((label, verdict, runs, report))
    return trials, verdicts


def sweep_pass(inp: Inputs, out: Outcome) -> None:
    with Timer() as timer:
        trials, verdicts = _sweep_cells(inp)
    ok = True
    for label, verdict, runs, report in verdicts:
        survivors = sum(r.survived_at_horizon for r in runs)
        if verdict.kind == thresholds.PROVEN_ELIMINATION:
            ok &= out.gate(survivors == 0,
                           f"sweep {label}: proven elimination but "
                           f"{survivors} of {len(runs)} trials survived")
            ok &= out.gate(report.passed,
                           f"sweep {label}: false-fraction check failed\n"
                           f"{report.describe()}")
        elif verdict.kind == thresholds.PROVEN_SURVIVAL:
            ok &= out.gate(survivors > 0,
                           f"sweep {label}: proven survival but no "
                           f"trial survived")
    if ok:
        out.record("sweep_trials_per_s", timer.rate(trials))


def sweep_parity(inp: Inputs, out: Outcome) -> None:
    """Trial 0 of every cell, short horizon, must match across backends
    with the cheap audit on."""
    init = init_chain(5, 1, CF)
    steps = min(inp.spec.sweep.steps, SWEEP_PARITY_STEPS)
    for label, feats in inp.sweep_cells:
        seed = derive_seed(inp.seed, "sweep", label, 0)
        py = engine.run_trial(feats, init, steps, seed, audit="cheap",
                              backend="python")
        ck = engine.run_trial(feats, init, steps, seed, audit="cheap",
                              backend="compiled")
        out.gate(replace(py, backend="") == replace(ck, backend=""),
                 f"sweep {label}: backends disagree over {steps} steps")


# -- a whole run -------------------------------------------------------------

JOBS = (trial_rep, drift_rep, sweep_pass)


def run(inp: Inputs, seconds: float, each_round=None) -> Outcome:
    """Rounds of one repetition of every job, until ``seconds`` have
    passed and at least ``MIN_ROUNDS`` rounds ran, then the one-off
    cross-checks.  Every round repeats the same work, since the seeds
    derive from ``inp.seed`` alone, so the samples at one position
    differ only in when they ran.  ``each_round(out)``, when given, runs
    at the start of every round."""
    out = Outcome()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        if each_round is not None:
            each_round(out)
        for job in JOBS:
            out.guarded(f"{job.__name__} {rounds}", job, inp, out)
        rounds += 1
    out.guarded("crosscheck", crosscheck, inp, out)
    out.guarded("mc agreement", mc_agreement, inp, out)
    out.guarded("sweep parity", sweep_parity, inp, out)
    return out
