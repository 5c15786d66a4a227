"""Time-to-silence benchmark: paper trials end to end, split by layer.

Drives paper trials through the public API — lists of
:class:`~repro.api.ExperimentSpec` run by ``Campaign.run(workers=0)``
into a fresh ``sqlite`` sink per pass — as a closed loop with one
client: a trial starts only after the previous row is committed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sync-silence --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same passes untraced and then traced, and
reports the per-layer metrics of the traced passes.  Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit for people.

The exit code is 0 when every trial was correct, 1 when some trial
failed (the result line is still printed), and 2 when the program
under test cannot be found (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")
SPANS_DIR = os.path.join(HERE, "out")

#: setup probes per ``--trace 0`` run; ``setup_s`` is their median
SETUP_PROBES = 5
#: fewest trials a run takes, so that ``trial_s.p90`` always has at
#: least ten samples beyond it
MIN_TRIALS = 100
#: bound on ``trial.unattributed_share`` checked by the benchmark's tests
UNATTRIBUTED_BOUND = 0.10
#: run id the campaign's sqlite sink writes into (its default)
SINK_RUN_ID = "campaign"


class ProgramMissing(Exception):
    """The program under test is not beside the benchmark."""


def import_program() -> None:
    """Put ``src/`` first on the path and import ``repro`` from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"repro imported from {repro.__file__}")


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
#: iterations of the calibration loop (about 5 ms each timing)
CAL_ITERATIONS = 20_000
#: the calibration loop's typical time when the benchmark was written
#: (2-core x86-64 container, Python 3.11); times are scaled to it
CAL_NOMINAL_S = 0.0049
#: least time between two calibrations inside a pass
CAL_INTERVAL_S = 0.25


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop.

    The loop is the benchmark's own code, so no change to the program
    moves it; only the machine's speed does.  The shared hosts this runs
    on switch between speeds that differ by about 1.5x within seconds,
    so every timing is scaled by ``CAL_NOMINAL_S / calibrate()`` taken
    around it.
    """
    best = float("inf")
    for _ in range(3):
        table: Dict[int, int] = {}
        start = perf_counter()
        for i in range(CAL_ITERATIONS):
            table[i & 1023] = table.get((i * 7) & 1023, 0) + i
        best = min(best, perf_counter() - start)
    return best


def speed_factor(before: float, after: float) -> float:
    """Scale from raw to nominal time, given calibrations around a span."""
    return CAL_NOMINAL_S / ((before + after) / 2.0)


# ----------------------------------------------------------------------
# Running passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    index: int
    specs: list
    #: per committed trial: time from the end of the previous trial's
    #: bookkeeping (or the start of the campaign) to its commit
    gaps: List[float]
    #: per committed trial: its raw-to-nominal time scale
    factors: List[float]
    #: campaign time after the last commit (the sink's close), and its scale
    tail_s: float
    tail_factor: float
    #: spec key -> committed row, read back from the sink
    rows: Dict[str, dict]
    #: traceback when the campaign raised
    error: Optional[str] = None

    @property
    def wall_s(self) -> float:
        """Raw campaign wall time (the benchmark's own bookkeeping between
        trials excluded)."""
        return sum(self.gaps) + self.tail_s

    @property
    def nominal_gaps(self) -> List[float]:
        return [g * f for g, f in zip(self.gaps, self.factors)]

    @property
    def nominal_wall_s(self) -> float:
        return sum(self.nominal_gaps) + self.tail_s * self.tail_factor


@dataclass
class RunResult:
    passes: List[PassResult] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return sum(len(p.gaps) for p in self.passes)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.passes)

    @property
    def gaps(self) -> List[float]:
        return [g for p in self.passes for g in p.gaps]

    @property
    def nominal_gaps(self) -> List[float]:
        return [g for p in self.passes for g in p.nominal_gaps]

    def trials_per_s(self) -> float:
        """Trials per nominal second of campaign wall time."""
        return self.trials / sum(p.nominal_wall_s for p in self.passes)


def read_rows(path: str) -> Dict[str, dict]:
    from repro.results import ResultStore

    store = ResultStore(path, create=False)
    try:
        return {key: result.to_dict()
                for key, result in store.completed(SINK_RUN_ID).items()}
    finally:
        store.close()


def run_pass(workload, seed: int, index: int, workdir: str,
             tracer=None) -> PassResult:
    """One campaign over pass ``index``, into a fresh sqlite sink.

    The progress callback stamps each commit and, at most every
    :data:`CAL_INTERVAL_S`, calibrates the machine's speed; its own time
    is left out of every trial's gap.
    """
    from repro.api import Campaign

    specs = workload.pass_specs(seed, index)
    path = os.path.join(workdir, f"pass-{index}.sqlite")
    commits: List[float] = []
    resumes: List[float] = []
    #: (trials committed when taken, calibration time)
    cals = [(0, calibrate())]
    last_cal = [perf_counter()]

    def progress(_spec, _result):
        now = perf_counter()
        commits.append(now)
        if tracer is not None and len(commits) < len(specs):
            # What runs after the last commit (the sink's close) is
            # charged to the last trial.
            tracer.trial_id += 1
        if now - last_cal[0] >= CAL_INTERVAL_S:
            cals.append((len(commits), calibrate()))
            last_cal[0] = perf_counter()
        resumes.append(perf_counter())

    error = None
    if tracer is not None:
        tracer.trial_id = tracer.next_trial
    start = perf_counter()
    try:
        Campaign(specs).run(out=path, sink="sqlite", workers=0,
                            progress=progress)
    except Exception:  # a failing trial is counted, the run goes on
        error = traceback.format_exc()
    end = perf_counter()
    cals.append((len(commits) + 1, calibrate()))
    if tracer is not None:
        tracer.next_trial += len(specs)
        tracer.trial_id = -1
    rows = read_rows(path) if os.path.exists(path) else {}
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    gaps = [c - r for r, c in zip([start] + resumes, commits)]
    factors = []
    for i in range(len(commits)):
        # Trial i runs after i commits and ends at commit i + 1.
        before = [v for at, v in cals if at <= i][-1]
        after = next(v for at, v in cals if at >= i + 1)
        factors.append(speed_factor(before, after))
    tail_start = resumes[-1] if resumes else start
    return PassResult(index, specs, gaps, factors, end - tail_start,
                      speed_factor(cals[-2][1], cals[-1][1]), rows, error)


def pass_count(workload, seconds: float) -> int:
    """Passes a run of about ``seconds`` takes at the workload's nominal
    rate: never fewer than :data:`MIN_TRIALS` trials, never more than the
    workload's cap.  The count depends on ``seconds`` only, not on the
    clock, so two runs at one seed always run the same trials."""
    wanted = round(seconds * workload.nominal_rate / workload.pass_size)
    floor = -(-MIN_TRIALS // workload.pass_size)
    return min(max(wanted, floor), workload.max_passes)


def run_passes(workload, seed: int, workdir: str, passes: int,
               tracer=None) -> RunResult:
    """Passes ``0 .. passes-1``, one campaign each, back to back."""
    run = RunResult()
    for index in range(passes):
        run.passes.append(run_pass(workload, seed, index, workdir, tracer))
    return run


def setup(workload, seed: int, workdir: str) -> None:
    """Build a campaign, open a sink and run one untimed warm-up trial
    (the program is already imported)."""
    from repro.api import Campaign

    warm = workload.pass_specs(seed, 0)[:1]
    Campaign(warm).run(out=os.path.join(workdir, "warmup.sqlite"),
                       sink="sqlite", workers=0)


def probe_setup(args) -> Tuple[float, float]:
    """Wall time of one fresh process from start to ready after setup,
    and its raw-to-nominal scale."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    before = calibrate()
    start = perf_counter()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
    finally:
        child.stdout.close()
        try:
            child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    if line.strip() != b"ready" or child.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {child.returncode})")
    return elapsed, speed_factor(before, calibrate())


# ----------------------------------------------------------------------
# Checking outputs
# ----------------------------------------------------------------------
class Checker:
    """Counts attempted and failed trials of a run.

    A trial fails if it raises, hits ``max_rounds`` (which raises), ends
    not silent or not legitimate, or — at the default seed — commits a
    row whose digest differs from the scan-engine reference.
    """

    def __init__(self, workload, seed: int):
        from reference import load_reference
        from workloads import DEFAULT_SEED

        self.reference = (load_reference(workload.name)
                          if seed == DEFAULT_SEED else None)
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    @property
    def scope(self) -> str:
        if self.reference is not None:
            return "every row field, against the scan-engine reference"
        return "silent and legitimate only (no reference for this seed)"

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)

    def check_pass(self, result: PassResult) -> None:
        from reference import row_digest

        committed = len(result.rows)
        self.attempted += committed + (1 if result.error else 0)
        if result.error:
            self.fail(f"pass {result.index} raised after {committed} "
                      f"trials:\n{result.error}")
        expected = (self.reference[result.index]
                    if self.reference is not None else None)
        for i, spec in enumerate(result.specs):
            key = spec.key()
            row = result.rows.get(key)
            if row is None:
                continue  # not attempted (an earlier trial raised)
            if not (row["silent"] and row["legitimate"]):
                self.fail(f"{key}: silent={row['silent']} "
                          f"legitimate={row['legitimate']}")
            elif expected is not None and row_digest(key, row) != expected[i]:
                self.fail(f"{key}: row differs from the reference: {row}")

    def check_same_rows(self, untraced: RunResult, traced: RunResult) -> None:
        """Tracing must not change results: rows must match pass by pass."""
        for a, b in zip(untraced.passes, traced.passes):
            for key, row in b.rows.items():
                if a.rows.get(key) != row:
                    self.fail(f"{key}: traced row differs from untraced row")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def quantile(values: List[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1), linear between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end_metrics(run: RunResult, probes: List[Tuple[float, float]]):
    """Every end-to-end metric at nominal machine speed (see
    :func:`calibrate`)."""
    gaps = run.nominal_gaps
    return {
        "trials_per_s": (run.trials_per_s(), "1/s"),
        "trial_s.p50": (quantile(gaps, 0.5), "s"),
        "trial_s.p90": (quantile(gaps, 0.9), "s"),
        "setup_s": (statistics.median(t * f for t, f in probes), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def per_layer_metrics(tracer, traced: RunResult, untraced: RunResult):
    """Every per-layer metric of the traced passes; times at nominal
    machine speed, scaled trial by trial."""
    scale = []  # indexed by trial id: every spec of a pass has one
    for p in traced.passes:
        pad = p.factors[-1:] or [p.tail_factor]
        scale += p.factors + pad * (len(p.specs) - len(p.factors))
    totals = tracer.layer_totals(scale)
    empty = {"self_s": 0.0, "calls": 0, "value": 0.0, "truthy": 0}
    trials = traced.trials

    def layer(name):
        return totals.get(name, empty)

    def per_trial(x):
        return x / trials

    out = {}
    for metric, name in (
        ("graphs.build_s", "graphs.build"),
        ("protocols.build_s", "protocols.build"),
        ("protocols.arbitrary_s", "protocols.arbitrary"),
        ("core.simulator.init_s", "core.simulator.init"),
        ("core.engine.bind_s", "core.engine.bind"),
        ("core.scheduler.select_s", "core.scheduler.select"),
        ("core.simulator.step_s", "core.simulator.step"),
        ("core.engine.note_step_s", "core.engine.note_step"),
        ("core.metrics.fold_s", "core.metrics.fold"),
        ("core.batchengine.run_steps_s", "core.batchengine.run_steps"),
        ("core.batchengine.execute_step_s", "core.batchengine.execute_step"),
        ("api.spec.key_s", "api.spec.key"),
        ("protocols.legitimate_s", "protocols.legitimate"),
        ("core.metrics.assemble_s", "core.metrics.assemble"),
        ("results.sink.open_s", "results.sink.open"),
        ("results.sink.completed_s", "results.sink.completed"),
        ("results.sink.write_s", "results.sink.write"),
        ("results.sink.close_s", "results.sink.close"),
    ):
        out[metric] = (per_trial(layer(name)["self_s"]), "s/trial")
    scalar = layer("core.silence.check")
    cols = layer("core.silence.cols_check")
    checks = scalar["calls"] + cols["calls"]
    out["core.silence.check_s"] = (
        per_trial(scalar["self_s"] + cols["self_s"]), "s/trial")
    out["core.silence.checks"] = (per_trial(checks), "1/trial")
    out["core.silence.cols_checks"] = (per_trial(cols["calls"]), "1/trial")
    out["core.silence.silent_ratio"] = (
        (scalar["truthy"] + cols["truthy"]) / checks if checks else 0.0,
        "ratio")
    out["core.scheduler.activations"] = (
        per_trial(layer("core.scheduler.select")["value"]), "1/trial")
    out["core.simulator.steps"] = (
        per_trial(layer("core.simulator.step")["calls"]), "1/trial")
    out["core.batchengine.fused_steps"] = (
        per_trial(layer("core.batchengine.run_steps")["value"]), "1/trial")
    out["core.batchengine.execute_steps"] = (
        per_trial(layer("core.batchengine.execute_step")["calls"]),
        "1/trial")
    out["api.spec.keys_per_trial"] = (
        per_trial(layer("api.spec.key")["calls"]), "1/trial")
    out["results.sink.writes"] = (
        per_trial(layer("results.sink.write")["calls"]), "1/trial")
    # Trial wall time here is campaign wall time: the gaps between
    # commits plus the sink close after the last one.
    wall = sum(p.nominal_wall_s for p in traced.passes)
    out["trial.unattributed_share"] = (
        (wall - tracer.attributed_s(scale)) / wall, "ratio")
    out["trace.overhead"] = (
        untraced.trials_per_s() / traced.trials_per_s() - 1.0, "ratio")
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def measure(args, workload, workdir: str):
    """``--trace 0``: setup probes, then timed passes with tracing off."""
    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    setup(workload, args.seed, workdir)
    checker = Checker(workload, args.seed)
    run = run_passes(workload, args.seed, workdir,
                     pass_count(workload, args.seconds))
    for result in run.passes:
        checker.check_pass(result)
    metrics = end_to_end_metrics(run, probes)
    p90 = metrics["trial_s.p90"][0]
    raw = run.gaps
    notes = {
        "trials_per_s": f"{run.trials} trials in {len(run.passes)} "
                        f"passes; raw {run.trials / run.wall_s:.4g} over "
                        f"{run.wall_s:.2f} s of campaign wall time",
        "trial_s.p50": f"{len(raw)} samples; raw {quantile(raw, 0.5):.4g}",
        "trial_s.p90": f"{len(raw)} samples, "
                       f"{sum(g > p90 for g in run.nominal_gaps)} beyond; "
                       f"raw {quantile(raw, 0.9):.4g}",
        "setup_s": f"median of {len(probes)} fresh processes; raw "
                   f"{statistics.median(t for t, _ in probes):.4g}",
    }
    return run, checker, metrics, notes


def measure_traced(args, workload, workdir: str):
    """``--trace 1``: untraced passes for half the time, then the same
    passes traced; per-layer metrics come from the traced ones."""
    from tracer import Tracer

    setup(workload, args.seed, workdir)
    checker = Checker(workload, args.seed)
    passes = pass_count(workload, args.seconds / 2)
    untraced = run_passes(workload, args.seed, workdir, passes)
    tracer = Tracer()
    with tracer:
        traced = run_passes(workload, args.seed, workdir, passes,
                            tracer=tracer)
    for result in untraced.passes + traced.passes:
        checker.check_pass(result)
    checker.check_same_rows(untraced, traced)
    metrics = per_layer_metrics(tracer, traced, untraced)
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{workload.name}.spans.csv.gz")
    tracer.write_csv(spans_path)
    write_trials(traced, os.path.join(SPANS_DIR, f"{workload.name}.trials.csv"))
    notes = {
        "trial.unattributed_share": f"{traced.trials} traced trials, "
                                    f"{len(tracer)} spans in {spans_path}",
    }
    return traced, checker, metrics, notes


def write_trials(run: RunResult, path: str) -> None:
    """The traced trials in span trial-id order: spec key, protocol,
    raw time and its raw-to-nominal scale."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial,key,protocol,gap_s,factor\n")
        first = 0  # trial ids advance by a whole pass, committed or not
        for result in run.passes:
            for i, (spec, gap, factor) in enumerate(
                    zip(result.specs, result.gaps, result.factors)):
                fh.write(f"{first + i},{spec.key()},{spec.protocol},"
                         f"{gap!r},{factor!r}\n")
            first += len(result.specs)


def parse_args(argv=None):
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        import_program()
        if args.setup_probe:
            setup(workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        if args.trace:
            run, checker, metrics, notes = measure_traced(args, workload,
                                                         workdir)
        else:
            run, checker, metrics, notes = measure(args, workload, workdir)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}: {run.trials} trials")
    if not args.trace:
        # Not in the JSON metrics: it is 0 whenever the program is
        # correct, and the result line carries it as failed / attempted.
        metrics_shown = dict(metrics)
        metrics_shown["failed_trial_ratio"] = (
            checker.failed / max(checker.attempted, 1), "ratio")
        notes["failed_trial_ratio"] = (
            f"{checker.failed} of {checker.attempted} attempted")
    else:
        metrics_shown = metrics
    for name, (value, unit) in metrics_shown.items():
        note = notes.get(name)
        print(f"  {name:34s} {value:<14.6g} {unit:8s}"
              + (f"  ({note})" if note else ""))
    print(f"checked: {checker.scope}")
    for message in checker.messages:
        print(f"FAILED {message}")
    correct = checker.failed == 0 and checker.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
