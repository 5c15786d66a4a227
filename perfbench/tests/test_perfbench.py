"""Tests of the time-to-silence benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q

They run one shortened pass per workload (untraced twice, traced once)
and check that tracing never changes a row, that a seed always gives the
same rows, that those rows match the scan-engine reference, and that the
traced layers account for the trial wall time within the benchmark's
bound.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, check_seeded  # noqa: E402

bench.import_program()

#: specs per shortened pass: one of each protocol x topology cell of the
#: large-graph workloads, and the whole paper grid (its trials are short)
SHORT_PASS = {"sync-silence": 6, "central-steps": 6, "paper-campaign": 54}


def short(workload):
    """``workload`` with pass 0 cut to its first few specs (the same
    specs, with the same seeds, as the full pass starts with)."""
    size = SHORT_PASS[workload.name]
    return dataclasses.replace(
        workload, pass_size=size,
        cells=lambda seed, index: workload.cells(seed, index)[:size])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request, tmp_path_factory):
    """Pass 0 at the default seed: untraced twice, then traced."""
    workload = short(WORKLOADS[request.param])
    workdir = str(tmp_path_factory.mktemp(workload.name))
    first = bench.run_passes(workload, DEFAULT_SEED, workdir, 1)
    second = bench.run_passes(workload, DEFAULT_SEED, workdir, 1)
    tracer = Tracer()
    with tracer:
        traced = bench.run_passes(workload, DEFAULT_SEED, workdir, 1,
                                  tracer=tracer)
    return workload, first, second, traced, tracer


def rows(run):
    return [p.rows for p in run.passes]


def test_every_trial_committed(passes):
    workload, first, second, traced, _ = passes
    for run in (first, second, traced):
        assert run.trials == workload.pass_size
        assert len(run.passes[0].rows) == workload.pass_size
        assert run.passes[0].error is None


def test_tracing_does_not_change_rows(passes):
    _, first, _, traced, _ = passes
    assert rows(traced) == rows(first)


def test_same_seed_gives_identical_rows(passes):
    _, first, second, _, _ = passes
    assert rows(second) == rows(first)


def test_rows_match_scan_reference(passes):
    workload, first, _, _, _ = passes
    checker = bench.Checker(workload, DEFAULT_SEED)
    assert checker.reference is not None
    checker.check_pass(first.passes[0])
    assert checker.attempted == workload.pass_size
    assert checker.failed == 0, checker.messages


def test_reference_catches_a_changed_row(passes):
    workload, first, _, _, _ = passes
    result = first.passes[0]
    key = result.specs[0].key()
    changed = dict(result.rows, **{key: dict(result.rows[key])})
    changed[key]["steps"] += 1
    checker = bench.Checker(workload, DEFAULT_SEED)
    checker.check_pass(dataclasses.replace(result, rows=changed))
    assert checker.failed == 1


def test_unattributed_share_within_bound(passes):
    _, first, _, traced, tracer = passes
    metrics = bench.per_layer_metrics(tracer, traced, first)
    share = metrics["trial.unattributed_share"][0]
    assert 0.0 <= share <= bench.UNATTRIBUTED_BOUND
    assert metrics["api.spec.keys_per_trial"][0] == pytest.approx(4.0)
    assert metrics["results.sink.writes"][0] == pytest.approx(1.0)


def test_tracer_restores_every_method():
    from tracer import layer_targets

    before = [vars(cls)[attr] for _, cls, attr, _ in layer_targets()]
    with Tracer():
        pass
    after = [vars(cls)[attr] for _, cls, attr, _ in layer_targets()]
    assert before == after


def test_benchmark_json_matches_the_benchmark(passes):
    _, first, _, traced, tracer = passes
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    per_layer = bench.per_layer_metrics(tracer, traced, first)
    assert {m["name"] for m in spec["per_layer"]} == set(per_layer)
    for m in spec["per_layer"]:
        assert per_layer[m["name"]][1] == m["unit"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_seeds_every_random_topology(name):
    workload = WORKLOADS[name]
    specs = workload.pass_specs(DEFAULT_SEED, 0)
    again = workload.pass_specs(DEFAULT_SEED, 0)
    other = workload.pass_specs(DEFAULT_SEED + 1, 0)
    assert [s.to_dict() for s in specs] == [s.to_dict() for s in again]
    assert [s.key() for s in specs] != [s.key() for s in other]
    assert len({s.key() for s in specs}) == len(specs)
    check_seeded(specs)
    unseeded = [s.variant(topology="sparse", topology_params={"n": 10})
                for s in specs[:1]]
    with pytest.raises(ValueError):
        check_seeded(unseeded)


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/ present, the benchmark
    exits non-zero and prints no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(
                        "__pycache__", ".work", "out", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sync-silence",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failing_trial_is_counted(tmp_path):
    """A trial that hits ``max_rounds`` raises: it counts as attempted and
    failed, the pass stops there, and the traced metrics still reduce."""
    base = short(WORKLOADS["paper-campaign"])

    def cells(seed, index):
        out = base.cells(seed, index)[:3]
        protocol, topology, topo, scheduler, sched, extra = out[1]
        out[1] = (protocol, topology, topo, scheduler, sched,
                  dict(extra, max_rounds=1))
        return out

    workload = dataclasses.replace(base, pass_size=3, cells=cells)
    tracer = Tracer()
    with tracer:
        run = bench.run_passes(workload, 5, str(tmp_path), 1, tracer=tracer)
    result = run.passes[0]
    assert "ConvergenceError" in result.error
    assert len(result.rows) == 1
    checker = bench.Checker(workload, 5)
    checker.check_pass(result)
    assert (checker.attempted, checker.failed) == (2, 1)
    metrics = bench.per_layer_metrics(tracer, run, run)
    assert metrics["results.sink.writes"][0] == pytest.approx(1.0)
