"""Tests for the telemetry spine (repro.obs) and its surfaces.

The two contracts everything else hangs off:

* telemetry is *inert*: with the registry on or off, simulation traces
  are byte-identical (3 protocols × 2 daemons) — recording never
  touches state or RNG streams;
* telemetry is *live*: a running fabric campaign shows up mid-flight
  on the service's ``/progress`` (heartbeat fan-in, trial deltas) and
  ``/metrics`` (Prometheus text) endpoints, and ``repro top`` renders
  it.

Plus the satellites that ride along: CSV content negotiation shared
with ``repro query --csv``, ``--profile`` on campaign and fabric
workers, heartbeat cleanup on clean finishes, and the warehouse's
telemetry table.
"""

import csv
import io
import json
import os
import threading
import time
import urllib.request

import pytest

from repro.api import Campaign, ExperimentSpec
from repro.cli import main
from repro.core.trace import record_run
from repro.fabric import ResultService, build_plan, run_fabric
from repro.fabric.worker import run_worker_file
from repro.obs import prom
from repro.obs.progress import (
    ProgressTracker,
    fabric_summary,
    heartbeat_rows,
)
from repro.obs.registry import DEFAULT_BUCKETS, TELEMETRY, Telemetry
from repro.obs.top import render_top, top_frame
from repro import protocol_registry, ring, scheduler_registry
from repro.results import ResultStore

PROTOCOLS = ("coloring", "mis", "matching")
DAEMONS = ("synchronous", "central")


@pytest.fixture(autouse=True)
def obs_clean():
    """Every test starts and ends with a disabled, empty registry."""
    was = TELEMETRY.enabled
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.enabled = was
    TELEMETRY.reset()


def small_grid(seeds=4, n=6):
    return Campaign.grid(
        protocols=["coloring"],
        topologies=[("ring", {"n": n})],
        schedulers=["synchronous"],
        seeds=range(seeds),
    )


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram(self):
        t = Telemetry(enabled=True)
        t.counter("a").inc()
        t.counter("a").inc(4)
        t.gauge("g").set(2.5)
        t.gauge("g").inc()
        h = t.histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        snap = t.snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 3.5
        assert snap["histograms"]["h"]["counts"] == [1, 1, 1]
        assert snap["histograms"]["h"]["sum"] == pytest.approx(55.5)
        json.dumps(snap)  # JSON-clean by contract

    def test_handles_are_stable(self):
        t = Telemetry()
        assert t.counter("x") is t.counter("x")
        assert t.counter("x", shard=1) is t.counter("x", shard=1)
        assert t.counter("x", shard=1) is not t.counter("x", shard=2)

    def test_labels_fold_into_snapshot_keys(self):
        t = Telemetry(enabled=True)
        t.counter("req", endpoint="/query").inc()
        assert t.snapshot()["counters"] == {"req{endpoint=/query}": 1}

    def test_histogram_bucket_edges(self):
        t = Telemetry()
        h = t.histogram("h", buckets=(1.0,))
        h.observe(1.0)  # on the bound -> first bucket (le is inclusive)
        h.observe(1.0001)
        assert h.counts == [1, 1]

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_reset_drops_everything(self):
        t = Telemetry(enabled=True)
        t.counter("a").inc()
        with t.span("s"):
            pass
        t.reset()
        assert t.snapshot()["counters"] == {}
        assert t.spans() == []


class TestSpans:
    def test_span_records_wall_time_and_fields(self):
        t = Telemetry(enabled=True)
        with t.span("op", n=3) as span:
            span.note(steps=7)
        records = t.spans()
        assert len(records) == 1
        rec = records[0]
        assert rec["name"] == "op" and rec["n"] == 3 and rec["steps"] == 7
        assert rec["wall_s"] >= 0.0 and rec["t"] > 0

    def test_disabled_span_is_shared_noop(self):
        t = Telemetry(enabled=False)
        assert t.span("op") is t.span("other")
        with t.span("op"):
            pass
        assert t.spans() == []
        t.record_span("op", 0.5)
        assert t.spans() == []

    def test_ring_is_bounded(self):
        t = Telemetry(enabled=True, span_capacity=4)
        for i in range(10):
            t.record_span("op", 0.0, i=i)
        records = t.spans()
        assert [r["i"] for r in records] == [6, 7, 8, 9]

    def test_export_jsonl(self, tmp_path):
        t = Telemetry(enabled=True)
        t.record_span("a", 0.25, n=2)
        path = tmp_path / "spans.jsonl"
        assert t.export_spans_jsonl(str(path)) == 1
        rec = json.loads(path.read_text().strip())
        assert rec["name"] == "a" and rec["wall_s"] == 0.25 and rec["n"] == 2


class TestPrometheus:
    def test_exposition_format(self):
        t = Telemetry(enabled=True)
        t.counter("sim.steps").inc(12)
        t.gauge("engine.enabled_set").set(7)
        h = t.histogram("trial.wall_s", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = prom.render_prometheus(t)
        assert "# TYPE repro_sim_steps_total counter" in text
        assert "repro_sim_steps_total 12" in text
        assert "repro_engine_enabled_set 7" in text
        # cumulative buckets, +Inf closes the histogram
        assert 'repro_trial_wall_s_bucket{le="0.1"} 1' in text
        assert 'repro_trial_wall_s_bucket{le="1"} 2' in text
        assert 'repro_trial_wall_s_bucket{le="+Inf"} 3' in text
        assert "repro_trial_wall_s_count 3" in text
        assert text.endswith("\n")

    def test_labels_render(self):
        t = Telemetry(enabled=True)
        t.counter("service.requests", endpoint="/query").inc()
        text = prom.render_prometheus(t)
        assert ('repro_service_requests_total{endpoint="/query"} 1'
                in text)

    def test_metric_name_sanitized(self):
        assert prom.metric_name("engine.run_steps") == "repro_engine_run_steps"
        assert prom.metric_name("a-b c") == "repro_a_b_c"


# ----------------------------------------------------------------------
# The inertness contract: telemetry never changes an execution
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("daemon", DAEMONS)
    def test_traces_identical_on_or_off(self, protocol, daemon):
        def trace_jsonl():
            network = ring(9)
            proto = protocol_registry.build(protocol, network)
            sched = scheduler_registry.build(daemon, network)
            return record_run(proto, network, seed=11, steps=30,
                              scheduler=sched).to_jsonl()

        TELEMETRY.disable()
        off = trace_jsonl()
        TELEMETRY.enable()
        on = trace_jsonl()
        assert on == off, "telemetry must never perturb an execution"

    @pytest.mark.parametrize("engine", ["incremental", "batch",
                                        "batch-resident"])
    def test_trial_results_identical_on_or_off(self, engine):
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 16}, seed=3,
                              engine=engine)
        TELEMETRY.disable()
        off = spec.run().to_dict()
        TELEMETRY.enable()
        on = spec.run().to_dict()
        assert on == off


# ----------------------------------------------------------------------
# Instrumented layers actually record
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_trial_execution_counts(self):
        TELEMETRY.enable()
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8}, seed=0)
        result = spec.run()
        snap = TELEMETRY.snapshot()
        assert snap["counters"]["trial.executed"] == 1
        assert snap["counters"]["sim.steps"] == result.steps
        assert snap["counters"]["sim.activations"] >= result.steps
        assert snap["histograms"]["trial.wall_s"]["count"] == 1
        names = [r["name"] for r in TELEMETRY.spans()]
        assert "trial.execute" in names

    def test_resident_run_records_fused_spans(self):
        TELEMETRY.enable()
        sim = ExperimentSpec(protocol="coloring", topology="ring",
                             topology_params={"n": 32}, seed=1,
                             engine="batch-resident",
                             metrics="aggregate").build_simulator()
        sim.run_resident(steps=10)
        snap = TELEMETRY.snapshot()
        assert snap["counters"]["sim.steps"] == 10
        spans = [r for r in TELEMETRY.spans()
                 if r["name"] == "engine.run_steps"]
        assert spans and spans[-1]["steps"] == 10
        assert snap["histograms"]["engine.fused_span_steps"]["count"] >= 1

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_silence_checks_counted(self, protocol):
        """Exact checks bump ``silence.checks``; the fused driver's
        columnar verdicts land on its ``engine.run_steps`` span — one
        per synchronous round, none of them an exact check."""
        sim = ExperimentSpec(protocol=protocol, topology="ring",
                             topology_params={"n": 16}, seed=2,
                             engine="batch",
                             metrics="aggregate").build_simulator()
        sim.is_silent()
        assert TELEMETRY.snapshot()["counters"]["silence.checks"] == 0
        TELEMETRY.enable()
        sim.is_silent()
        assert TELEMETRY.snapshot()["counters"]["silence.checks"] == 1
        steps, silent = sim.run_resident(stop_on_silence=True,
                                         max_rounds=10_000)
        assert silent
        span = [r for r in TELEMETRY.spans()
                if r["name"] == "engine.run_steps"][-1]
        assert span["silence_checks"] == steps
        assert TELEMETRY.snapshot()["counters"]["silence.checks"] == 1

    @pytest.mark.parametrize("daemon", DAEMONS)
    def test_all_pool_run_never_touches_the_enabled_set(self, daemon):
        """Daemons drawing from all processes never query the enabled
        set, so the incremental engine neither scans nor reclassifies."""
        TELEMETRY.enable()
        result = ExperimentSpec(protocol="mis", topology="ring",
                                topology_params={"n": 12}, scheduler=daemon,
                                seed=4).run()
        assert result.silent
        counters = TELEMETRY.snapshot()["counters"]
        assert counters.get("engine.incremental.rescans", 0) == 0
        assert counters.get("engine.incremental.reclassified", 0) == 0

    def test_rescans_exclude_the_deferred_first_scan(self):
        """An enabled-drawing run primes the engine with one uncounted
        scan, then reclassifies dirty guards; only a later full
        invalidation counts as a rescan."""
        TELEMETRY.enable()
        sim = ExperimentSpec(protocol="mis", topology="ring",
                             topology_params={"n": 12}, scheduler="central",
                             scheduler_params={"enabled_only": True},
                             seed=4).build_simulator()
        sim.run_steps(10)
        counters = TELEMETRY.snapshot()["counters"]
        assert counters.get("engine.incremental.rescans", 0) == 0
        assert counters["engine.incremental.reclassified"] > 0
        sim.invalidate_enabled(None)
        sim.enabled_processes()
        counters = TELEMETRY.snapshot()["counters"]
        assert counters["engine.incremental.rescans"] == 1

    @pytest.mark.parametrize("invalidate", ["none", "config"])
    def test_full_invalidation_before_first_query_is_a_rescan(
            self, invalidate):
        """A full invalidation (or a replaced configuration) before the
        first query still counts its scan, as when bind scanned eagerly."""
        TELEMETRY.enable()
        sim = ExperimentSpec(protocol="mis", topology="ring",
                             topology_params={"n": 12}, seed=4,
                             ).build_simulator()
        if invalidate == "none":
            sim.invalidate_enabled(None)
        else:
            sim.config = sim.config.copy()
        sim.enabled_processes()
        sim.enabled_processes()
        counters = TELEMETRY.snapshot()["counters"]
        assert counters["engine.incremental.rescans"] == 1

    def test_campaign_records_store_snapshot(self, tmp_path):
        store_path = tmp_path / "camp.sqlite"
        small_grid(seeds=3).run(out=store_path, sink="sqlite",
                                run_id="obs")
        with ResultStore(store_path, create=False) as store:
            rows = store.telemetry_snapshots("obs")
        assert len(rows) == 1
        payload = rows[0]["payload"]
        assert rows[0]["source"] == "campaign"
        assert payload["executed"] == 3 and payload["resumed"] == 0
        assert payload["wall_time_s"] > 0

    def test_telemetry_table_roundtrip_and_prune(self, tmp_path):
        path = tmp_path / "t.sqlite"
        with ResultStore(path) as store:
            store.begin_run(run_id="r1")
            store.record_telemetry("r1", {"a": 1}, source="fabric")
            store.record_telemetry("r1", {"a": 2})
            rows = store.telemetry_snapshots("r1")
            assert [r["payload"]["a"] for r in rows] == [1, 2]
            assert rows[0]["source"] == "fabric"
            assert rows[1]["source"] == "campaign"
            store.delete_run("r1")
            store.begin_run(run_id="r2")
            assert store.telemetry_snapshots("r2") == []


# ----------------------------------------------------------------------
# Progress assembly (tracker, heartbeat fan-in, top rendering)
# ----------------------------------------------------------------------
class TestProgressPieces:
    def test_tracker_deltas(self):
        tracker = ProgressTracker()
        first = tracker.update("r", 10, now=100.0)
        assert first == {"trials": 10, "interval_s": None,
                         "trials_per_s": None}
        second = tracker.update("r", 16, now=103.0)
        assert second["trials"] == 6
        assert second["trials_per_s"] == pytest.approx(2.0)

    def test_fabric_summary_eta(self):
        from repro.fabric import Heartbeat

        beats = [
            Heartbeat(shard=0, pid=1, total=50, completed=20,
                      status="running", updated_at=1000.0,
                      trials_per_s=2.0),
            Heartbeat(shard=1, pid=2, total=50, completed=50,
                      status="done", updated_at=900.0),
        ]
        rows = heartbeat_rows(beats, now=1001.0)
        assert [r["stalled"] for r in rows] == [False, False]
        summary = fabric_summary(rows)
        assert summary["completed"] == 70 and summary["total"] == 100
        assert summary["eta_s"] == pytest.approx(15.0)
        # a running worker past the stall timeout is flagged
        rows = heartbeat_rows(beats, now=1030.0, stall_timeout_s=10.0)
        assert rows[0]["stalled"] and not rows[1]["stalled"]
        assert fabric_summary(rows)["stalled"] == 1

    def test_top_frame_and_render(self, tmp_path):
        from repro.fabric import Heartbeat, write_heartbeat

        plan = tmp_path / "plan"
        plan.mkdir()
        write_heartbeat(
            str(plan / "heartbeat-0.json"),
            Heartbeat(shard=0, pid=1, total=10, completed=4,
                      status="running", updated_at=time.time(),
                      trials_per_s=2.0))
        frame = top_frame(str(plan))
        text = render_top(frame, str(plan))
        assert "shard 0" in text and "40%" in text or "4/10" in text
        assert frame["fabric"]["summary"]["workers"] == 1

    def test_cli_top_once_plan_dir(self, tmp_path, capsys):
        plan = tmp_path / "empty-plan"
        plan.mkdir()
        assert main(["top", str(plan), "--once"]) == 0
        out = capsys.readouterr().out
        assert "no live fabric heartbeats" in out

    def test_cli_top_unreachable_url(self):
        assert main(["top", "http://127.0.0.1:9", "--once"]) == 1


# ----------------------------------------------------------------------
# The service surfaces: /progress, /metrics, CSV negotiation
# ----------------------------------------------------------------------
def _get(url, accept=None):
    request = urllib.request.Request(url)
    if accept:
        request.add_header("Accept", accept)
    with urllib.request.urlopen(request) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode())


@pytest.fixture
def served_store(tmp_path):
    store_path = tmp_path / "served.sqlite"
    small_grid(seeds=5).run(out=store_path, sink="sqlite", run_id="base")
    with ResultService(str(store_path)) as service:
        yield store_path, service


class TestServiceSurfaces:
    def test_progress_store_only(self, served_store):
        _path, service = served_store
        _s, ctype, body = _get(service.url + "/progress")
        assert ctype.startswith("application/json")
        payload = json.loads(body)
        assert payload["run"] == "base" and payload["trials"] == 5
        assert payload["delta"]["trials"] == 5
        assert payload["fabric"] is None
        assert payload["telemetry"]["payload"]["executed"] == 5
        # second poll: no new trials -> zero delta, a window rate
        _s, _c, body = _get(service.url + "/progress")
        assert json.loads(body)["delta"]["trials"] == 0

    def test_metrics_exposition(self, served_store):
        _path, service = served_store
        _s, ctype, body = _get(service.url + "/metrics")
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        assert "repro_store_runs 1" in body
        assert "repro_store_trials 5" in body
        # request counters appear once the registry is on
        TELEMETRY.enable()
        _get(service.url + "/query")
        _s, _c, body = _get(service.url + "/metrics")
        assert ('repro_service_requests_total{endpoint="/query"} 1'
                in body)

    def test_query_csv_negotiation(self, served_store):
        store_path, service = served_store
        _s, ctype, body = _get(
            service.url + "/query?format=csv&metrics=rounds"
                          "&group_by=protocol")
        assert ctype.startswith("text/csv")
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[0] == ["protocol", "trials", "rounds_mean",
                           "rounds_ci95", "rounds_median"]
        with ResultStore(store_path, create=False) as store:
            direct = store.query(metrics=["rounds"], group_by=["protocol"])
        assert float(rows[1][2]) == pytest.approx(
            direct[0].aggregates["rounds"].mean)
        # Accept header negotiates too, explicit param wins over it
        _s, ctype, _b = _get(service.url + "/query", accept="text/csv")
        assert ctype.startswith("text/csv")
        _s, ctype, _b = _get(service.url + "/query?format=json",
                             accept="text/csv")
        assert ctype.startswith("application/json")

    def test_runs_and_report_csv(self, served_store):
        _path, service = served_store
        _s, ctype, body = _get(service.url + "/runs?format=csv")
        assert ctype.startswith("text/csv")
        rows = list(csv.reader(io.StringIO(body)))
        assert "run_id" in rows[0] and rows[1][0] == "base"
        _s, ctype, body = _get(
            service.url + "/report?recipe=paper-overhead&format=csv")
        assert ctype.startswith("text/csv")
        header = next(csv.reader(io.StringIO(body)))
        assert header[:3] == ["protocol", "topology", "trials"]

    def test_cli_query_csv_matches_service(self, served_store, tmp_path,
                                           capsys):
        store_path, service = served_store
        _s, _c, service_body = _get(
            service.url + "/query?format=csv&metrics=rounds"
                          "&group_by=protocol")
        assert main(["query", "--store", str(store_path), "--csv",
                     "--metrics", "rounds", "--group-by", "protocol"]) == 0
        cli_body = capsys.readouterr().out
        assert cli_body == service_body


# ----------------------------------------------------------------------
# Live fabric: /progress mid-flight through a chaos-killed run
# ----------------------------------------------------------------------
class TestLiveFabric:
    def test_progress_reflects_running_fabric(self, tmp_path):
        store_path = tmp_path / "live.sqlite"
        ResultStore(str(store_path)).close()  # service needs a store file
        campaign = small_grid(seeds=60)
        outcome_box = {}

        def drive():
            outcome_box["outcome"] = run_fabric(
                campaign, str(store_path), run_id="live",
                workers=2, shards=4, chaos_kills=1,
            )

        thread = threading.Thread(target=drive)
        with ResultService(str(store_path)) as service:
            thread.start()
            fabric_samples = []
            counts = []
            while thread.is_alive():
                _s, _c, body = _get(service.url + "/progress")
                payload = json.loads(body)
                counts.append(payload["trials"])
                if payload["fabric"] is not None:
                    fabric_samples.append(payload["fabric"])
                time.sleep(0.02)
            thread.join()
            _s, _c, final = _get(service.url + "/progress")
        outcome = outcome_box["outcome"]
        assert outcome.ok and outcome.requeued >= 1
        # heartbeats were visible mid-flight (the whole point of /progress)
        assert fabric_samples, "no /progress sample caught the live fabric"
        sample = fabric_samples[-1]
        assert sample["summary"]["workers"] >= 1
        assert sample["plan_dir"] == str(store_path) + ".fabric"
        assert counts == sorted(counts), "trial counts must be monotone"
        payload = json.loads(final)
        assert payload["trials"] == 60
        # clean finish wiped the heartbeats, so the fabric section is gone
        assert payload["fabric"] is None
        assert payload["telemetry"]["source"] == "fabric"
        assert payload["telemetry"]["payload"]["requeued"] >= 1

    def test_heartbeats_cleaned_on_clean_finish(self, tmp_path):
        import glob as globmod

        store_path = tmp_path / "clean.sqlite"
        outcome = run_fabric(small_grid(seeds=8), str(store_path),
                             run_id="clean", workers=2, shards=2,
                             keep_shards=True)
        assert outcome.ok
        assert outcome.heartbeats_cleaned == 2
        assert "2 stale heartbeats cleaned" in outcome.describe()
        workdir = str(store_path) + ".fabric"
        assert globmod.glob(os.path.join(workdir, "heartbeat-*.json")) == []
        # --keep-shards still keeps the shard stores themselves
        assert globmod.glob(os.path.join(workdir, "shard-*.sqlite"))

    def test_failed_run_keeps_heartbeats(self, tmp_path):
        # A failed outcome must leave the evidence on disk.
        import glob as globmod

        store_path = tmp_path / "fail.sqlite"
        outcome = run_fabric(small_grid(seeds=6), str(store_path),
                             run_id="fail", workers=2, shards=2,
                             chaos_kills=2, max_retries=0,
                             keep_shards=True)
        assert not outcome.ok
        assert outcome.heartbeats_cleaned == 0
        workdir = str(store_path) + ".fabric"
        assert globmod.glob(os.path.join(workdir, "heartbeat-*.json"))


# ----------------------------------------------------------------------
# Profiling satellites
# ----------------------------------------------------------------------
class TestProfiles:
    def test_campaign_profile_dump(self, tmp_path, capsys):
        pstats_path = tmp_path / "camp.pstats"
        assert main([
            "campaign", "--protocols", "coloring",
            "--topologies", "ring:n=6", "--seeds", "2",
            "--quiet", "--profile", str(pstats_path),
        ]) == 0
        assert pstats_path.exists() and pstats_path.stat().st_size > 0
        import pstats

        stats = pstats.Stats(str(pstats_path))
        assert stats.total_calls > 0

    def test_worker_profile_dump_suffixed_by_shard(self, tmp_path):
        workdir = tmp_path / "plan"
        tasks = build_plan(small_grid(seeds=4).specs, 2, str(workdir),
                           "prof")
        from repro.fabric import shard_file_path

        base = tmp_path / "worker.pstats"
        for task in tasks:
            shard_file = task.write(
                shard_file_path(str(workdir), task.index))
            assert run_worker_file(shard_file, quiet=True,
                                   profile=str(base)) == 0
        for task in tasks:
            dump = tmp_path / f"worker.pstats.shard-{task.index}.pstats"
            assert dump.exists() and dump.stat().st_size > 0
