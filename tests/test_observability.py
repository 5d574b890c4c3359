"""Tests for the unified tracing & metrics subsystem (repro.observability).

Covers the tracer core (span nesting/ordering invariants, async spans,
counters/gauges, a disabled tracer that still counts), Chrome trace-event export and its
validator (round-trip through JSON, monotonic timestamps, one pid per rank,
non-overlapping comm lanes), aggregated metrics (MetricsReport), measured
communication time from the union of the comm spans, the versioned BENCH
json envelope, that no collective is in flight during backward, and the
acceptance criterion that tracing never perturbs numerics: with tracing on
and off, training trajectories are bitwise identical for MEM/HYBRID/COMM-OPT
on the threaded backend, at two bucket caps.
"""

import json

import numpy as np
import pytest

from repro import nn, optim
from repro.distributed import run_spmd
from repro.experiments import BENCH_SCHEMA_VERSION, write_bench_json
from repro.kfac import KFAC, KFACConfig
from repro.models import MLP
from repro.observability import (
    MetricsReport,
    Tracer,
    default_tracing,
    measured_comm_schedule,
    merge_intervals,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.tensor import Tensor
from repro.training import Trainer

from counters import event_total


class FakeClock:
    """Deterministic clock: returns pre-programmed instants in sequence."""

    def __init__(self, start=0.0, step=1.0):
        self.t = start
        self.step = step

    def __call__(self):
        value = self.t
        self.t += self.step
        return value


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_depth_and_ordering(self):
        tracer = Tracer(rank=3)
        with tracer.span("outer", category="a"):
            with tracer.span("inner", category="b", layer="fc1"):
                pass
            with tracer.span("inner2"):
                pass
        # Spans are recorded at exit: innermost-first.
        names = [s.name for s in tracer.spans]
        assert names == ["inner", "inner2", "outer"]
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner2"].depth == 1
        assert by_name["inner"].attrs == {"layer": "fc1"}
        # Nesting is temporal containment; all spans carry the tracer's rank.
        assert by_name["outer"].start <= by_name["inner"].start
        assert by_name["inner"].end <= by_name["outer"].end
        assert all(s.rank == 3 for s in tracer.spans)
        assert tracer.open_spans == 0

    def test_out_of_order_exit_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_async_record_span_and_validation(self):
        tracer = Tracer(rank=1)
        t0 = tracer.now()
        tracer.record_span("comm/allreduce", start=t0, end=t0 + 0.5, category="comm",
                           lane="comm", nbytes=1024)
        span = tracer.spans[0]
        assert span.lane == "comm" and span.depth is None
        assert span.duration == pytest.approx(0.5)
        assert span.attrs["nbytes"] == 1024
        with pytest.raises(ValueError, match="ends before it starts"):
            tracer.record_span("bad", start=2.0, end=1.0)

    def test_counters_gauges_instants(self):
        tracer = Tracer()
        tracer.counter_add("bugs")
        tracer.counter_add("bugs", 2)
        tracer.gauge_set("damping", 0.003)
        tracer.gauge_set("damping", 0.004)
        tracer.instant("refresh", category="scheduling", step=7)
        assert tracer.counters() == {"bugs": 3.0}
        assert tracer.gauges() == {"damping": 0.004}
        assert tracer.instants[0].name == "refresh"
        assert tracer.instants[0].attrs == {"step": 7}

    def test_reset_requires_closed_spans(self):
        tracer = Tracer()
        with tracer.span("s"):
            with pytest.raises(RuntimeError, match="open spans"):
                tracer.reset()
        tracer.counter_add("c")
        tracer.reset()
        assert not tracer.spans and not tracer.counters()

    def test_disabled_tracer_counts_but_records_no_events(self):
        tracer = Tracer()
        tracer.enabled = False
        ctx1 = tracer.span("a", category="x", attr=1)
        ctx2 = tracer.span("b")
        assert ctx1 is ctx2  # one shared null context manager
        with ctx1:
            pass
        tracer.record_span("c", 0.0, 1.0)
        tracer.instant("d")
        tracer.counter_add("e")
        tracer.gauge_set("f", 1.0)
        assert not tracer.spans and not tracer.instants and tracer.open_spans == 0
        # The registry half is always on.
        assert tracer.counters() == {"e": 1.0} and tracer.gauges() == {"f": 1.0}
        tracer.enabled = True
        with tracer.span("g"):
            pass
        assert [span.name for span in tracer.spans] == ["g"]

    def test_default_tracing_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not default_tracing()
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert default_tracing()
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not default_tracing()


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


def make_traced_pair():
    """Two deterministic per-rank tracers with sync, async and instant events."""
    tracers = []
    for rank in range(2):
        clock = FakeClock(start=10.0 * rank, step=0.25)
        tracer = Tracer(rank=rank, clock=clock)
        with tracer.span("step", category="step"):
            with tracer.span("backward", category="backward"):
                pass
        tracer.record_span("comm/allreduce", start=10.0 * rank, end=10.0 * rank + 0.4,
                           category="comm", lane="comm", nbytes=64)
        tracer.record_span("comm/allreduce", start=10.0 * rank + 0.1, end=10.0 * rank + 0.6,
                           category="comm", lane="comm", nbytes=32)
        tracer.instant("posted", category="pipeline", n=rank)
        tracer.counter_add("buckets", 2)
        tracer.gauge_set("damping", 0.003)
        tracers.append(tracer)
    return tracers


class TestChromeExport:
    def test_round_trip_valid_monotonic_one_pid_per_rank(self, tmp_path):
        tracers = make_traced_pair()
        path = write_chrome_trace(tmp_path / "trace.json", tracers)
        data = validate_chrome_trace(path.read_text())  # parse + validate
        events = data["traceEvents"]
        assert {e["pid"] for e in events} == {0, 1}
        # ts non-negative and globally monotonic (validator enforces; spot-check).
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts) and ts[0] >= 0
        # Process metadata names each rank's track group.
        names = {e["args"]["name"] for e in events if e["name"] == "process_name"}
        assert names == {"rank 0", "rank 1"}
        # Counters and gauges are emitted as counter samples.
        counter_names = {e["name"] for e in events if e["ph"] == "C"}
        assert counter_names == {"buckets", "damping"}

    def test_overlapping_async_spans_get_distinct_lanes(self):
        tracers = make_traced_pair()
        events = to_chrome_trace(tracers)["traceEvents"]
        for rank in range(2):
            comm = [e for e in events if e["pid"] == rank and e.get("cat") == "comm" and e["ph"] == "X"]
            assert len(comm) == 2
            # The two comm spans overlap in time, so they must not share a track.
            assert comm[0]["tid"] != comm[1]["tid"]
            assert all(e["tid"] >= 1 for e in comm)
            # Main-stack spans stay on tid 0.
            sync = [e for e in events if e["pid"] == rank and e["ph"] == "X" and e.get("cat") in ("step", "backward")]
            assert sync and all(e["tid"] == 0 for e in sync)

    def test_validator_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"foo": []})
        with pytest.raises(ValueError, match="missing required key"):
            validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0}]})
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "Z", "pid": 0, "tid": 0, "ts": 0}]}
            )
        with pytest.raises(ValueError, match="precedes"):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "a", "ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 5},
                    {"name": "b", "ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 4},
                ]}
            )


# ---------------------------------------------------------------------------
# Metrics aggregation
# ---------------------------------------------------------------------------


class TestMetricsReport:
    def test_aggregates_across_ranks(self):
        tracers = make_traced_pair()
        report = MetricsReport.from_tracers(tracers)
        assert report.ranks == [0, 1]
        assert report.count("step") == 2
        assert report.count("comm/allreduce") == 4
        assert report.counters == {"buckets": 4.0}
        assert report.gauges == {"damping": 0.003}
        stats = report.spans["comm/allreduce"]
        assert stats.total == pytest.approx(0.4 * 2 + 0.5 * 2)
        assert stats.p50 <= stats.p95 <= stats.max

    def test_to_dict_is_json_ready(self):
        report = MetricsReport.from_tracers(make_traced_pair())
        dumped = json.loads(json.dumps(report.to_dict()))
        assert dumped["ranks"] == [0, 1]
        assert "comm/allreduce" in dumped["spans"]
        assert dumped["spans"]["step"]["count"] == 2


# ---------------------------------------------------------------------------
# Interval math + measured comm time
# ---------------------------------------------------------------------------


class TestOverlapMath:
    def test_merge_intervals(self):
        assert merge_intervals([(3, 4), (1, 2), (1.5, 3.5)]) == [(1.0, 4.0)]
        assert merge_intervals([(0, 1), (2, 3)]) == [(0.0, 1.0), (2.0, 3.0)]
        assert merge_intervals([(1, 1), (2, 1)]) == []  # empty/inverted dropped

    def test_measured_schedule_exact_on_synthetic_trace(self):
        tracer = Tracer(rank=0, clock=FakeClock())
        # A backward span, which is not comm, and two comm spans [2, 6) and [8, 14):
        # union occupancy 4 + 6 = 10.
        tracer.record_span("backward", start=0.0, end=10.0, category="backward")
        tracer.record_span("comm/allreduce", start=2.0, end=6.0, category="comm",
                           lane="comm", nbytes=100)
        tracer.record_span("comm/broadcast", start=8.0, end=14.0, category="comm",
                           lane="comm", nbytes=50)
        sched = measured_comm_schedule(tracer)
        assert sched.world_size == 1 and sched.busiest_rank == 0
        assert sched.messages == 2 and sched.comm_bytes == 150
        assert sched.comm_time == pytest.approx(10.0)
        json.dumps(sched.to_dict())  # JSON-ready


# ---------------------------------------------------------------------------
# BENCH json envelope
# ---------------------------------------------------------------------------


def test_write_bench_json_envelope(tmp_path):
    path = write_bench_json(tmp_path / "BENCH_x.json", "x", {"value": 1}, metrics={"spans": {}})
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    assert doc["name"] == "x"
    assert doc["data"] == {"value": 1}
    assert doc["metrics"] == {"spans": {}}
    run = doc["run"]
    assert set(run) >= {"timestamp", "python", "numpy", "platform", "env"}
    assert set(run["env"]) == {
        "REPRO_TRACE",
        "REPRO_SANITIZE",
    }


# ---------------------------------------------------------------------------
# Live traced training on the threaded backend
# ---------------------------------------------------------------------------


def make_problem(seed=0, samples=64, in_dim=6, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, in_dim)).astype(np.float32)
    w = rng.standard_normal((in_dim, classes)).astype(np.float32)
    y = (x @ w).argmax(axis=1)
    return x, y


WORLD = 4
STEPS = 3


def train_spmd(frac, mode, traced, seed=11):
    """Train the tiny MLP on WORLD threaded ranks; return (params, tracers) per rank."""
    x, y = make_problem(seed=seed)
    loss_fn = nn.CrossEntropyLoss()

    def program(comm):
        model = MLP(6, [12, 8], 3, rng=np.random.default_rng(0))
        config = KFACConfig(
            grad_worker_frac=frac,
            factor_update_freq=1,
            inv_update_freq=1,
            # "sync": a cap below any tensor, one message per tensor;
            # otherwise a cap that fuses a few tensors per bucket.
            bucket_cap_mb=1e-6 if mode == "sync" else 0.001,
        )
        pre = KFAC.from_config(model, config, comm=comm)
        optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
        # Set either way, so the parity contract holds even when the suite
        # itself runs under REPRO_TRACE=1.
        comm.tracer.enabled = traced
        trainer = Trainer(
            model,
            optimizer,
            lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
            preconditioner=pre,
            comm=comm,
        )
        n = x.shape[0] // comm.world_size
        sl = slice(comm.rank * n, (comm.rank + 1) * n)
        for _ in range(STEPS):
            trainer.train_step((x[sl], y[sl]))
        return np.concatenate([p.data.ravel() for p in model.parameters()]), trainer.tracer

    return run_spmd(WORLD, program)


class TestTracedTrainingParity:
    """Acceptance: tracing on vs off is bitwise identical, every path."""

    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0], ids=["mem-opt", "hybrid-opt", "comm-opt"])
    @pytest.mark.parametrize("mode", ["sync", "overlap"])
    def test_tracing_does_not_change_numerics(self, frac, mode):
        plain = train_spmd(frac, mode, traced=False)
        traced = train_spmd(frac, mode, traced=True)
        for rank in range(WORLD):
            np.testing.assert_array_equal(
                plain[rank][0], traced[rank][0], err_msg=f"rank {rank} {mode} frac={frac}"
            )
        # The untraced runs recorded no span, the traced runs did; both counted alike.
        assert all(not t.enabled and not t.spans for _, t in plain)
        assert all(t.enabled and t.spans for _, t in traced)
        for (_, off), (_, on) in zip(plain, traced):
            assert off.counters() == on.counters()


class TestTracedTrainingArtifacts:
    def test_comm_spans_per_rank_and_measured_sanity(self):
        results = train_spmd(0.5, "overlap", traced=True)
        tracers = [t for _, t in results]
        assert all(t.open_spans == 0 for t in tracers)
        # Every rank recorded comm spans (factor allreduce + DDP buckets fly
        # through the nonblocking engine) and backward spans.
        for t in tracers:
            assert any(s.category == "comm" for s in t.spans), f"rank {t.rank}: no comm spans"
            assert any(s.category == "backward" for s in t.spans)
        sched = measured_comm_schedule(tracers)
        assert sched.world_size == WORLD
        assert sched.messages > 0
        # Export round-trips through the validator with one pid per rank.
        doc = validate_chrome_trace(json.dumps(to_chrome_trace(tracers)))
        assert {e["pid"] for e in doc["traceEvents"]} == set(range(WORLD))

    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0], ids=["mem-opt", "hybrid-opt", "comm-opt"])
    @pytest.mark.parametrize("mode", ["sync", "overlap"])
    def test_no_collective_is_in_flight_during_backward(self, frac, mode):
        """Every collective is posted after backward (Listing 1): on every rank, no ``comm`` span
        intersects a ``backward`` span, at a per-tensor cap and at a fusing one."""
        for _, tracer in train_spmd(frac, mode, traced=True):
            backward = merge_intervals([(s.start, s.end) for s in tracer.spans if s.category == "backward"])
            comm = [s for s in tracer.spans if s.category == "comm"]
            assert backward and comm, f"rank {tracer.rank}"
            during = [(s.name, s.start, s.end) for s in comm for lo, hi in backward if s.start < hi and lo < s.end]
            assert not during, f"rank {tracer.rank} {mode} frac={frac}: collectives in flight during backward {during}"

    def test_trainer_env_toggle_builds_tracer(self, monkeypatch):
        x, y = make_problem()
        loss_fn = nn.CrossEntropyLoss()
        model = MLP(6, [12, 8], 3, rng=np.random.default_rng(0))
        optimizer = optim.SGD(model.parameters(), lr=0.05)
        forward = lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1])
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not Trainer(model, optimizer, forward).tracer.enabled
        monkeypatch.setenv("REPRO_TRACE", "1")
        trainer = Trainer(model, optimizer, forward)
        assert trainer.tracer.enabled
        trainer.train_step((x[:16], y[:16]))
        names = {s.name for s in trainer.tracer.spans}
        assert {"trainer/step", "trainer/forward", "trainer/backward", "trainer/optimizer_step"} <= names

    def test_one_tracer_per_rank_across_the_stack(self):
        """Trainer, gradient sync, collective engine and preconditioner all record into ``comm.tracer``."""
        model = MLP(6, [12, 8], 3, rng=np.random.default_rng(0))
        loss_fn = nn.CrossEntropyLoss()
        pre = KFAC(model)
        trainer = Trainer(model, optim.SGD(model.parameters(), lr=0.05), lambda m, b: loss_fn(m(Tensor(b[0])), b[1]),
                          preconditioner=pre)
        assert trainer.tracer is trainer.ddp.scheduler.tracer is pre.tracer is pre.scheduler.tracer is pre.comm.tracer
        assert trainer.ddp.comm is pre.comm
        # A trainer over a communicator of its own shares that one with the gradient sync it builds.
        def program(comm):
            model = MLP(6, [12, 8], 3, rng=np.random.default_rng(0))
            pre = KFAC(model, comm=comm)
            trainer = Trainer(model, optim.SGD(model.parameters(), lr=0.05), lambda m, b: None,
                              preconditioner=pre, comm=comm)
            return trainer.tracer is trainer.ddp.scheduler.tracer is pre.tracer is comm.tracer

        assert all(run_spmd(2, program))

    def test_refresh_counts_equal_with_tracing_off_and_on(self):
        """Refresh and damping decisions land in the registry whether or not the trace is on,
        with bitwise identical trajectories, and match what the plan performed."""
        x, y = make_problem()
        loss_fn = nn.CrossEntropyLoss()
        config = KFACConfig(
            factor_update_freq=2,
            inv_update_freq=4,
            adaptive_damping=True,
        )

        def run(traced):
            model = MLP(6, [12, 8], 3, rng=np.random.default_rng(0))
            pre = KFAC.from_config(model, config)
            pre.tracer.enabled = traced
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            trainer = Trainer(
                model, optimizer,
                lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
                preconditioner=pre,
            )
            for _ in range(8):
                trainer.train_step((x[:32], y[:32]))
            return pre, np.concatenate([p.data.ravel() for p in model.parameters()])

        (off, params_off), (on, params_on) = run(False), run(True)
        np.testing.assert_array_equal(params_off, params_on)
        assert off.tracer.counters() == on.tracer.counters()
        def untimed(gauges):  # the eigen solve / caller / hidden milliseconds are measurements
            return {key: value for key, value in gauges.items() if not key.endswith("_ms")}

        assert untimed(off.tracer.gauges()) == untimed(on.tracer.gauges())
        assert not off.tracer.instants and not off.tracer.spans
        counters = on.tracer.counters()
        # Every layer folds on step 0 and decomposes on it; the plan position agrees with the counts.
        layers = list(on.layers)
        assert all(counters[f"kfac/factor_updates/{name}"] >= 1 for name in layers)
        assert all(counters[f"kfac/eigen_updates/{name}"] >= 1 for name in layers)
        performed = [on.plan.actions(step) for step in range(8)]
        assert event_total(on, "factor_updates") == sum(len(actions.fold) for actions in performed)
        assert event_total(on, "eigen_updates") == sum(len(actions.refresh) for actions in performed)
        assert counters.get("kfac/damping_shrinks", 0) + counters.get("kfac/damping_grows", 0) > 0
        assert on.tracer.gauges()["kfac/damping"] == pytest.approx(on.damping)
        # Scheduling decisions also land as instant events with attributes, when tracing.
        decisions = [i for i in on.tracer.instants if i.name == "kfac/refresh_decision"]
        assert len(decisions) == 8
        assert all("factor_layers" in i.attrs for i in decisions)
        assert sum(i.attrs["second_order_layers"] for i in decisions) == event_total(on, "eigen_updates")
        assert sum(i.attrs["factor_layers"] for i in decisions) == event_total(on, "factor_updates")


class TestSmokeRefreshGate:
    """The trace smoke's gates are exact: every rank runs the plan the models build from the run's config,
    rank 0's decompositions are the plan's actions, step by step, and each refresh step's eigen solve time
    splits into the step thread's part, the worker's hidden part and what the step waited for."""

    @staticmethod
    def run_info(plan, steps):
        return {
            "world_size": plan.world_size,
            "steps": steps,
            "decomposed_per_step": [plan.actions(step).refresh for step in range(steps)],
            "eigen_gauges": [[(4.0, 3.0, 1.0), (2.0, 0.0, 2.0)], [(1.5, 1.5, 0.0)]],
        }

    def test_the_plans_actions_pass_and_any_other_count_is_named(self):
        from repro.kfac import KFACWorkloadSpec
        from repro.kfac.strategy import LayerShapeInfo
        from repro.observability.smoke import staggered_refresh_problems

        layers = [LayerShapeInfo.dense(f"l{index}", dim, dim) for index, dim in enumerate((9, 7, 5, 3))]
        config = KFACConfig(factor_update_freq=5, inv_update_freq=10, grad_worker_frac=0.5)
        spec = KFACWorkloadSpec("toy", layers, 0, 1, 1.0, config)
        plan = spec.plan(2, 0.5)
        assert set(plan.refresh_offsets.values()) != {0}  # a staggered interval
        run_info = self.run_info(plan, 12)
        assert staggered_refresh_problems(spec, run_info) == []
        # One step that decomposes one layer fewer than planned (a lighter step is a miss too) ...
        stepped = next(step for step in range(1, 12) if len(plan.actions(step).refresh) > 1)
        run_info["decomposed_per_step"][stepped] = run_info["decomposed_per_step"][stepped][1:]
        # ... and one that decomposes as many layers, but not the planned ones.
        swapped = next(step for step in range(stepped + 1, 12) if plan.actions(step).refresh)
        planned = plan.actions(swapped).refresh
        run_info["decomposed_per_step"][swapped] = tuple(name for name in plan.groups if name not in planned)[: len(planned)]
        problems = staggered_refresh_problems(spec, run_info)
        assert len(problems) == 2
        assert problems[0].startswith(f"step {stepped} decomposed") and problems[1].startswith(f"step {swapped} decomposed")

    def test_a_rank_whose_plan_is_not_the_models_is_named(self):
        from repro.kfac import KFACWorkloadSpec
        from repro.kfac.strategy import LayerShapeInfo
        from repro.observability.smoke import plan_digest_problems

        layers = [LayerShapeInfo.dense(f"l{index}", dim, dim) for index, dim in enumerate((9, 7, 5))]
        config = KFACConfig(factor_update_freq=5, inv_update_freq=10, grad_worker_frac=0.5)
        spec = KFACWorkloadSpec("toy", layers, 0, 1, 1.0, config)
        run_info = {"world_size": 2, "plan_digests": [spec.plan(2, 0.5).digest()] * 2}
        assert plan_digest_problems(spec, run_info) == []
        # A rank bucketing under another cap posts other messages: its plan is not the models'.
        recapped = KFACWorkloadSpec("toy", layers, 0, 1, 1.0, config.replace(bucket_cap_mb=0.001))
        run_info["plan_digests"][1] = recapped.plan(2, 0.5).digest()
        assert [problem.split(" follows")[0] for problem in plan_digest_problems(spec, run_info)] == ["rank 1"]

    def test_a_rank_whose_memory_is_not_the_models_is_named(self):
        from repro.kfac import KFACWorkloadSpec
        from repro.kfac.strategy import LayerShapeInfo
        from repro.observability.smoke import memory_problems

        layers = [LayerShapeInfo.dense(f"l{index}", dim, dim) for index, dim in enumerate((9, 7, 5))]
        spec = KFACWorkloadSpec("toy", layers, 0, 1, 1.0, KFACConfig(grad_worker_frac=0.5))
        plan = spec.plan(2, 0.5)
        totals = plan.factor_bytes_per_rank() + plan.state_bytes_per_rank()
        assert plan.state_bytes_per_rank().all()  # the inverses are part of what each rank must hold
        run_info = {"world_size": 2, "memory_usage": [{"total": int(total)} for total in totals]}
        assert memory_problems(spec, run_info) == []
        # A rank that dropped (or never installed) a layer's inverses holds only its factors.
        run_info["memory_usage"][1]["total"] = int(plan.factor_bytes_per_rank()[1])
        assert [problem.split(" holds")[0] for problem in memory_problems(spec, run_info)] == ["rank 1"]

    def test_a_missing_negative_or_oversized_hidden_time_is_named(self):
        from repro.observability.smoke import eigen_overlap_problems

        run_info = self.run_info(KFACConfig().distribution_plan([], 1), 0)
        assert eigen_overlap_problems(run_info) == []
        run_info["eigen_gauges"] = [
            [(4.0, -0.5, 0.0), (2.0, 2.5, 0.0), (4.0, 3.0, 1.5), (4.0, 0.0, 4.5), (4.0, 0.0, -1.0), (4.0, 3.0, 1.0)],
            [(None, None, None), (1.0, 0.0, None)],
        ]
        assert [problem.split(":")[0] for problem in eigen_overlap_problems(run_info)] == [
            "rank 0 step 0 of those that refreshed",  # hidden below 0
            "rank 0 step 1 of those that refreshed",  # hidden above solve
            "rank 0 step 2 of those that refreshed",  # hidden above solve - caller
            "rank 0 step 3 of those that refreshed",  # caller above solve
            "rank 0 step 4 of those that refreshed",  # caller below 0
            "rank 1 step 0 of those that refreshed",
            "rank 1 step 1 of those that refreshed",  # a gauge missing
        ]
