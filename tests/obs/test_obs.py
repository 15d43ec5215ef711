"""Unit tests for the observability layer: spans, counters, exporters."""

import json

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs import CounterRegistry, NullTracer, Tracer


class FakeClock:
    """Deterministic clock advancing a fixed tick per call."""

    def __init__(self, tick: float = 1.0) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        value = self.now
        self.now += self.tick
        return value


class TestCounterRegistry:
    def test_vocabulary_preloaded(self):
        reg = CounterRegistry()
        assert obs.COMPUTE_OPS in reg
        assert "TraceRecorder" in reg.describe(obs.COMPUTE_OPS)

    def test_add_and_get(self):
        reg = CounterRegistry()
        reg.add(obs.MSG_COUNT, 2)
        reg.add(obs.MSG_COUNT, 3)
        assert reg.get(obs.MSG_COUNT) == 5.0

    def test_unknown_counter_rejected(self):
        reg = CounterRegistry()
        with pytest.raises(ObservabilityError, match="unknown counter"):
            reg.add("msg_cuont", 1)

    def test_register_extends_vocabulary(self):
        reg = CounterRegistry()
        reg.register("frontier_peak", "Largest frontier seen.")
        reg.add("frontier_peak", 7)
        assert reg.get("frontier_peak") == 7.0

    def test_register_conflicting_doc_rejected(self):
        reg = CounterRegistry()
        with pytest.raises(ObservabilityError, match="different"):
            reg.register(obs.MSG_COUNT, "something else entirely")

    def test_register_same_doc_idempotent(self):
        reg = CounterRegistry()
        reg.register("x", "doc")
        reg.register("x", "doc")

    def test_describe_unknown_raises(self):
        with pytest.raises(ObservabilityError):
            CounterRegistry().describe("nope")

    def test_snapshot_and_reset(self):
        reg = CounterRegistry()
        reg.add(obs.SUPERSTEPS)
        snap = reg.snapshot()
        assert snap == {obs.SUPERSTEPS: 1.0}
        snap[obs.SUPERSTEPS] = 99  # copies, not views
        assert reg.get(obs.SUPERSTEPS) == 1.0
        reg.reset()
        assert reg.snapshot() == {}


class TestSpans:
    def test_nesting_and_parents(self):
        t = Tracer(clock=FakeClock())
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                pass
        assert inner.parent == outer.sid
        assert inner.depth == 1
        assert outer.parent is None
        # completion order: inner closes first
        assert [s.name for s in t.spans] == ["inner", "outer"]

    def test_durations_from_clock(self):
        t = Tracer(clock=FakeClock(tick=1.0))
        with t.span("a"):
            pass
        (span,) = t.find("a")
        assert span.duration == pytest.approx(1.0)

    def test_counter_rollup_to_parent_and_global(self):
        t = Tracer(clock=FakeClock())
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                t.add(obs.COMPUTE_OPS, 10)
            t.add(obs.COMPUTE_OPS, 1)
        assert inner.counters[obs.COMPUTE_OPS] == 10.0
        assert outer.counters[obs.COMPUTE_OPS] == 11.0
        # global registry counted each add exactly once
        assert t.counters.get(obs.COMPUTE_OPS) == 11.0

    def test_attrs_and_set(self):
        t = Tracer(clock=FakeClock())
        with t.span("s", algo="pr") as span:
            span.set(path="bulk")
        assert span.attrs == {"algo": "pr", "path": "bulk"}

    def test_out_of_order_close_raises(self):
        t = Tracer(clock=FakeClock())
        a = t.span("a")
        b = t.span("b")
        a.__enter__()
        b.__enter__()
        with pytest.raises(ObservabilityError, match="out of order"):
            a.__exit__(None, None, None)

    def test_reentering_span_raises(self):
        t = Tracer(clock=FakeClock())
        span = t.span("once")
        with span:
            pass
        with pytest.raises(ObservabilityError, match="twice"):
            span.__enter__()

    def test_record_span_simulated(self):
        t = Tracer(clock=FakeClock())
        with t.span("case") as case:
            t.record_span("upload", 3.5)
        (sim,) = t.find("upload")
        assert sim.duration == pytest.approx(3.5)
        assert sim.category == "simulated"
        assert sim.parent == case.sid

    def test_record_span_negative_raises(self):
        t = Tracer(clock=FakeClock())
        with pytest.raises(ObservabilityError, match=">= 0"):
            t.record_span("bad", -1.0)


class TestGlobalTracer:
    def test_default_is_null(self):
        tracer = obs.get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled

    def test_null_tracer_is_inert(self):
        null = obs.NULL_TRACER
        with null.span("anything", category="x", foo=1) as s:
            s.set(bar=2)
        null.add(obs.COMPUTE_OPS, 1e9)
        null.record_span("sim", 5.0)
        # span() always hands back the same shared no-op object
        assert null.span("a") is null.span("b")

    def test_tracing_context_installs_and_restores(self):
        before = obs.get_tracer()
        with obs.tracing() as t:
            assert obs.get_tracer() is t
            assert t.enabled
        assert obs.get_tracer() is before

    def test_tracing_restores_on_exception(self):
        before = obs.get_tracer()
        with pytest.raises(RuntimeError):
            with obs.tracing():
                raise RuntimeError("boom")
        assert obs.get_tracer() is before

    def test_set_tracer_returns_previous(self):
        t = Tracer()
        prev = obs.set_tracer(t)
        try:
            assert obs.get_tracer() is t
        finally:
            obs.set_tracer(prev)


def _session() -> Tracer:
    t = Tracer(clock=FakeClock(tick=0.5))
    with t.span("case", category="case", dataset="S8-Std"):
        with t.span("superstep", category="superstep", index=0):
            t.add(obs.COMPUTE_OPS, 4)
            t.add(obs.MSG_COUNT, 2)
        t.record_span("run", 7.25)
    return t


class TestExporters:
    def test_jsonl_lines_parse(self):
        t = _session()
        lines = obs.to_jsonl(t).strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == len(t.spans) + 1
        assert records[-1]["type"] == "counters"
        assert records[-1]["values"][obs.COMPUTE_OPS] == 4.0
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert span_names == {"case", "superstep", "run"}

    def test_jsonl_parent_links(self):
        t = _session()
        records = [json.loads(l) for l in obs.to_jsonl(t).strip().splitlines()]
        by_name = {r["name"]: r for r in records if r["type"] == "span"}
        assert by_name["superstep"]["parent"] == by_name["case"]["sid"]
        assert by_name["run"]["parent"] == by_name["case"]["sid"]

    def test_chrome_trace_round_trip(self):
        t = _session()
        payload = json.loads(obs.chrome_trace_json(t))
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(t.spans)
        for event in complete:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur",
                                  "pid", "tid", "args"}
            assert event["dur"] >= 0

    def test_chrome_trace_simulated_track(self):
        t = _session()
        events = obs.to_chrome_trace(t)["traceEvents"]
        sim = [e for e in events if e["ph"] == "X" and e["cat"] == "simulated"]
        wall = [e for e in events if e["ph"] == "X" and e["cat"] != "simulated"]
        assert {e["tid"] for e in sim} == {1}
        assert {e["tid"] for e in wall} == {0}
        assert sim[0]["dur"] == pytest.approx(7.25e6)  # microseconds

    def test_chrome_trace_thread_metadata(self):
        events = obs.to_chrome_trace(_session())["traceEvents"]
        meta = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"repro", "wall-clock", "simulated-seconds"} <= meta

    def test_chrome_trace_args_carry_counters(self):
        events = obs.to_chrome_trace(_session())["traceEvents"]
        (step,) = [e for e in events if e["name"] == "superstep"]
        assert step["args"][obs.COMPUTE_OPS] == 4.0
        assert step["args"]["index"] == 0

    def test_summary_tree_shape(self):
        text = obs.summary_tree(_session())
        assert "case  1x" in text
        assert "  superstep  1x" in text
        assert f"{obs.COMPUTE_OPS}=4" in text
        assert "-- session counters --" in text

    def test_summary_tree_keeps_simulated_seconds_off_the_wall_tree(self):
        t = Tracer(clock=FakeClock(tick=0.5))
        with t.span("case", category="case"):
            t.record_span("upload", 11268.107, category="simulated")
        text = obs.summary_tree(t)
        wall, _, simulated = text.partition("-- simulated seconds --\n")
        assert "upload" not in wall
        (line,) = [
            ln for ln in simulated.splitlines() if ln.startswith("upload")
        ]
        assert "ms" not in line
        assert line.endswith("11268.107s")

    def test_summary_tree_max_depth(self):
        text = obs.summary_tree(_session(), max_depth=1)
        assert "case" in text
        assert "superstep" not in text
