"""Exporters: JSONL event log, Chrome-trace JSON, text summary tree.

All three read the same finished-span list off a
:class:`~repro.obs.span.Tracer`; none of them mutate it, so a session
can be exported to every format.

* :func:`to_jsonl` — one JSON object per span (machine-diffable log),
  closed by a final ``counters`` record.
* :func:`to_chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev: complete (``"X"``)
  events with microsecond timestamps.  Wall-clock spans go on thread 0;
  spans in the ``"simulated"`` category (cost-model seconds, not wall
  time) go on thread 1 so the two timebases never share a track.
* :func:`summary_tree` — an indented roll-up for terminals: sibling
  spans with the same name aggregate into one line with a count, total
  wall milliseconds, and summed counter deltas; simulated spans are
  totalled in seconds in a section of their own.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.span import Span, Tracer

__all__ = ["to_jsonl", "to_chrome_trace", "chrome_trace_json", "summary_tree"]

#: Chrome-trace thread ids: wall-clock spans vs simulated-seconds spans.
_WALL_TID = 0
_SIMULATED_TID = 1


def _span_record(span: "Span", epoch: float) -> dict[str, object]:
    record: dict[str, object] = {
        "type": "span",
        "sid": span.sid,
        "parent": span.parent,
        "name": span.name,
        "category": span.category,
        "depth": span.depth,
        "start_s": span.start - epoch,
        "duration_s": span.duration,
    }
    if span.counters:
        record["counters"] = dict(span.counters)
    if span.attrs:
        record["attrs"] = {k: _jsonable(v) for k, v in span.attrs.items()}
    return record


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def to_jsonl(tracer: "Tracer") -> str:
    """Render the session as JSON Lines: spans, then a counters record."""
    lines = [
        json.dumps(_span_record(span, tracer.epoch), sort_keys=True)
        for span in tracer.spans
    ]
    lines.append(json.dumps(
        {"type": "counters", "values": tracer.counters.snapshot()},
        sort_keys=True,
    ))
    return "\n".join(lines) + "\n"


def to_chrome_trace(tracer: "Tracer") -> dict[str, object]:
    """Build a Trace-Event-Format payload (Chrome/Perfetto compatible).

    Returns the payload as a plain dict; use :func:`chrome_trace_json`
    to serialize it.  Every span becomes one complete (``"X"``) event
    whose ``args`` carry its counter deltas and attributes.
    """
    events: list[dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": _WALL_TID,
         "args": {"name": "repro"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": _WALL_TID,
         "args": {"name": "wall-clock"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": _SIMULATED_TID,
         "args": {"name": "simulated-seconds"}},
    ]
    for span in tracer.spans:
        simulated = span.category == "simulated"
        args: dict[str, object] = {
            k: _jsonable(v) for k, v in span.attrs.items()
        }
        args.update(span.counters)
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "pid": 1,
            "tid": _SIMULATED_TID if simulated else _WALL_TID,
            "ts": (span.start - tracer.epoch) * 1e6,
            "dur": span.duration * 1e6,
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "spans": len(tracer.spans)},
    }


def chrome_trace_json(tracer: "Tracer") -> str:
    """Serialize :func:`to_chrome_trace` for writing to a ``.json`` file."""
    return json.dumps(to_chrome_trace(tracer))


def summary_tree(tracer: "Tracer", *, max_depth: int | None = None) -> str:
    """Indented text roll-up of the span tree.

    Sibling wall-clock spans sharing a name collapse into one line:
    ``name  count×  total-ms  counter=value ...``.  Useful as a quick
    where-did-the-time-go answer without leaving the terminal.  Spans in
    the ``"simulated"`` category hold cost-model seconds, not wall time,
    so they stay out of the tree and are totalled by name, in seconds,
    under a ``-- simulated seconds --`` section.
    """
    children: dict[int | None, list["Span"]] = {}
    simulated: dict[str, list["Span"]] = {}
    for span in tracer.spans:
        if span.category == "simulated":
            simulated.setdefault(span.name, []).append(span)
        else:
            children.setdefault(span.parent, []).append(span)

    lines: list[str] = []

    def _walk(parent: int | None, depth: int) -> None:
        if max_depth is not None and depth >= max_depth:
            return
        groups: dict[str, list["Span"]] = {}
        for span in children.get(parent, []):
            groups.setdefault(span.name, []).append(span)
        for name, group in groups.items():
            total_ms = sum(s.duration for s in group) * 1e3
            agg: dict[str, float] = {}
            for s in group:
                for key, value in s.counters.items():
                    agg[key] = agg.get(key, 0.0) + value
            extras = "".join(
                f"  {k}={v:g}" for k, v in sorted(agg.items())
            )
            lines.append(
                f"{'  ' * depth}{name}  {len(group)}x  "
                f"{total_ms:.3f}ms{extras}"
            )
            for s in group:
                _walk(s.sid, depth + 1)

    _walk(None, 0)
    if simulated:
        lines.append("-- simulated seconds --")
        for name, group in simulated.items():
            total_s = sum(s.duration for s in group)
            lines.append(f"{name}  {len(group)}x  {total_s:.3f}s")
    totals = tracer.counters.snapshot()
    if totals:
        lines.append("-- session counters --")
        for key in sorted(totals):
            lines.append(f"{key} = {totals[key]:g}")
    return "\n".join(lines) + "\n"
