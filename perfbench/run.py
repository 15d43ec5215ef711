"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric instead, taken from a
separate traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.  Every output
is checked outside the timed regions; any mismatch makes ``correct``
false and the exit code 1.  See ``perfbench/README.md`` for the
workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "grid-cold": "wl_grid",
    "service-zipf": "wl_service",
    "stream-update": "wl_stream",
}


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {src}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = _load_spec()
    _use_checkout_source()
    import common

    module = __import__(WORKLOADS[args.workload])
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    finally:
        common.remove_work_dir()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = outcome["metrics"]
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        raise SystemExit(f"perfbench: undeclared metrics {sorted(unknown)}")
    if not args.trace:
        missing = {m["name"] for m in wanted} - set(measured)
        if missing:
            raise SystemExit(f"perfbench: unmeasured metrics {sorted(missing)}")
    # A per-layer metric of a layer the workload does not exercise reads 0.
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    failures = outcome["failures"]
    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    attempted = int(outcome["attempted"])
    env = common.environment(
        args.workload, args.seed, "traced" if args.trace else module.MODE
    )
    env.update(outcome["notes"])
    env["failed_frac"] = len(failures) / attempted
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
