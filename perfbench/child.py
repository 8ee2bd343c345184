"""One timed run of one workload, in a fresh interpreter.

Usage: python3 perfbench/child.py PLAN.json --spawned T [--trace] [--setup-only] [--spans FILE]

``PLAN.json`` comes from :func:`workloads.make_inputs`; ``T`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` counts interpreter start, imports, JSON reads and input
building. Prints one JSON line: the input-built timestamp, ``verdict_s``,
peak RSS and the report texts (plus per-layer metrics when traced).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_inputs(plan: dict, formats):
    """Read the plan's documents and build what the verdict call takes.

    ``cli.run_check`` takes documents and loads them itself, so for check
    workloads the input is the parsed documents and the loads fall into
    ``verdict_s``.
    """
    if plan["kind"] == "explore":
        with open(plan["scenario"]) as fh:
            return formats.scenario_from_json(json.load(fh))
    docs = []
    for p in plan["protocols"]:
        with open(p["protocol"]) as fh, open(p["relations"]) as gh:
            docs.append((json.load(fh), json.load(gh)))
    return docs


def run_verdict(plan: dict, inputs, cli, formats) -> list[str]:
    """The CLI's own entry points, from built input to report text."""
    if plan["kind"] == "explore":
        return [formats.dumps(cli.run_explore_scenario(inputs, plan["mode"]))]
    return [formats.dumps(cli.run_check(p, r)) for p, r in inputs]


def _traced_metrics(tracer, plan: dict, reports: list) -> dict:
    from guardcheck.explore import PROPERTY_EVALUATORS
    from tracing import layer_metrics

    agg = tracer.self_times()
    layers = layer_metrics(agg, tracer.counts, sorted(PROPERTY_EVALUATORS))
    report = json.loads(reports[0]) if plan["kind"] == "explore" else {}
    transitions = report.get("transitions", 0)
    layers["explore.transitions"] = transitions
    layers["explore.dedup_hits"] = report.get("dedup_hits", 0)
    layers["explore.dedup_ratio"] = report["dedup_hits"] / transitions if transitions else 0.0
    return {
        "layers": layers,
        "verdict_partition": {
            span: own for (root, span), (_, own) in agg.items() if root == "verdict"
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    plan = json.loads(Path(args.plan).read_text())
    from guardcheck import cli, formats

    tracer = None
    if args.trace:
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)

    def window(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    with window("setup"):
        inputs = load_inputs(plan, formats)
    built = time.monotonic()
    out = {"setup_s": built - args.spawned}
    if not args.setup_only:
        with window("verdict"):
            t0 = time.perf_counter()
            reports = run_verdict(plan, inputs, cli, formats)
            out["verdict_s"] = time.perf_counter() - t0
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["reports"] = reports
        if tracer is not None:
            out.update(_traced_metrics(tracer, plan, reports))
            if args.spans:
                tracer.dump(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
