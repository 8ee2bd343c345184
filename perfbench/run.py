"""guardcheck benchmark: time to verdict, one fresh process per timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

A run builds the workload's input for the seed, starts one warm-up child
(discarded) and a few set-up-only children, then timed children one at a
time until ``--seconds`` is used up (at least one). Every child is a new
interpreter, so each pays the cold relation caches and carriers that a
``guardcheck`` CLI call pays. Every report goes through the gate
(gate.py); a report that fails it counts in ``failed``.

Before and after each timed child the run times a fixed calibration
loop (calibrate.py), and it reports every time scaled to the loop's
nominal speed: a child's verdict time by the mean of the two loops
around it, other times by the run's median loop. That removes much of
the machine's own speed swings from the figures; the raw medians are
printed too.

With ``--trace 1`` each timed child is followed by a traced child on the
same input; the traced reports must equal the untraced ones, and the
last line carries the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it give each metric's quartiles and sample count,
``states_per_s`` and ``wrong_verdicts``, the interpreter and ``nproc``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD = HERE / "child.py"
CALIBRATE = HERE / "calibrate.py"

SETUP_PROBES = 2  # set-up-only children per run, besides each timed child's set-up
RUN_LIMIT_S = 170  # children's deadline; leaves 10 s of the 180 s a run may take
MAX_SECONDS = 120  # largest --seconds: leaves room for a last child that overruns

END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class RunError(RuntimeError):
    pass


class Run:
    """One run's children, started one at a time under a shared deadline."""

    def __init__(self, plan_path: Path):
        self.plan_path = plan_path
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def _last_line(self, *args: str) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError(f"run exceeded {RUN_LIMIT_S} s")
        try:
            proc = subprocess.run(
                [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"child did not finish within {RUN_LIMIT_S} s of run start") from exc
        if proc.returncode != 0:
            raise RunError(f"child exited {proc.returncode}:\n{proc.stderr.strip()}")
        return proc.stdout.strip().splitlines()[-1]

    def child(self, *flags: str) -> dict:
        spawned = time.monotonic()
        return json.loads(
            self._last_line(str(CHILD), str(self.plan_path), f"--spawned={spawned!r}", *flags)
        )

    def calibrate(self) -> float:
        return float(self._last_line(str(CALIBRATE)))


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _describe(name: str, unit: str, values: list) -> str:
    q1, q3 = _quartiles(values)
    return (
        f"# {name:34s} median {statistics.median(values):.6g} {unit}"
        f"  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """Returns (result object, lines describing it)."""
    from calibrate import NOMINAL_S
    from gate import load_reference, problems
    from workloads import make_inputs

    for sub in ("inputs", "plans", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    plan = make_inputs(name, seed, OUT / "inputs")
    plan_path = OUT / "plans" / f"{name}-s{seed}.json"
    plan_path.write_text(json.dumps(plan))
    reference = load_reference()
    run = Run(plan_path)

    start = time.monotonic()  # --seconds covers the whole run, set-up children included
    run.child("--setup-only")  # warm-up: bytecode and page caches
    setups = [run.child("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    calibrations, timed, traced = [], [], []
    loop_start = time.monotonic()
    while True:
        calibrations.append(run.calibrate())
        timed.append(run.child())
        setups.append(timed[-1]["setup_s"])
        if trace:
            spans = OUT / "spans" / f"{name}-s{seed}-{len(traced)}.spans"
            traced.append(run.child("--trace", f"--spans={spans}"))
        elapsed = time.monotonic() - start
        per_child = (time.monotonic() - loop_start) / len(timed)
        if elapsed + per_child > seconds:
            break
    calibrations.append(run.calibrate())  # after the last timed child

    lines = [
        f"# workload {name}  seed {seed}  trace {int(trace)}  python {platform.python_version()}"
        f"  nproc {len(os.sched_getaffinity(0))}  timed children {len(timed)}"
    ]
    failed = 0
    for i, c in enumerate(timed + traced):
        wrong = problems(plan, c["reports"], reference)
        if i >= len(timed) and c["reports"] != timed[i - len(timed)]["reports"]:
            wrong.append("traced report differs from the untraced report")
        if wrong:
            failed += 1
            lines += [f"# wrong verdict, child {i}: {w}" for w in wrong]
    lines.append(f"# {'wrong_verdicts':34s} {failed} of {len(timed) + len(traced)} runs")

    # timed child k runs between calibrations k and k + 1: its verdict
    # time is scaled by their mean, set-up and layer times by the median
    calibration = statistics.median(calibrations)
    scale = NOMINAL_S / calibration
    lines.append(
        f"# machine speed: calibration median {calibration:.4g} s, n {len(calibrations)};"
        f" times below are scaled to the {NOMINAL_S} s nominal"
    )
    raw = [c["verdict_s"] for c in timed]
    verdicts = [
        v * 2 * NOMINAL_S / (calibrations[k] + calibrations[k + 1])
        for k, v in enumerate(raw)
    ]
    series = {
        "verdict_s": verdicts,
        "setup_s": [v * scale for v in setups],
        "peak_rss_mb": [c["rss_mb"] for c in timed],
    }
    if plan["kind"] == "explore":
        states = json.loads(timed[0]["reports"][0])["states"]
        series["states_per_s"] = [states / v for v in verdicts]
    units = dict(END_TO_END, states_per_s="states/s")
    lines += [_describe(k, units[k], v) for k, v in series.items()]
    if "states_per_s" not in series:
        lines.append(f"# {'states_per_s':34s} n/a: this workload explores no states")
    lines.append(
        f"# unscaled medians: verdict_s {statistics.median(raw):.6g} s,"
        f" setup_s {statistics.median(setups):.6g} s"
    )

    if trace:
        layers = {}
        for key in traced[0]["layers"]:
            value = statistics.median(t["layers"][key] for t in traced)
            layers[key] = value * scale if _layer_unit(key) == "s" else value
        layers["trace.overhead"] = statistics.median(
            t["verdict_s"] for t in traced
        ) / statistics.median(raw)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": statistics.median(series[k]), "unit": u} for k, u in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": len(timed) + len(traced),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be above 0 and at most {MAX_SECONDS}")
    # SystemExit unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "guardcheck" / "__init__.py").is_file():
        print(f"no guardcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    results = []
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            results.append(result)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results) else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
