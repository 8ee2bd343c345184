"""Command-line front end.

Subcommands: ``check`` (protocol well-formedness plus relation queries
with expected verdicts), ``explore`` (run a scenario file through the
explorer), ``demo`` (``check`` or ``explore`` on a named built-in input's
packaged files), ``report`` (render a JSON report as text).

Exit codes: 0 success, 1 verdict mismatch or violation, 2 input error,
3 bound exceeded. JSON output is key-sorted and carries no timing, so
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import sys

from .formats import (
    FormatError,
    _count,
    dumps,
    load_protocol,
    load_queries,
    read_report,
    result_to_json,
    scenario_from_json,
    set_den_bound,
)
from .monoid import FAILS, LawReport
from .protocol import (
    ExchangeQuery,
    exchange_holds,
    guard_holds,
    valid_fragment,
    check_wellformed,
)
from .terms import pretty, term_from_json, term_to_json

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


def _law_report_json(report: LawReport) -> dict:
    return {
        "name": report.name,
        "mode": report.mode,
        "carrier_size": report.carrier_size,
        "ok": report.ok,
        "checks": [
            {
                "law": c.law,
                "ok": c.ok,
                "exhaustive": c.exhaustive,
                "checked": c.checked,
                "witness": [term_to_json(t) for t in c.witness] if c.witness else None,
            }
            for c in report.checks
        ],
    }


def _run_query(sp, q: dict) -> dict:
    kind = q["kind"]
    if kind == "valid-fragment":
        return _verdict_json(q, "holds" if valid_fragment(sp, q["p"]) else "fails", None, "")
    if kind == "guard":
        check = guard_holds(sp, q["p"], q["s"])
    else:
        eps = sp.storage.unit
        query = ExchangeQuery(q["p"], q.get("s", eps), q["p_after"], q.get("s_after", eps), kind)
        check = exchange_holds(sp, query)
    return _verdict_json(q, check.verdict, check.witness, check.reason)


def _verdict_json(q: dict, verdict: str, witness, reason: str) -> dict:
    matched = (verdict != FAILS) == (q["expect"] == "holds")
    return {
        "kind": q["kind"],
        "note": q["note"],
        "expect": q["expect"],
        "verdict": verdict,
        "matched": matched,
        "witness": term_to_json(witness) if witness is not None else None,
        "reason": reason,
    }


def run_check(protocol_doc: dict, relations_doc: dict | None) -> dict:
    sp, named = load_protocol(protocol_doc)
    wf = check_wellformed(sp)
    queries = []
    if relations_doc is not None:
        for q in load_queries(relations_doc, named, sp):
            queries.append(_run_query(sp, q))
    return {
        "protocol": sp.name,
        "wellformed": {
            "ok": wf.ok,
            "protocol_laws": _law_report_json(wf.protocol_laws),
            "storage_laws": _law_report_json(wf.storage_laws),
            "extra": [
                {"law": c.law, "ok": c.ok, "checked": c.checked} for c in wf.extra
            ],
        },
        "queries": queries,
        "ok": wf.ok and all(q["matched"] for q in queries),
    }


def _render_check(report: dict) -> str:
    lines = [f"protocol {report['protocol']}: wellformed "
             + ("ok" if report["wellformed"]["ok"] else "FAILED")]
    for q in report["queries"]:
        status = "ok" if q["matched"] else "MISMATCH"
        note = f" ({q['note']})" if q["note"] else ""
        lines.append(
            f"  {q['kind']}: {q['verdict']} (expected {q['expect']}) {status}{note}"
        )
        if q["witness"] is not None:
            lines.append(f"    witness: {pretty(term_from_json(q['witness']))}")
    lines.append("result: " + ("PASS" if report["ok"] else "FAIL"))
    return "\n".join(lines)


def _render_explore(report: dict) -> str:
    lines = [
        f"scenario {report['scenario']} [{report['mode']} mode, expectation {report['expectation']}]",
        f"  states {report['states']}, transitions {report['transitions']}, "
        f"dedup hits {report['dedup_hits']}, schedules {report['schedules_completed']}",
        f"  stuck states: {report['stuck_count']}",
    ]
    for s in report["stuck"]:
        lines.append(f"    {s['reason']} @ {s['schedule']}")
    for v in report["violations"]:
        lines.append(f"  violation [{v['kind']}] {v['name']}: {v['detail']}")
        lines.append(f"    schedule {v['schedule']}")
    lines.append(f"  terminal outcomes: {len(report['terminal_summaries'])}")
    for w in report["warnings"]:
        lines.append(f"  warning: {w}")
    if report["bound_exceeded"]:
        lines.append("  BOUND EXCEEDED (partial exploration)")
    if "oracle_subset" in report:
        lines.append(
            "  oracle subset: " + ("confirmed" if report["oracle_subset"] else "VIOLATED")
        )
    lines.append("result: " + ("PASS" if report["ok"] else "FAIL"))
    return "\n".join(lines)


def run_explore_scenario(scenario, mode: str, max_states=None, max_steps=None) -> dict:
    from .explore import explore
    from .resolvers import explorer_outcomes, sequential_oracle

    updates = {}  # each bound read as a scenario document reads it
    if max_states is not None:
        updates["max_states"] = _count(max_states, "--max-states")
    if max_steps is not None:
        updates["max_steps_per_thread"] = _count(max_steps, "--max-steps")
    if updates:
        scenario = scenario.replace(**updates)
    result = explore(scenario, mode=mode)
    report = result_to_json(result)
    ops = scenario.meta.get("thread_ops")
    if ops:
        subset = explorer_outcomes(scenario, result) <= sequential_oracle(ops)
        report["oracle_subset"] = subset
        report["ok"] = report["ok"] and subset
    return report


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def _emit(args, report: dict, renderer) -> None:
    if args.quiet:
        return
    if args.format == "json":
        sys.stdout.write(dumps(report))
    else:
        print(renderer(report))


def _exit_code(report: dict) -> int:
    if report.get("bound_exceeded"):
        return EXIT_BOUND
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="guardcheck",
        description="Check sharing-protocol laws and explore thread interleavings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="check a protocol and relation queries")
    p_check.add_argument("protocol")
    p_check.add_argument("relations", nargs="?")
    p_check.add_argument("--bound", type=int, default=None,
                         help="fraction denominator bound for the fractional builtin")
    p_explore = sub.add_parser("explore", help="explore a scenario file")
    p_explore.add_argument("scenario")
    p_demo = sub.add_parser("demo", help="run a built-in demo")
    p_demo.add_argument("name")
    p_report = sub.add_parser("report", help="render a JSON report as text")
    p_report.add_argument("file")
    for p in (p_explore, p_demo):
        p.add_argument("--mode", choices=("rule", "concrete"), default="rule")
        p.add_argument("--max-states", type=int, default=None)
        p.add_argument("--max-steps", type=int, default=None)
    for p in (p_check, p_explore, p_demo, p_report):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--quiet", action="store_true", help="exit code only")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            report = _read_json(args.file)
            renderer = _render_check if read_report(report) == "check" else _render_explore
            if not args.quiet:
                print(renderer(report))
            return EXIT_OK
        read = _read_json
        if args.command == "demo":  # `check` or `explore` on its packaged files
            from .demos import DEMOS, load_demo_document

            spec = DEMOS.get(args.name)
            if spec is None:
                raise FormatError(
                    f"unknown demo {args.name!r}; available: {', '.join(sorted(DEMOS))}"
                )
            read, args.command, args.bound = load_demo_document, spec["kind"], None
            parts = ("protocol", "relations") if spec["kind"] == "check" else ("scenario",)
            for part in parts:
                setattr(args, part, f"{args.name}.{part}.json")
        if args.command == "check":
            protocol_doc = read(args.protocol)
            if args.bound is not None:
                if args.bound < 1:
                    raise FormatError(f"--bound: must be a positive integer, got {args.bound}")
                set_den_bound(protocol_doc, args.bound)
            relations_doc = read(args.relations) if args.relations else None
            report, renderer = run_check(protocol_doc, relations_doc), _render_check
        else:
            scenario = scenario_from_json(read(args.scenario))
            report = run_explore_scenario(scenario, args.mode, args.max_states, args.max_steps)
            renderer = _render_explore
        _emit(args, report, renderer)
        return _exit_code(report)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
