"""Command line of the benchmark.

``python3 -m perfbench --workload W --seed N --seconds S --trace 0|1``
    The driver contract: one workload, last stdout line is one JSON object
    ``{correct, attempted, failed, metrics}`` — the end-to-end metrics
    (``--trace 0``) or the per-layer metrics (``--trace 1``).
``python3 -m perfbench run [--seed N] [--workload W] [--out FILE]``
    All four workloads, rounds interleaved, plus a traced round each;
    prints every metric with its unit, writes the result file, exits 1 on
    a failed output check.
``python3 -m perfbench trace [--seed N] [--workload W]``
    Only what the per-layer metrics need (fewer untraced rounds).
``python3 -m perfbench compare A.json B.json``
    Row per workload x metric against the bounds; exits 1 if any exceeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from perfbench import compare as compare_module
from perfbench import harness
from perfbench.spec import (ROOT, ROUNDS, RUN_SECONDS, TRACE_UNTRACED_ROUNDS,
                            WORKLOADS)

TRACE_FILE = ROOT / "perfbench-trace.json"
RESULT_FILE = ROOT / "perfbench-result.json"


def _format(result: Dict[str, object]) -> str:
    lines = []
    for workload, entry in result["workloads"].items():
        lines.append(f"== {workload}  (seed {result['seed']}, "
                     f"median of {result['rounds']} rounds)")
        for name, metric in entry["metrics"].items():
            lines.append(f"  {name:<34}{metric['value']:>16.4f} "
                         f"{metric['unit']:<6} round spread "
                         f"{metric['spread']:.1%}")
        lines.append(f"  {'ops_attempted':<34}{entry['ops_attempted']:>16d}")
        lines.append(f"  {'ops_failed':<34}{entry['ops_failed']:>16d}")
        for name, metric in entry.get("layers", {}).items():
            if metric["value"]:
                lines.append(f"  {name:<34}{metric['value']:>16.4f} "
                             f"{metric['unit']}")
        failed = [check for check in entry["checks"] if not check["ok"]]
        lines.append(f"  checks: {len(entry['checks']) - len(failed)} passed, "
                     f"{len(failed)} failed")
        for check in failed:
            lines.append(f"    FAILED {check['name']} "
                         f"(round {check['round']}): {check['detail']}")
    return "\n".join(lines)


def _write_trace(result: Dict[str, object]) -> None:
    spans = result.pop("spans")
    if spans:
        TRACE_FILE.write_text(json.dumps({
            "seed": result["seed"],
            "clock": "time.perf_counter seconds, per worker process",
            "workloads": {
                workload: {"layers": result["workloads"][workload]["layers"],
                           "spans": spans[workload]}
                for workload in spans}}))


def _measure(workloads: List[str], args, rounds: int,
             traced: bool) -> Dict[str, object]:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure — {ROOT / 'src' / 'repro'} "
                 "is missing")
    result = harness.measure(workloads, args.seed, args.seconds, rounds,
                             traced)
    _write_trace(result)
    for note in harness.warnings_for(result):
        print(f"perfbench: warning: {note}", file=sys.stderr)
    return result


def _driver(args) -> int:
    traced = bool(args.trace)
    result = _measure([args.workload], args,
                      TRACE_UNTRACED_ROUNDS if traced else ROUNDS, traced)
    entry = result["workloads"][args.workload]
    print(_format(result), file=sys.stderr)
    metrics = entry["layers"] if traced else entry["metrics"]
    print(json.dumps({
        "correct": entry["correct"],
        "attempted": entry["ops_attempted"],
        "failed": entry["ops_failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in metrics.items()}}))
    return 0


def _report(args, workloads: List[str], rounds: int) -> int:
    """``run`` and ``trace``: print everything, fail on a failed check."""
    result = _measure(workloads, args, rounds, traced=True)
    print(_format(result))
    print(f"spans written to {TRACE_FILE}")
    if args.command == "run":
        Path(args.out).write_text(json.dumps(result, indent=1))
        print(f"result written to {args.out}")
    return 0 if all(entry["correct"]
                    for entry in result["workloads"].values()) else 1


def _compare(args) -> int:
    rows = compare_module.compare(json.loads(Path(args.a).read_text()),
                                  json.loads(Path(args.b).read_text()),
                                  compare_module.load_bounds())
    print(compare_module.format_rows(rows))
    return 0 if all(row["ok"] for row in rows) else 1


def main(argv=None) -> int:
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--workload", choices=list(WORKLOADS))
    inputs.add_argument("--seed", type=int, default=1)
    inputs.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__.split("\n\n")[0],
                                     parents=[inputs])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    commands = parser.add_subparsers(dest="command")
    commands.add_parser("run", parents=[inputs]).add_argument(
        "--out", default=str(RESULT_FILE))
    commands.add_parser("trace", parents=[inputs])
    comparison = commands.add_parser("compare")
    comparison.add_argument("a")
    comparison.add_argument("b")
    args = parser.parse_args(argv)

    try:
        if args.command in ("run", "trace"):
            return _report(
                args, [args.workload] if args.workload else list(WORKLOADS),
                ROUNDS if args.command == "run" else TRACE_UNTRACED_ROUNDS)
        if args.command == "compare":
            return _compare(args)
        if args.workload is None:
            parser.error("give --workload (driver mode) or a subcommand")
        return _driver(args)
    except harness.WorkerFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
