"""``python -m perfbench compare A.json B.json``: is B worse than A?

One row per workload x end-to-end metric: the relative difference of B's
median against A's, signed so that positive means *worse* in the metric's
own direction, next to the bound ``BENCHMARK.json`` fixes for it.  Two
result files from the same code should pass on every row (the A/A check).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from perfbench.spec import ROOT


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> Dict[str, Dict[str, object]]:
    """Metric name -> ``{"better", "bound", "unit"}`` from BENCHMARK.json."""
    document = json.loads(path.read_text())
    return {metric["name"]: metric for metric in document["end_to_end"]}


def worsening(before: float, after: float, better: str) -> float:
    """Share of ``before`` by which ``after`` is worse (negative: better)."""
    change = (after - before) / before
    return -change if better == "higher" else change


def compare(a: Dict[str, object], b: Dict[str, object],
            bounds: Dict[str, Dict[str, object]]) -> List[Dict[str, object]]:
    """One row per workload x metric present in both result documents."""
    rows = []
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for name, spec in bounds.items():
            before = entry["metrics"][name]["value"]
            after = other["metrics"][name]["value"]
            worse = worsening(before, after, spec["better"])
            rows.append({"workload": workload, "metric": name,
                         "unit": spec["unit"], "a": before, "b": after,
                         "worse_by": worse, "bound": spec["bound"],
                         "ok": worse <= spec["bound"]})
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'workload':<20}{'metric':<14}{'A':>14}{'B':>14}"
             f"{'worse by':>10}{'bound':>8}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<20}{row['metric']:<14}"
            f"{row['a']:>14.4f}{row['b']:>14.4f}"
            f"{row['worse_by']:>+10.2%}{row['bound']:>8.0%}  "
            f"{'ok' if row['ok'] else 'EXCEEDS BOUND'}  [{row['unit']}]")
    return "\n".join(lines)
