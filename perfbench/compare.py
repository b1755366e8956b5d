"""Compare benchmark results of two commits.

Usage::

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the ``.perfbench/results/*.json`` records of one
commit. Records are paired by workload, seed and trace mode. The comparison
refuses to proceed (exit code 1) when any paired runs were given different
inputs, since the inputs come from the code under test; otherwise it prints,
per workload and metric, the median of each side and the relative change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> dict[tuple, dict]:
    records = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        records[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return records


def input_mismatches(base: dict, new: dict) -> list[str]:
    out = []
    for key in sorted(base.keys() & new.keys()):
        a, b = base[key]["inputs"], new[key]["inputs"]
        for name in sorted(a.keys() | b.keys()):
            if a.get(name) != b.get(name):
                out.append(f"{key[0]} seed {key[1]}: {name}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    paired = sorted(base.keys() & new.keys())
    if not paired:
        print("error: no runs to pair (same workload, seed and trace mode)", file=sys.stderr)
        return 2
    mismatches = input_mismatches(base, new)
    if mismatches:
        print("refusing to compare: inputs differ between the commits", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    groups: dict[tuple, tuple[list, list]] = {}
    for key in paired:
        workload, _, trace = key
        for name, m in base[key]["metrics"].items():
            if name in new[key]["metrics"]:
                b, n = groups.setdefault((workload, trace, name, m["unit"]), ([], []))
                b.append(m["value"])
                n.append(new[key]["metrics"][name]["value"])
    print(f"{'workload':<14} {'metric':<44} {'base':>14} {'new':>14} {'change':>8}  runs")
    for (workload, _, name, unit), (b, n) in sorted(groups.items()):
        mb, mn = statistics.median(b), statistics.median(n)
        change = f"{mn / mb - 1.0:+.1%}" if mb else "n/a"
        print(f"{workload:<14} {name:<44} {mb:>14.6g} {mn:>14.6g} {change:>8}  {len(b)} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
