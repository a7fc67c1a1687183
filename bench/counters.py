#!/usr/bin/env python3
"""Exact counters gate for the in-repo benchmark.

`bench/main.exe` records, on every timed row of BENCH_whynot.json, the
Obs counters of one call: deterministic work measures (candidates,
absorb attempts, chase steps, cache hits, ...), unlike the row's time.
This script keeps the counters only and compares them with the committed
baseline `bench/counters.baseline`, one `ID | label | counter = value`
line each, in report order.

Left out, because they are not repeatable: times (`ns_per_op` and the
`*.ns` counters), allocation figures (`gc.*`), and the rows whose work
is spread over server threads (`SERVE` and `COLD`).

    dune exec bench/main.exe -- --quick && python3 bench/counters.py check
    dune exec bench/main.exe -- --quick && python3 bench/counters.py write

`check` prints a unified diff and exits 1 when any counter differs from
the baseline, or a row is missing or new. `write` refreshes the baseline
from the report; do it only when the work change is intended, and say
so in CHANGES.md.
"""

import difflib
import json
import os
import sys

REPORT = "BENCH_whynot.json"
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "counters.baseline")
SKIPPED_IDS = {"SERVE", "COLD"}


def counter_lines(report_path):
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    if not report.get("quick"):
        sys.exit(f"{report_path}: not a --quick report; the baseline is of --quick")
    lines = []
    for row in report["rows"]:
        if row["id"] in SKIPPED_IDS:
            continue
        for name, value in sorted(row["counters"].items()):
            if name.endswith(".ns") or name.startswith("gc."):
                continue
            lines.append(f"{row['id']} | {row['label']} | {name} = {value}\n")
    return lines


def main(argv):
    if len(argv) != 2 or argv[1] not in ("check", "write"):
        sys.exit("usage: counters.py check|write  (reads ./" + REPORT + ")")
    lines = counter_lines(REPORT)
    if argv[1] == "write":
        with open(BASELINE, "w", encoding="utf-8") as f:
            f.writelines(lines)
        print(f"wrote {len(lines)} counters to {BASELINE}")
        return 0
    with open(BASELINE, encoding="utf-8") as f:
        baseline = f.readlines()
    diff = list(difflib.unified_diff(baseline, lines, "counters.baseline",
                                     REPORT))
    if diff:
        sys.stdout.writelines(diff)
        print(f"counters differ from the baseline ({len(baseline)} committed, "
              f"{len(lines)} measured); refresh with "
              "`python3 bench/counters.py write` if the change is intended")
        return 1
    print(f"{len(lines)} counters equal the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
