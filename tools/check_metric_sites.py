#!/usr/bin/env python3
"""Reject string-literal metric names at stats call sites in src/.

Every metric the simulator emits is declared once in
src/sim/metric_catalog.h and emitted through its pre-resolved handle
(metrics::k<Id>, or a family's member()). A string literal as the first
argument of a StatRegistry / SimContext metric call anywhere else in
src/ is either an undeclared metric or a handle that was not used, so
this check fails on it. The name-taking StatRegistry members stay
available to benches, tests and tools, which this check does not scan.

Usage: check_metric_sites.py [SRC_DIR]   (default: src next to tools/)
"""

import pathlib
import re
import sys

CATALOG = pathlib.Path("sim") / "metric_catalog.h"

# A metric call (emit or read) whose first argument is a string
# literal, possibly wrapped in std::string(...), possibly on the next
# line.
CALL = re.compile(
    r"(?:\.|->|::)\s*(incr|incrGlobal|chargeCounted|observe|observeMs|"
    r"observeWindowed|value|findHistogram|findWindowed)\("
    r"\s*(?:std::string\(\s*)?\"")


def main(argv):
    root = (pathlib.Path(argv[1]) if len(argv) > 1
            else pathlib.Path(__file__).resolve().parent.parent / "src")
    bad = []
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".h", ".cc") or \
                path.relative_to(root) == CATALOG:
            continue
        text = path.read_text(encoding="utf-8")
        for m in CALL.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            bad.append(f"{path}:{line}: string-literal metric name in "
                       f"{m.group(1)}(); declare it in {CATALOG} and use "
                       "its handle")
    for b in bad:
        print(b, file=sys.stderr)
    if bad:
        return 1
    print(f"metric sites ok: no string-literal metric names under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
