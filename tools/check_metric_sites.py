#!/usr/bin/env python3
"""Check that src/ emits metrics only through the metric catalog.

Every metric the simulator emits is declared once in
src/sim/metric_catalog.h and emitted through its pre-resolved handle
(metrics::k<Id>, or a family's member()). Two checks:

- A string literal as the first argument of a StatRegistry / SimContext
  metric call anywhere else in src/ is either an undeclared metric or a
  handle that was not used, so this check fails on it. The name-taking
  StatRegistry members stay available to benches, tests and tools,
  which this check does not scan.
- A catalog entry whose handle k<Id> no src/ file names is a metric
  nothing emits, so this check fails on it too.

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
    r"(?:\.|->|::)\s*(incr|chargeCounted|observe|observeMs|"
    r"observeWindowed|value|findHistogram|findWindowed)\("
    r"\s*(?:std::string\(\s*)?\"")

# One catalog entry: M(Id, ...) or F(Id, ...).
ENTRY = re.compile(r"^\s*[MF]\((\w+),\s*\w+,\s*(\"[^\"]*\")", re.M)


def main(argv):
    root = (pathlib.Path(argv[1]) if len(argv) > 1
            else pathlib.Path(__file__).resolve().parent.parent / "src")
    bad = []
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(root.rglob("*"))
               if path.suffix in (".h", ".cc")}
    for path, text in sources.items():
        if path.relative_to(root) == CATALOG:
            continue
        for m in CALL.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            bad.append(f"{path}:{line}: string-literal metric name in "
                       f"{m.group(1)}(); declare it in {CATALOG} and use "
                       "its handle")
    # The catalog's entry lines name each Id without the k prefix, so
    # any match of k<Id> is a use of the handle.
    used = set()
    for text in sources.values():
        used.update(re.findall(r"\bk(\w+)\b", text))
    entries = ENTRY.findall(sources[root / CATALOG])
    for ident, name in entries:
        if ident not in used:
            bad.append(f"{root / CATALOG}: {name} (k{ident}) is declared "
                       "but no src/ file emits it; delete the entry")
    for b in bad:
        print(b, file=sys.stderr)
    if bad:
        return 1
    print(f"metric sites ok: no string-literal metric names under {root}, "
          f"all {len(entries)} catalog entries emitted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
