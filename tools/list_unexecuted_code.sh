#!/usr/bin/env bash
#
# List the src/ code that no executable runs.
#
#   tools/list_unexecuted_code.sh
#
# Builds the working tree (tests excluded) and perfbench's hostbench at
# -O0 --coverage, runs every executable once at the settings its smoke run or
# CI job uses (each bench at its ctest settings; trace_report plain,
# --fleet, --chain and --list-metrics; the 5 examples; hostbench on all
# three workloads at toy scale with --trace 0 and --trace 1), then reads
# the counters back with `gcov -j` and prints:
#
#   - every function defined under src/ (out of line, or inline in a
#     src/ header) that never ran, as "file:line name";
#   - the never-executed lines of each src/ file;
#   - totals of instrumented and never-run functions and lines.
#
# Every out-of-line src/ function is instrumented, so one that only
# tests call is listed; an inline one counts only where a non-test
# executable compiles it. A report, not a gate: panics and accessors
# that tests read through stay unexecuted by design. Always exits 0 unless a build or run fails. JOBS sets the
# build parallelism (default: nproc). TMPDIR picks where the builds go;
# they are removed on exit.

set -euo pipefail

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
jobs=${JOBS:-$(nproc)}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

flags=(-DCMAKE_BUILD_TYPE=None -DCATALYZER_BUILD_TESTS=OFF
       "-DCMAKE_CXX_FLAGS=-O0 --coverage"
       "-DCMAKE_EXE_LINKER_FLAGS=--coverage")

build() { # <source dir> <build dir> [target]
    local log=$2.log
    cmake -S "$1" -B "$2" "${flags[@]}" >"$log" 2>&1
    cmake --build "$2" -j"$jobs" ${3:+--target "$3"} >>"$log" 2>&1 ||
        { tail -n 30 "$log" >&2; exit 1; }
}

run() { # [VAR=value ...] <executable> [args ...], in a fresh directory
    local dir
    dir=$(mktemp -d "$work/run.XXXXXX")
    (cd "$dir" && env "$@" >/dev/null 2>&1) ||
        { echo "list_unexecuted_code: failed: $*" >&2; exit 1; }
}

echo "list_unexecuted_code: building the tree and perfbench/hostbench" >&2
build "$repo" "$work/main"
build "$repo/perfbench" "$work/perfbench" hostbench

bench=$work/main/bench
echo "list_unexecuted_code: running the executables" >&2
for exe in "$bench"/*; do
    [[ -f $exe && -x $exe ]] || continue
    case $(basename "$exe") in
      micro_datastructures) run BENCHMARK_MIN_TIME=0.01 "$exe" ;;
      fig_fleet_slo)
        run FLEET_FUNCTIONS=200 FLEET_TENANTS=16 FLEET_RPS=400 \
            FLEET_DURATION_SEC=6 FLEET_MACHINES=4 "$exe" ;;
      fig_chain)
        run CHAIN_RUNS=8 CHAIN_FLEET_FUNCTIONS=24 \
            CHAIN_FLEET_DURATION_SEC=1 "$exe" ;;
      fig_image_dedup) run IMAGE_DEDUP_FUNCTIONS=160 "$exe" ;;
      trace_report)
        for arg in "" --fleet --chain --list-metrics; do
            run "$exe" $arg
        done ;;
      *) run "$exe" ;;
    esac
done
for exe in "$work"/main/examples/*; do
    [[ -f $exe && -x $exe ]] && run "$exe"
done
for workload in catalog_flash boot_storm chain_mix; do
    for trace in 0 1; do
        run "$work/perfbench/hostbench" --workload "$workload" \
            --variant 0 --seconds 1 --trace "$trace" --scale toy \
            --iterations 1
    done
done

echo "list_unexecuted_code: reading the counters with gcov -j" >&2
# One directory per counter file: the two builds compile the same
# sources into same-named objects, whose reports would overwrite.
mkdir "$work/gcov"
find "$work/main" "$work/perfbench" -name '*.gcda' -print0 |
    xargs -0 -n 1 sh -c 'cd "$(mktemp -d "$0/g.XXXXXX")" &&
        gcov -j -o "$(dirname "$1")" "$1" >/dev/null 2>&1' "$work/gcov"

python3 - "$work/gcov" "$repo/src/" <<'EOF'
import collections, glob, gzip, json, os, sys

gcov_dir, src = sys.argv[1], sys.argv[2]
funcs = {}                             # (file, line, col) -> [name, runs]
lines = collections.defaultdict(dict)  # file -> {line: runs}
for path in glob.glob(os.path.join(gcov_dir, '*', '*.gcov.json.gz')):
    with gzip.open(path, 'rt') as f:
        report = json.load(f)
    for entry in report['files']:
        name = os.path.realpath(entry['file'])
        if not name.startswith(src):
            continue
        rel = 'src/' + name[len(src):]
        for fn in entry['functions']:
            key = (rel, fn['start_line'], fn['start_column'])
            seen = funcs.setdefault(key, [fn['demangled_name'], 0])
            seen[1] += fn['execution_count']
        for line in entry['lines']:
            counts = lines[rel]
            n = line['line_number']
            counts[n] = counts.get(n, 0) + line['count']

never = sorted((k, v[0]) for k, v in funcs.items() if v[1] == 0)
print(f'never-run functions ({len(never)}):')
for (rel, line, _), name in never:
    print(f'  {rel}:{line} {name}')

print('never-executed lines per file:')
total_lines = dead_lines = 0
for rel in sorted(lines):
    dead = sorted(n for n, c in lines[rel].items() if c == 0)
    total_lines += len(lines[rel])
    dead_lines += len(dead)
    if dead:
        print(f'  {rel}: {len(dead)} of {len(lines[rel])}: '
              + ' '.join(map(str, dead)))

print(f'total: {len(never)} of {len(funcs)} src/ functions never ran, '
      f'{dead_lines} of {total_lines} src/ lines never ran')
EOF
