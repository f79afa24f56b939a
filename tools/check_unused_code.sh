#!/usr/bin/env bash
#
# Fail on a function defined in src/ that no executable links.
#
#   tools/check_unused_code.sh
#
# Builds the working tree (every test, bench and example) and perfbench's
# hostbench at -O0 -fno-inline -ffunction-sections, linked with
# -Wl,--gc-sections, so each executable keeps only the functions it can
# reach. Then compares the global text symbols (nm type T) of the src/
# libraries against the text symbols of every executable, and prints each
# library function that none of them contains. Inline and template code
# (weak symbols) and file-local functions are not checked.
#
# Exits 1 if it finds any such function, 0 otherwise. A function that only
# tests reach counts as linked. JOBS sets the build parallelism (default:
# nproc). TMPDIR picks where the builds go; they are removed on exit.

set -euo pipefail

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
jobs=${JOBS:-$(nproc)}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

build() { # <source dir> <build dir> [target]
    local log=$2.log
    cmake -S "$1" -B "$2" "${flags[@]}" >"$log" 2>&1
    cmake --build "$2" -j"$jobs" ${3:+--target "$3"} >>"$log" 2>&1 ||
        { tail -n 30 "$log" >&2; exit 1; }
}

echo "check_unused_code: building the tree and perfbench/hostbench"
build "$repo" "$work/main"
build "$repo/perfbench" "$work/perfbench" hostbench

# Every executable the two builds produced.
mapfile -t exes < <(find "$work/main" "$work/perfbench" -type f \
    -perm -u+x ! -name '*.a' ! -path '*/CMakeFiles/*' \
    -exec sh -c 'head -c 4 "$1" | grep -q ELF' _ {} \; -print)
mapfile -t libs < <(find "$work/main/src" -name 'libcatalyzer_*.a')
if [[ ${#exes[@]} -eq 0 || ${#libs[@]} -eq 0 ]]; then
    echo "check_unused_code: found ${#exes[@]} executables and" \
         "${#libs[@]} libraries" >&2
    exit 1
fi

nm --defined-only "${libs[@]}" 2>/dev/null |
    awk '$2 == "T" { print $3 }' | sort -u >"$work/defined"
for exe in "${exes[@]}"; do
    nm --defined-only "$exe" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
done | sort -u >"$work/linked"
comm -23 "$work/defined" "$work/linked" >"$work/unused"

count=$(wc -l <"$work/unused")
echo "check_unused_code: $(wc -l <"$work/defined") src/ functions," \
     "${#exes[@]} executables, $count linked into none"
if [[ $count -ne 0 ]]; then
    c++filt <"$work/unused" | sed 's/^/  unused: /'
    exit 1
fi
