#!/usr/bin/env bash
#
# Fail on a function defined in src/ that no executable needs.
#
#   tools/check_unused_code.sh
#
# Builds the working tree (every test, bench and example) and perfbench's
# hostbench at -O0 -fno-inline -fkeep-inline-functions -ffunction-sections,
# linked with -Wl,--gc-sections, so each object file holds every inline
# function its headers define and each executable keeps only the functions
# it can reach. Then reads the symbols of the src/ libraries and of every
# executable with nm and runs two checks:
#
#   (a) unlinked:  every out-of-line function (nm type T) and every inline
#                  catalyzer:: function (nm type W) of the libraries is
#                  linked into some executable, tests included.
#   (b) test-only: every out-of-line function of the libraries is linked
#                  into some executable outside tests/.
#
# Inline functions in (a) are those whose mangled name starts in namespace
# catalyzer (_ZN[K]9catalyzer...), less constructors and destructors: each
# is emitted in several ABI variants (complete-object, base-object,
# deleting), and a program links only the variants it uses. std::
# instantiations over catalyzer types, lambdas and file-local functions are
# not checked. Inline functions that only tests link are counted, not
# checked.
#
# Exits 1 if either check finds a function, 0 otherwise. JOBS sets the build
# parallelism (default: nproc). TMPDIR picks where the builds go; they are
# removed on exit.

set -euo pipefail

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
jobs=${JOBS:-$(nproc)}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -fkeep-inline-functions -ffunction-sections"
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

executables() { # <dir>...
    find "$@" -type f -perm -u+x ! -name '*.a' ! -path '*/CMakeFiles/*' \
        -exec sh -c 'head -c 4 "$1" | grep -q ELF' _ {} \; -print
}
mapfile -t tests < <(executables "$work/main/tests")
mapfile -t others < <(executables "$work/main/bench" "$work/main/examples" \
                                  "$work/perfbench")
mapfile -t libs < <(find "$work/main/src" -name 'libcatalyzer_*.a')
if [[ ${#tests[@]} -eq 0 || ${#others[@]} -eq 0 || ${#libs[@]} -eq 0 ]]; then
    echo "check_unused_code: found ${#tests[@]} test executables," \
         "${#others[@]} other executables and ${#libs[@]} libraries" >&2
    exit 1
fi

# Text symbols, one mangled name a line, sorted.
linked() { # <executable>...
    for exe in "$@"; do
        nm --defined-only "$exe" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
    done | sort -u
}

nm --defined-only "${libs[@]}" 2>/dev/null >"$work/lib.nm"
awk '$2 == "T" { print $3 }' "$work/lib.nm" | sort -u >"$work/outline"
awk '$2 == "W" && $3 ~ /^_ZNK?9catalyzer/ { print $3 }' "$work/lib.nm" |
    sort -u | grep -v '[CD][0-5][EIB]' >"$work/inline" || true
linked "${others[@]}" >"$work/linked_others"
linked "${tests[@]}" "${others[@]}" >"$work/linked_all"

sort -u "$work/outline" "$work/inline" |
    comm -23 - "$work/linked_all" >"$work/unlinked"
comm -23 "$work/outline" "$work/linked_others" |
    comm -23 - "$work/unlinked" >"$work/test_only"
inline_test_only=$(comm -23 "$work/inline" "$work/linked_others" |
                   comm -23 - "$work/unlinked" | wc -l)

echo "check_unused_code: $(wc -l <"$work/outline") out-of-line and" \
     "$(wc -l <"$work/inline") inline src/ functions," \
     "${#tests[@]} test and ${#others[@]} other executables"
echo "check_unused_code: (a) $(wc -l <"$work/unlinked") linked into none;" \
     "(b) $(wc -l <"$work/test_only") out-of-line linked only into tests" \
     "($inline_test_only inline ones, not checked)"
c++filt <"$work/unlinked" | sed 's/^/  unlinked: /'
c++filt <"$work/test_only" | sed 's/^/  test-only: /'
[[ ! -s "$work/unlinked" && ! -s "$work/test_only" ]]
