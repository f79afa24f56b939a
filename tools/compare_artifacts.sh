#!/usr/bin/env bash
#
# Byte-compare the simulator's result surfaces between a git revision and
# the working tree.
#
#   tools/compare_artifacts.sh <rev>
#
# Builds <rev> (exported with git archive) and the working tree, both
# Release, then runs every surface below on each build, each run in its
# own fresh directory, and cmp's every file the runs leave behind:
#
#   scorecard                 stdout, host "wall-clock:" footer stripped
#   trace_report              stdout + trace/metrics JSON
#   trace_report --fleet      stdout + fleet trace/metrics/timeseries JSON
#   trace_report --chain      stdout + chain trace/metrics/timeseries JSON
#   fig_remote_fork           stdout
#   fig_fault_matrix          stdout
#   fig_fleet_slo             stdout + JSON, at CI's reduced fleet size
#   fig_chain                 stdout + JSON, at CI's reduced sweep
#   fig_image_dedup           stdout + JSON, at CI's reduced catalog
#   fig_slo_window            stdout + JSON + fig_slo_window.flightrec/
#   ablation_keepalive        stdout
#   ablation_template_budget  stdout
#   fig01 ... fig16d          stdout of each of the 16 figure binaries
#   tab01 ... tab03           stdout of each of the 3 table binaries
#   fig_prefetch_ablation     stdout
#
# Prints every differing file and exits 1 if any differs, 0 otherwise.
# JOBS sets the build parallelism (default: nproc). TMPDIR picks where the
# exported source, builds and runs go; they are removed on exit.

set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
rev=$1
repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
git -C "$repo" rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "compare_artifacts: unknown revision '$rev'" >&2
    exit 2
}
jobs=${JOBS:-$(nproc)}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The paper's figures and tables, plus the prefetch ablation: each
# prints only virtual-clock results, byte-identical across runs and
# optimisation levels.
paper=(fig01_cdf_ratio fig02_boot_breakdown fig03_design_space
       fig04_startup_split fig06_restore_baseline fig11_startup_matrix
       fig12_breakdown fig13a_deathstar fig13b_pillow fig13c_ecommerce
       fig14_memory_usage fig15_scalability fig16a_entry_point
       fig16b_kvm_cache fig16c_pml fig16d_dup_latency
       tab01_syscall_policy tab02_runtime_template tab03_memory_costs
       fig_prefetch_ablation)

targets=(scorecard trace_report fig_remote_fork fig_fault_matrix
         fig_fleet_slo fig_chain fig_image_dedup fig_slo_window
         ablation_keepalive ablation_template_budget "${paper[@]}")

build() { # <source dir> <build dir>
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
        -DCATALYZER_BUILD_TESTS=OFF -DCATALYZER_BUILD_EXAMPLES=OFF \
        >"$2.log" 2>&1
    cmake --build "$2" -j"$jobs" --target "${targets[@]}" >>"$2.log" 2>&1 ||
        { tail -n 30 "$2.log" >&2; exit 1; }
}

# run <out dir> <surface> <command...>: run one surface in a fresh
# directory with stdout captured to stdout.txt, kept as <out dir>/<surface>.
run() {
    local out=$1 name=$2 dir
    shift 2
    dir=$(mktemp -d "$work/run.XXXXXX")
    (cd "$dir" && "$@" >stdout.txt)
    mv "$dir" "$out/$name"
}

surfaces() { # <bench dir> <out dir>
    local b=$1 out=$2
    mkdir -p "$out"
    run "$out" scorecard "$b/scorecard"
    sed -i '/^wall-clock:/d' "$out/scorecard/stdout.txt"
    run "$out" trace_report "$b/trace_report"
    run "$out" trace_report-fleet "$b/trace_report" --fleet
    run "$out" trace_report-chain "$b/trace_report" --chain
    run "$out" fig_remote_fork "$b/fig_remote_fork"
    run "$out" fig_fault_matrix "$b/fig_fault_matrix"
    run "$out" fig_fleet_slo env FLEET_FUNCTIONS=200 FLEET_TENANTS=16 \
        FLEET_RPS=400 FLEET_DURATION_SEC=6 FLEET_MACHINES=4 \
        "$b/fig_fleet_slo"
    run "$out" fig_chain env CHAIN_RUNS=8 CHAIN_FLEET_FUNCTIONS=24 \
        CHAIN_FLEET_DURATION_SEC=1 "$b/fig_chain"
    run "$out" fig_image_dedup env IMAGE_DEDUP_FUNCTIONS=160 \
        "$b/fig_image_dedup"
    run "$out" fig_slo_window "$b/fig_slo_window"
    run "$out" ablation_keepalive "$b/ablation_keepalive"
    run "$out" ablation_template_budget "$b/ablation_template_budget"
    local name
    for name in "${paper[@]}"; do
        run "$out" "$name" "$b/$name"
    done
}

echo "compare_artifacts: building $rev and the working tree (Release)"
mkdir "$work/src-old"
git -C "$repo" archive "$rev" | tar -x -C "$work/src-old"
build "$work/src-old" "$work/build-old"
build "$repo" "$work/build-new"

echo "compare_artifacts: running surfaces"
surfaces "$work/build-old/bench" "$work/old"
surfaces "$work/build-new/bench" "$work/new"

status=0
files=0
while IFS= read -r file; do
    files=$((files + 1))
    if [[ ! -f "$work/old/$file" ]]; then
        echo "only in working tree: $file"
        status=1
    elif [[ ! -f "$work/new/$file" ]]; then
        echo "only in $rev: $file"
        status=1
    elif ! cmp -s "$work/old/$file" "$work/new/$file"; then
        echo "differs: $file"
        status=1
    fi
done < <( (cd "$work/old" && find . -type f; cd "$work/new" && find . -type f) |
          sed 's|^\./||' | sort -u)

if [[ $status -eq 0 ]]; then
    echo "compare_artifacts: all $files files byte-identical to $rev"
fi
exit $status
