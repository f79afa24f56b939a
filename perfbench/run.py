#!/usr/bin/env python3
"""Host-cost benchmark of the Catalyzer fleet simulator.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the simulator's src/
libraries plus the hostbench driver) in Release mode under
.bench_build/perfbench; later runs only re-check the build. The workload
then runs in its own hostbench process, so peak RSS is the workload's.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. Every FleetReport the run produces is hashed and
compared with the reference digest of its input variant
(reference_digests.json); a run whose digest differs counts all of its
operations as failed. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it stamps the result with host nproc, worker count,
build type, compiler and the source revision, and the same record is
appended to .bench_build/perfbench/results.jsonl.

    python3 perfbench/run.py --regen-references

recomputes reference_digests.json; run it only when a change is meant
to move simulated results.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BUILD_DIR = REPO / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "hostbench"
REFERENCES = BENCH_DIR / "reference_digests.json"
SPEC = REPO / "BENCHMARK.json"

# --seed selects one of this many input variants (arrival-tape seeds);
# every variant has a stored reference digest per workload.
VARIANTS = 16
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build hostbench; build output goes to stderr."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {REPO / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "hostbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            fail(f"cannot run {cmd[0]}: {err}")
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def hostbench(workload, variant, seconds, trace, scale, iterations=0):
    """Run one hostbench process and return its result object."""
    cmd = [str(BINARY), "--workload", workload, "--variant", str(variant),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scale", scale]
    if iterations:
        cmd += ["--iterations", str(iterations)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"hostbench timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"hostbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("hostbench printed nothing")
    return json.loads(lines[-1])


def source_revision():
    """git describe, or a hash of src/ where there is no repository."""
    # The ceiling keeps git from adopting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(REPO), "describe", "--always", "--dirty",
             "--tags"], capture_output=True, text=True, timeout=20, env=env)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for path in sorted((REPO / "src").rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(REPO).as_posix().encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")


def score(digests, ops, expected):
    """attempted and failed operations over runs checked against expected."""
    attempted = int(sum(ops))
    failed = int(sum(n for n, d in zip(ops, digests) if d != expected))
    return attempted, failed


def end_to_end(raw):
    """The run's fastest timed iteration, and the median set-up.

    Neighbours on a shared host slow this memory-bound simulator by up
    to 1.6x in episodes of 20-30 s, longer than half a run, so a median
    over the run's iterations moves with them. The fastest iteration is
    the uncontended cost whenever part of the run is quiet.
    """
    wall = raw["wall_s"]
    # ops also covers an untimed warm-up iteration ahead of the timed ones.
    timed_ops = raw["ops"][len(raw["ops"]) - len(wall):]
    return {
        "wall_s": min(wall),
        "ops_per_s": max(n / w for n, w in zip(timed_ops, wall)),
        "peak_rss_mib": raw["peak_rss_mib"],
        "setup_s": statistics.median(raw["setup_s"]),
    }


def traced(raw):
    passes = raw["metrics"]
    return {name: statistics.median(p[name] for p in passes)
            for name in passes[0]}


def regen_references(workloads):
    table = {}
    for workload in workloads:
        table[workload] = {}
        for variant in range(VARIANTS):
            raw = hostbench(workload, variant, 0, False, "full", iterations=1)
            table[workload][str(variant)] = raw["digests"][0]
            print(f"{workload} variant {variant}: {raw['digests'][0]}",
                  file=sys.stderr)
    with open(REFERENCES, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: the self-test's reduced fleets, checked "
                             "for internal agreement instead of references")
    parser.add_argument("--regen-references", action="store_true")
    args = parser.parse_args()

    spec = load_json(SPEC)
    build()
    names = [w["name"] for w in spec["workloads"]]
    if args.regen_references:
        regen_references(names)
        return
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")

    variant = args.seed % VARIANTS
    raw = hostbench(args.workload, variant, args.seconds, args.trace,
                    args.scale)
    digests = raw["digests"]
    if args.scale == "full":
        expected = load_json(REFERENCES).get(args.workload, {}).get(
            str(variant))
        if expected is None:
            print(f"perfbench: no reference digest for {args.workload} "
                  f"variant {variant}", file=sys.stderr)
    else:
        expected = digests[0]
    attempted, failed = score(digests, raw["ops"], expected)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = traced(raw) if args.trace else end_to_end(raw)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}

    stamp = {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "trace": args.trace, "scale": args.scale,
        "nproc": os.cpu_count(), "workers": raw["workers"],
        "build_type": raw["build_type"], "compiler": raw["compiler"],
        "git_describe": source_revision(),
    }
    result = {"correct": attempted > 0 and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(BUILD_DIR / "results.jsonl", "a") as f:
        f.write(json.dumps({"stamp": stamp, "result": result}) + "\n")
    print("perfbench-stamp " + json.dumps(stamp))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
