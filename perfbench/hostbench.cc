/**
 * @file
 * hostbench: host wall-clock cost of the simulator's fleet workloads.
 *
 *   hostbench --workload <name> --variant <n> --seconds <s> --trace <0|1>
 *             [--scale full|toy] [--iterations <n>]
 *
 * --trace 0 repeats the workload's set-up and one FleetDriver::run
 * (priming included) until --seconds of host time are spent, and
 * reports per-iteration set-up and run wall time, operations and the
 * FleetReport digest, plus the process's peak RSS.
 *
 * --trace 1 re-does the same work split at public call boundaries: a
 * replay at one worker, one plain run, then set-up, a priming pass that
 * mirrors the driver's own (image builds and first invokes timed per
 * call) and the replay at the workload's worker count, then the layer
 * probes (probes.h); it reports each pass's metrics. Every FleetReport
 * digest is reported so the caller can check that the split changed
 * nothing simulated.
 *
 * Replays run at half the host's cores, at most four.
 *
 * The last line of stdout is one JSON object; perfbench/run.py turns it
 * into the benchmark's result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "load/driver.h"
#include "probes.h"
#include "sandbox/pipelines.h"
#include "sim/logging.h"
#include "workloads.h"

using namespace catalyzer;
using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t variant = 0;
    double seconds = 10.0;
    bool trace = false;
    Scale scale = Scale::Full;
    /** Fixed iteration count instead of --seconds (0 = timed). */
    std::size_t iterations = 0;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload <name> "
                 "--variant <n> --seconds <s> --trace <0|1> "
                 "[--scale full|toy] [--iterations <n>]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--variant")
            args.variant = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--scale")
            args.scale = value == "toy" ? Scale::Toy : Scale::Full;
        else if (flag == "--iterations")
            args.iterations = std::strtoull(value.c_str(), nullptr, 10);
        else
            usage(("unknown flag " + flag).c_str());
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), args.workload) == names.end())
        usage("unknown or missing --workload");
    return args;
}

double
peakRssMiB()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Replay width: half the host's cores, at most four. Every epoch waits
 * for its slowest worker, so a worker on each core would time the
 * scheduler whenever a neighbour on a shared host takes one of them.
 */
int
replayWorkers()
{
    const unsigned cores = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(cores / 2, 1u, 4u));
}

std::size_t
operations(const load::FleetReport &report)
{
    return report.requests + report.workflowRuns;
}

/** The measured call of a sweep: one FleetDriver::run. */
load::FleetReport
replay(Fleet &fleet, const Workload &workload,
       const load::FleetRunConfig &config)
{
    load::FleetDriver driver(*fleet.cluster, *fleet.population);
    load::FleetReport report = driver.run(workload.traffic, config);
    if (operations(report) != fleet.stream.size())
        sim::panic("perfbench: %zu operations for a %zu-arrival tape",
                   operations(report), fleet.stream.size());
    return report;
}

/** Full precision: every digit as measured. */
void
writeNumber(std::ostream &os, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    os << buf;
}

void
writeNumberArray(std::ostream &os, const std::vector<double> &values)
{
    os << "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        os << (i ? ", " : "");
        writeNumber(os, values[i]);
    }
    os << "]";
}

/** The fields every hostbench result starts with. */
void
writeHeader(std::ostream &os, const char *mode, const Args &args,
            const Workload &workload)
{
    os << "{\"mode\": \"" << mode << "\", \"workload\": \""
       << workload.name << "\", \"variant\": " << args.variant
       << ", \"workers\": " << workload.run.simThreads
       << ", \"build_type\": \""
       << HOSTBENCH_BUILD_TYPE << "\", \"compiler\": \""
       << HOSTBENCH_COMPILER << "\"";
}

void
writeStringArray(std::ostream &os, const std::vector<std::string> &values)
{
    os << "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? ", " : "") << "\"" << values[i] << "\"";
    os << "]";
}

/**
 * --trace 0: repeat set-up + the measured call. Stops once another
 * iteration would overrun --seconds, after a warm-up and at least three
 * timed iterations, or after exactly --iterations.
 */
void
runPlain(const Args &args, const Workload &workload)
{
    constexpr std::size_t kMinIterations = 3;
    // Set-up is short next to the run; extra set-ups after each timed
    // iteration steady its median across the whole run.
    constexpr std::size_t kExtraSetups = 3;
    std::vector<double> setup, wall, ops;
    std::vector<std::string> digests;
    // A timed run starts with one warm-up iteration: it pays the
    // process's first-touch heap growth, so its report is checked but
    // its times are not kept.
    bool warm = args.iterations > 0;
    const auto start = Clock::now();
    double last = 0.0;
    auto more = [&] {
        if (args.iterations > 0)
            return wall.size() < args.iterations;
        return !warm || wall.size() < kMinIterations ||
               secondsSince(start) + last <= args.seconds;
    };
    while (more()) {
        const auto iteration = Clock::now();
        auto t0 = Clock::now();
        Fleet fleet = setUp(workload);
        const double setup_s = secondsSince(t0);
        t0 = Clock::now();
        const load::FleetReport report = replay(fleet, workload,
                                                workload.run);
        const double wall_s = secondsSince(t0);
        ops.push_back(static_cast<double>(operations(report)));
        digests.push_back(reportDigest(report));
        fleet = Fleet{};
        last = secondsSince(iteration);
        if (!warm) {
            warm = true;
            continue;
        }
        setup.push_back(setup_s);
        wall.push_back(wall_s);
        for (std::size_t i = 0; args.iterations == 0 && i < kExtraSetups;
             ++i) {
            t0 = Clock::now();
            const Fleet extra = setUp(workload);
            setup.push_back(secondsSince(t0));
        }
        last = secondsSince(iteration);
    }

    std::ostringstream os;
    writeHeader(os, "plain", args, workload);
    os << ", \"setup_s\": ";
    writeNumberArray(os, setup);
    os << ", \"wall_s\": ";
    writeNumberArray(os, wall);
    os << ", \"ops\": ";
    writeNumberArray(os, ops);
    os << ", \"digests\": ";
    writeStringArray(os, digests);
    os << ", \"peak_rss_mib\": ";
    writeNumber(os, peakRssMiB());
    os << "}";
    std::printf("%s\n", os.str().c_str());
}

/** Pinned priming trace ids, the same ones FleetDriver::run uses. */
constexpr trace::TraceId kPrimeTraceIdBase = 1ull << 47;

const char *const kTiers[] = {"sfork", "remote-sfork", "warm",
                              "cold",  "fresh",        "reused"};

/**
 * The driver's priming pass, from outside: per machine, invoke every
 * population function, then every workflow stage function, then drop
 * the instances. With @p out set, each image build and each invoke is
 * timed on its own.
 */
void
prime(Fleet &fleet, const Workload &workload, Metrics *out)
{
    Samples build, invoke;
    std::map<std::string, double> tiers;
    std::vector<std::string> names;
    for (const load::FleetFunction &fn : fleet.population->functions())
        names.push_back(fn.name);
    const std::size_t population_fns = names.size();
    for (const std::string &fn : workflowFunctions(workload))
        names.push_back(fn);

    trace::TraceId prime_id = kPrimeTraceIdBase;
    platform::Cluster &cluster = *fleet.cluster;
    for (std::size_t m = 0; m < cluster.machineCount(); ++m) {
        platform::ServerlessPlatform &plat = cluster.platform(m);
        sandbox::Machine &mach = cluster.machine(m);
        for (const std::string &name : names) {
            if (out && workload.prebuildImages) {
                sandbox::FunctionArtifacts *fn = plat.registry().find(name);
                if (fn == nullptr)
                    sim::panic("perfbench: %s not deployed", name.c_str());
                const auto start = Clock::now();
                sandbox::ensureSeparatedImage(*fn);
                build.add(secondsSince(start));
            }
            const trace::TraceContext ctx(mach.tracer(), mach.ctx().clock(),
                                          0, prime_id++);
            const auto start = Clock::now();
            const platform::InvocationRecord record = plat.invoke(name, ctx);
            invoke.add(secondsSince(start));
            ++tiers[record.tierServed];
        }
        plat.expireIdle(sim::SimTime::milliseconds(0.001));
    }
    if (!out)
        return;

    // Useful/attempted for image builds: one arena per distinct image
    // buffer, over one attempt per (machine, population function).
    std::set<const void *> arenas;
    for (std::size_t m = 0; m < cluster.machineCount(); ++m) {
        for (std::size_t i = 0; i < population_fns; ++i) {
            sandbox::FunctionArtifacts *fn =
                cluster.platform(m).registry().find(names[i]);
            if (fn && fn->separatedImage)
                arenas.insert(&fn->separatedImage->separated().arena());
        }
    }
    Metrics &o = *out;
    o["snapshot.build.calls"] = static_cast<double>(build.count());
    o["snapshot.build.busy_s"] = build.sum();
    o["snapshot.build.p50_us"] = build.percentileUs(50);
    o["snapshot.build.p99_us"] = build.percentileUs(99);
    o["snapshot.build.distinct_arenas"] =
        static_cast<double>(arenas.size()) /
        static_cast<double>(cluster.machineCount() * population_fns);
    o["platform.first_invoke.busy_s"] = invoke.sum();
    o["platform.first_invoke.p50_us"] = invoke.percentileUs(50);
    o["platform.first_invoke.p99_us"] = invoke.percentileUs(99);
    for (const char *tier : kTiers)
        o[std::string("platform.first_invoke.tier.") + tier] = tiers[tier];
}

/** The workload's hottest functions, for the layer probes. */
std::vector<const apps::AppProfile *>
hottest(const load::Population &population, std::size_t n)
{
    std::vector<const load::FleetFunction *> fns;
    for (const load::FleetFunction &fn : population.functions())
        fns.push_back(&fn);
    std::sort(fns.begin(), fns.end(),
              [](const auto *a, const auto *b) { return a->rank < b->rank; });
    std::vector<const apps::AppProfile *> apps;
    for (std::size_t i = 0; i < std::min(n, fns.size()); ++i)
        apps.push_back(fns[i]->profile);
    return apps;
}

/** One traced pass; appends this pass's digests and operation count. */
Metrics
tracedPass(const Workload &workload, std::vector<std::string> &digests,
           std::vector<double> &ops)
{
    Metrics m;
    load::FleetRunConfig split = workload.run;
    split.primeImages = false;

    // The replay at one worker: the scaling baseline, and the
    // worker-count half of the determinism contract. It runs first, so
    // the process's first-touch heap growth lands in its untimed
    // priming rather than in the runs compared below.
    {
        Fleet fleet = setUp(workload);
        prime(fleet, workload, nullptr);
        load::FleetRunConfig one = split;
        one.simThreads = 1;
        const auto start = Clock::now();
        const load::FleetReport report = replay(fleet, workload, one);
        m["load.replay_1w_s"] = secondsSince(start);
        digests.push_back(reportDigest(report));
        ops.push_back(static_cast<double>(operations(report)));
    }

    // The plain measured call, as --trace 0 runs it.
    {
        Fleet fleet = setUp(workload);
        const auto start = Clock::now();
        const load::FleetReport report = replay(fleet, workload,
                                                workload.run);
        m["load.wall_s"] = secondsSince(start);
        digests.push_back(reportDigest(report));
        ops.push_back(static_cast<double>(operations(report)));
    }

    // The same work split at public call boundaries.
    {
        auto start = Clock::now();
        Fleet fleet = setUp(workload);
        m["load.setup_s"] = secondsSince(start);
        start = Clock::now();
        prime(fleet, workload, &m);
        m["load.prime_s"] = secondsSince(start);
        start = Clock::now();
        const load::FleetReport report = replay(fleet, workload, split);
        m["load.replay_s"] = secondsSince(start);
        digests.push_back(reportDigest(report));
        ops.push_back(static_cast<double>(operations(report)));
        // What the split costs over the plain call it re-does.
        m["load.split_over_wall"] =
            (m["load.prime_s"] + m["load.replay_s"]) / m["load.wall_s"];

        m["sim.requests"] = static_cast<double>(report.requests);
        m["sim.boots"] = static_cast<double>(report.boots);
        m["sim.workflow_runs"] = static_cast<double>(report.workflowRuns);
        m["sim.e2e_p99_ms"] = report.endToEnd.percentile(99);
        for (const char *tier : kTiers) {
            const auto it = report.tierCounts.find(tier);
            m[std::string("sim.tier.") + tier] =
                it == report.tierCounts.end()
                    ? 0.0
                    : static_cast<double>(it->second);
        }
        sim::StatRegistry stats;
        fleet.cluster->mergeStats(stats);
        for (const char *name :
             {"image.chunks.bytes_transferred", "state.attaches",
              "state.publishes", "state.cow_faults"})
            m[name] = static_cast<double>(stats.value(name));
    }

    const load::Population population(workload.population);
    const auto apps = hottest(population, 8);
    probeObjgraph(apps, m);
    probeBoots(apps, m);
    probeMem(m);
    probeStatsAndTrace(m);
    probeWorkflow(m);
    return m;
}

/** --trace 1: traced passes until --seconds is spent (at least one). */
void
runTraced(const Args &args, const Workload &workload)
{
    std::vector<Metrics> passes;
    std::vector<std::string> digests;
    std::vector<double> ops;
    const auto start = Clock::now();
    double last = 0.0;
    while (passes.empty() || secondsSince(start) + last <= args.seconds) {
        const auto pass = Clock::now();
        passes.push_back(tracedPass(workload, digests, ops));
        last = secondsSince(pass);
    }

    std::ostringstream os;
    writeHeader(os, "traced", args, workload);
    os << ", \"digests\": ";
    writeStringArray(os, digests);
    os << ", \"ops\": ";
    writeNumberArray(os, ops);
    os << ", \"metrics\": [";
    for (std::size_t p = 0; p < passes.size(); ++p) {
        os << (p ? ", {" : "{");
        bool first = true;
        for (const auto &[name, value] : passes[p]) {
            os << (first ? "" : ", ") << "\"" << name << "\": ";
            writeNumber(os, value);
            first = false;
        }
        os << "}";
    }
    os << "], \"peak_rss_mib\": ";
    writeNumber(os, peakRssMiB());
    os << "}";
    std::printf("%s\n", os.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload workload = makeWorkload(args.workload, args.variant,
                                           args.scale, replayWorkers());
    std::printf("hostbench: workload=%s variant=%llu scale=%s workers=%d "
                "build=%s compiler=%s\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(args.variant),
                args.scale == Scale::Toy ? "toy" : "full",
                workload.run.simThreads,
                HOSTBENCH_BUILD_TYPE, HOSTBENCH_COMPILER);
    std::fflush(stdout);
    if (args.trace)
        runTraced(args, workload);
    else
        runPlain(args, workload);
    return 0;
}
