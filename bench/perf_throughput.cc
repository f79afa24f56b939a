/**
 * @file
 * Wall-clock throughput harness for the simulator itself.
 *
 * Unlike the fig and tab binaries (which report *virtual-clock*
 * latencies), this harness measures how fast the simulator executes on the real
 * machine: boots per wall-second for cold / warm / sfork sweeps and raw
 * page-touch throughput on the memory substrate. It exists to keep the
 * extent-based memory hot paths honest — the paper's scalability regime
 * (Fig. 15, 1000+ concurrent instances) is exactly where per-page
 * fault handling makes the simulator the bottleneck.
 *
 * Environment knobs:
 *   PERF_FORK_BOOTS        sfork sweep size        (default 1000)
 *   PERF_WARM_BOOTS        warm-boot sweep size    (default 200)
 *   PERF_COLD_BOOTS        cold-boot sweep size    (default 50)
 *   PERF_TOUCH_PAGES       touch-micro extent      (default 262144 = 1 GiB)
 *   PERF_MIN_FORK_BOOTS_PER_SEC
 *                          gate: exit non-zero when the sfork sweep is
 *                          slower (default 0 = no gate; CI sets a
 *                          generous floor to catch gross regressions)
 *   PERF_FLEET_BOOTS      per-machine boots in the fleet sweep (default 400)
 *   PERF_FLEET_MACHINES   fleet sweep size                     (default 8)
 *   PERF_FLEET_WORKERS    parallel executor width              (default 8)
 *   PERF_MIN_FLEET_SPEEDUP
 *                          gate: exit non-zero when the N-worker fleet
 *                          sweep is not at least this many times faster
 *                          than the 1-worker run (default 0 = no gate;
 *                          CI enables it only on hosts with enough
 *                          cores — speedup is bounded by nproc)
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "catalyzer/runtime.h"
#include "platform/platform.h"
#include "sim/executor.h"
#include "sim/table.h"

using namespace catalyzer;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A count knob from the environment (bench::envSize), as a long. */
long
envLong(const char *name, long fallback)
{
    return static_cast<long>(
        bench::envSize(name, static_cast<std::size_t>(fallback)));
}

std::string
fmtRate(double per_sec)
{
    char buf[48];
    if (per_sec >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2fM/s", per_sec / 1e6);
    else if (per_sec >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.1fk/s", per_sec / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.1f/s", per_sec);
    return buf;
}

std::string
fmtSecs(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
    return buf;
}

struct SweepResult
{
    std::string name;
    long items = 0;
    double wallSec = 0.0;
    std::string unit;
};

std::vector<SweepResult> results;

/** 1000+ fork boots, each followed by a touch-heavy invocation. */
double
sforkSweep(long boots)
{
    sandbox::Machine machine(42);
    platform::ServerlessPlatform plat(
        machine,
        platform::PlatformConfig{platform::BootStrategy::CatalyzerFork});
    const apps::AppProfile &app = apps::appByName("ds-text");
    plat.prepare(app);

    const auto start = Clock::now();
    for (long i = 0; i < boots; ++i)
        plat.invoke(app.name);
    const double wall = secondsSince(start);
    results.push_back({"sfork boot + invoke", boots, wall, "boots"});
    return wall;
}

/** Warm (Zygote) boots; instances are dropped after each boot. */
void
warmSweep(long boots)
{
    sandbox::Machine machine(42);
    sandbox::FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    auto &fn = registry.artifactsFor(apps::appByName("python-hello"));
    runtime.bootWarm(fn); // establish the base + zygote pool off-clock

    const auto start = Clock::now();
    for (long i = 0; i < boots; ++i) {
        auto boot = runtime.bootWarm(fn);
        boot.instance->invoke();
    }
    results.push_back(
        {"warm boot + invoke", boots, secondsSince(start), "boots"});
}

/** Cold restores against a warm page cache (steady-state cold boots). */
void
coldSweep(long boots)
{
    sandbox::Machine machine(42);
    sandbox::FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    auto &fn = registry.artifactsFor(apps::appByName("python-hello"));
    runtime.bootCold(fn); // image build + first-restore storage reads

    const auto start = Clock::now();
    for (long i = 0; i < boots; ++i) {
        auto boot = runtime.bootCold(fn);
        boot.instance->invoke();
    }
    results.push_back(
        {"cold boot + invoke", boots, secondsSince(start), "boots"});
}

/**
 * Raw memory-substrate micro: anonymous faults, a full COW fork, child
 * re-touch (COW copies), then unmap — the four range operations every
 * boot path is built from. Only every other page is touched, so each
 * touched page is its own run: whole-range touches collapse into one
 * extent and would time O(runs) bookkeeping, not per-page work.
 */
void
touchMicro(long npages)
{
    sim::SimContext ctx(42);
    mem::FrameStore store;
    const auto touchEveryOther = [](mem::AddressSpace &space,
                                    mem::PageIndex va, long n) {
        long touched = 0;
        for (long i = 0; i < n; i += 2) {
            space.touch(va + static_cast<mem::PageIndex>(i), /*write=*/true);
            ++touched;
        }
        return touched;
    };

    const auto start = Clock::now();
    long touched = 0;
    for (int round = 0; round < 4; ++round) {
        mem::AddressSpace parent(ctx, store, "perf-parent");
        const mem::PageIndex va = parent.mapAnon(
            static_cast<std::size_t>(npages), true, "heap");
        touched += touchEveryOther(parent, va, npages);
        auto child = parent.forkCow("perf-child");
        touched += touchEveryOther(*child, va, npages);
        child->unmap(va);
        parent.unmap(va);
    }
    results.push_back(
        {"touch+fork+cow+unmap", touched, secondsSince(start), "pages"});
}

/**
 * Fleet sweep: a share-nothing fleet of independent machines, each
 * running its own sfork boot loop, fanned out over @p workers threads —
 * the same shape the parallel FleetDriver uses for epoch serving. The
 * serial/parallel wall-clock ratio is the simulator's thread-scaling
 * figure of merit.
 */
double
fleetSweep(long boots_per_machine, int machines, int workers)
{
    const apps::AppProfile &app = apps::appByName("ds-text");
    std::vector<std::unique_ptr<sandbox::Machine>> fleet;
    std::vector<std::unique_ptr<platform::ServerlessPlatform>> plats;
    for (int m = 0; m < machines; ++m) {
        fleet.push_back(std::make_unique<sandbox::Machine>(42 + m));
        plats.push_back(std::make_unique<platform::ServerlessPlatform>(
            *fleet.back(), platform::PlatformConfig{
                               platform::BootStrategy::CatalyzerFork}));
        plats.back()->prepare(app); // template built off-timer
    }

    sim::ParallelExecutor exec(workers);
    const auto start = Clock::now();
    exec.forEach(static_cast<std::size_t>(machines),
                 [&](std::size_t m) {
                     for (long i = 0; i < boots_per_machine; ++i)
                         plats[m]->invoke(app.name);
                 });
    const double wall = secondsSince(start);

    char label[64];
    std::snprintf(label, sizeof(label), "fleet sfork (%d workers)",
                  workers);
    results.push_back({label,
                       boots_per_machine * static_cast<long>(machines),
                       wall, "boots"});
    return wall;
}

} // namespace

int
main()
{
    bench::banner("Perf: simulator throughput",
                  "Wall-clock boots/sec and page-touch throughput of "
                  "the simulator (not virtual-clock latencies).");

    const long fork_boots = envLong("PERF_FORK_BOOTS", 1000);
    const long warm_boots = envLong("PERF_WARM_BOOTS", 200);
    const long cold_boots = envLong("PERF_COLD_BOOTS", 50);
    const long touch_pages = envLong("PERF_TOUCH_PAGES", 262144);
    const long min_fork_rate = envLong("PERF_MIN_FORK_BOOTS_PER_SEC", 0);
    const long fleet_boots = envLong("PERF_FLEET_BOOTS", 400);
    const int fleet_machines =
        static_cast<int>(envLong("PERF_FLEET_MACHINES", 8));
    const int fleet_workers =
        static_cast<int>(envLong("PERF_FLEET_WORKERS", 8));
    const double min_speedup =
        bench::envDouble("PERF_MIN_FLEET_SPEEDUP", 0.0);

    const auto total_start = Clock::now();
    const double fork_wall = sforkSweep(fork_boots);
    warmSweep(warm_boots);
    coldSweep(cold_boots);
    touchMicro(touch_pages);
    const double serial_wall =
        fleetSweep(fleet_boots, fleet_machines, 1);
    const double parallel_wall =
        fleetSweep(fleet_boots, fleet_machines, fleet_workers);
    const double total_wall = secondsSince(total_start);

    sim::TextTable table("Simulator wall-clock throughput");
    table.setHeader({"sweep", "items", "wall", "rate"});
    for (const SweepResult &r : results) {
        table.addRow({r.name, std::to_string(r.items) + " " + r.unit,
                      fmtSecs(r.wallSec),
                      fmtRate(static_cast<double>(r.items) /
                              (r.wallSec > 0.0 ? r.wallSec : 1e-9))});
    }
    table.print();

    const double fork_rate =
        static_cast<double>(fork_boots) /
        (fork_wall > 0.0 ? fork_wall : 1e-9);
    const double speedup =
        serial_wall / (parallel_wall > 0.0 ? parallel_wall : 1e-9);
    std::printf("\ntotal wall time: %.3f s\n", total_wall);
    std::printf("sfork sweep: %.1f boots/sec\n", fork_rate);
    std::printf("fleet sweep: %d machines x %ld boots, %d workers: "
                "%.2fx speedup over 1 worker (%u hardware threads)\n",
                fleet_machines, fleet_boots, fleet_workers, speedup,
                std::thread::hardware_concurrency());

    if (min_fork_rate > 0 &&
        fork_rate < static_cast<double>(min_fork_rate)) {
        std::printf("FAIL: sfork sweep below the floor of %ld "
                    "boots/sec\n", min_fork_rate);
        return 1;
    }
    if (min_speedup > 0.0 && speedup < min_speedup) {
        std::printf("FAIL: fleet sweep speedup %.2fx below the floor "
                    "of %.2fx\n", speedup, min_speedup);
        return 1;
    }
    std::printf("note: wall-clock numbers vary with host load; the CI "
                "gate uses a\n      generous floor and only catches "
                "order-of-magnitude regressions.\n");
    return 0;
}
