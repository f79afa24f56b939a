/**
 * @file
 * Figure 15: startup latency as the number of already-running instances
 * grows from 0 to 1000, for gVisor-restore and Catalyzer (fork boot),
 * on both the experimental machine and the server profile
 * (Catalyzer-Indus).
 *
 * Paper anchor: Catalyzer stays below 10 ms at 1000 running instances.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "platform/platform.h"
#include "sim/table.h"

using namespace catalyzer;

namespace {

/** Boot latency at each instance-count step, booting up to 1000. */
std::vector<double>
sweep(platform::BootStrategy strategy,
      const std::vector<std::size_t> &steps, bool server_profile)
{
    sandbox::Machine machine(
        42, server_profile ? sim::CostModel::serverProfile()
                           : sim::CostModel{});
    platform::ServerlessPlatform plat(machine,
                                      platform::PlatformConfig{strategy});
    const apps::AppProfile &app = apps::appByName("ds-text");
    plat.prepare(app);

    std::vector<double> out;
    std::size_t booted = 0;
    for (std::size_t target : steps) {
        while (booted < target) {
            plat.invoke(app.name);
            ++booted;
        }
        // Measure the next boot with `target` instances running.
        const auto rec = plat.invoke(app.name);
        ++booted;
        out.push_back(rec.bootLatency.toMs());
    }
    return out;
}

} // namespace

int
main()
{
    bench::banner("Figure 15",
                  "Startup latency (ms) of the DeathStar text service "
                  "with 0-1000 running instances.");

    const std::vector<std::size_t> steps = {0,   50,  100, 200, 300, 400,
                                            500, 600, 700, 800, 900, 1000};
    const auto gvr =
        sweep(platform::BootStrategy::GVisorRestore, steps, false);
    const auto cat =
        sweep(platform::BootStrategy::CatalyzerFork, steps, false);
    const auto indus =
        sweep(platform::BootStrategy::CatalyzerFork, steps, true);

    sim::TextTable table("Boot latency vs running instances");
    table.setHeader({"running", "gVisor-restore", "Catalyzer",
                     "Catalyzer-Indus"});
    for (std::size_t i = 0; i < steps.size(); ++i) {
        table.addRow({std::to_string(steps[i]), sim::fmtMs(gvr[i]),
                      sim::fmtMs(cat[i]), sim::fmtMs(indus[i])});
    }
    table.print();

    double cat_max = 0.0;
    for (double v : cat)
        cat_max = std::max(cat_max, v);
    std::printf("\nCatalyzer max over the sweep: %.2f ms (paper: <10 ms "
                "with 1000 instances)\n", cat_max);

    // Optional stress sweep beyond the paper's axis: FIG15_MAX_INSTANCES
    // instances (e.g. 10000) on the Catalyzer fork path, timed in host
    // wall-clock. Exercises the extent-based memory substrate at a
    // scale where the old per-page paths took minutes.
    const std::size_t max_instances =
        bench::envSize("FIG15_MAX_INSTANCES", 0);
    if (max_instances > 0) {
        const auto wall_start = std::chrono::steady_clock::now();
        const std::vector<std::size_t> big_steps =
            bench::sweepSteps(max_instances);
        const auto big =
            sweep(platform::BootStrategy::CatalyzerFork, big_steps, false);
        const double wall_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  wall_start)
                                  .count();
        // Each step boots up to its count, then the measured boot.
        const std::size_t boots = big_steps.back() + big_steps.size();
        std::printf("\nstress sweep to %zu instances:\n", max_instances);
        for (std::size_t i = 0; i < big_steps.size(); ++i)
            std::printf("  %6zu running: %s ms\n", big_steps[i],
                        sim::fmtMs(big[i]).c_str());
        std::printf("  wall-clock: %.2f s for %zu fork boots "
                    "(%.0f boots/sec)\n",
                    wall_s, boots, static_cast<double>(boots) / wall_s);
    }
    bench::footer();
    return 0;
}
