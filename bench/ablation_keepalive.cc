/**
 * @file
 * Ablation: keep-alive caching vs init-less booting under a skewed
 * workload (paper Sec. 2.2 and Sec. 6.9: "caching does not help with
 * the tail latency, which is dominated by the cold boot").
 *
 * A Zipf-distributed mix over the ten Fig. 11 functions runs against
 * four platform configurations, each a one-machine fleet replay; the
 * interesting column is p99/max, where keep-alive still pays full cold
 * boots for unlucky functions while Catalyzer's fork boot stays flat.
 *
 * Latency here is *service* latency (gateway + boot + exec), the
 * fleet's end-to-end sojourn minus its queue wait: one machine's
 * single virtual clock serializes requests, and the queue that builds
 * behind multi-second gVisor boots would otherwise swamp the boot
 * tiers this ablation compares.
 *
 * The run checks its own takeaway and exits 1 when it does not hold.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "load/driver.h"
#include "sim/table.h"

using namespace catalyzer;

namespace {

using namespace sim::time_literals;

struct Config
{
    const char *label;
    platform::BootStrategy strategy;
    bool keepAlive;
    sim::SimTime ttl;
};

struct Outcome
{
    load::FleetReport report;
    /** Per-request service latency: sojourn minus queue wait. */
    sim::LatencySeries service;
};

Outcome
run(const Config &config)
{
    const load::Population population(apps::figure11Apps(),
                                      /*total_rps=*/40.0);
    platform::PlatformConfig pc;
    pc.strategy = config.strategy;
    pc.reuseIdleInstances = config.keepAlive;
    platform::Cluster cluster(1, platform::PlacementPolicy::RoundRobin,
                              pc);
    for (const load::FleetFunction &fn : population.functions())
        cluster.prepareEverywhere(*fn.profile);

    load::TrafficSpec traffic;
    traffic.scenario = load::Scenario::Steady;
    traffic.durationSec = 8.0;
    traffic.seed = 7;

    load::FleetRunConfig run_config;
    // First contact pays one-time initialization, as on a fresh host.
    run_config.primeImages = false;
    run_config.policy.reactiveRebalance = false;
    run_config.policy.keepAliveTtl = config.ttl;
    // Never shed under memory pressure: instances retained by the
    // no-cache arms must not perturb the boot tiers being compared.
    run_config.policy.machineResidentBudgetBytes = std::size_t{1} << 40;

    Outcome out;
    out.report =
        load::FleetDriver(cluster, population).run(traffic, run_config);
    const std::vector<double> &sojourn = out.report.endToEnd.raw();
    const std::vector<double> &queued = out.report.queueWait.raw();
    for (std::size_t i = 0; i < sojourn.size(); ++i)
        out.service.addMs(sojourn[i] - queued[i]);
    return out;
}

} // namespace

int
main()
{
    bench::banner("Ablation: keep-alive vs init-less booting",
                  "Zipf mix over the 10 Fig. 11 functions, 40 rps for "
                  "8 s (virtual).");

    const Config configs[] = {
        {"gVisor, no cache", platform::BootStrategy::GVisor, false,
         sim::SimTime::zero()},
        {"gVisor + keep-alive (2s TTL)", platform::BootStrategy::GVisor,
         true, 2_s},
        {"Catalyzer warm restore", platform::BootStrategy::CatalyzerWarm,
         false, sim::SimTime::zero()},
        {"Catalyzer fork boot", platform::BootStrategy::CatalyzerFork,
         false, sim::SimTime::zero()},
    };

    sim::TextTable table("Service latency (ms) under load");
    table.setHeader({"configuration", "req", "boots", "reuses", "p50",
                     "p95", "p99", "max"});
    std::vector<Outcome> outcomes;
    for (const Config &config : configs) {
        outcomes.push_back(run(config));
        const Outcome &o = outcomes.back();
        table.addRow({config.label, std::to_string(o.report.requests),
                      std::to_string(o.report.boots),
                      std::to_string(o.report.reuses),
                      sim::fmtMs(o.service.percentile(50)),
                      sim::fmtMs(o.service.percentile(95)),
                      sim::fmtMs(o.service.percentile(99)),
                      sim::fmtMs(o.service.max())});
    }
    table.print();
    std::printf("\ntakeaway: keep-alive improves the median but the "
                "tail stays at full cold-boot\nlatency; fork boot is a "
                "sustainable hot boot (Sec. 6.9).\n\n");

    const sim::LatencySeries &no_cache = outcomes[0].service;
    const sim::LatencySeries &keep_alive = outcomes[1].service;
    const double fork_p99 = outcomes[3].service.percentile(99);
    bool fork_lowest = true;
    bool policy_quiet = true;
    for (const Outcome &o : outcomes) {
        fork_lowest &= fork_p99 <= o.service.percentile(99);
        const load::FleetPolicyCounters &c = o.report.policy;
        policy_quiet &= c.pressureEvictions == 0 &&
                        c.pressureImageDemotedBytes == 0 &&
                        c.rebalanceActions == 0 && c.prewarmBuilds == 0;
    }
    int failed = 0;
    failed += bench::failures(
        true, keep_alive.percentile(50) < no_cache.percentile(50),
        "keep-alive improves the median over no cache");
    failed += bench::failures(
        true, keep_alive.percentile(99) >= no_cache.percentile(50),
        "keep-alive p99 is still a cold boot (>= the no-cache median)");
    failed += bench::failures(true, fork_lowest,
                              "fork boot has the lowest p99");
    failed += bench::failures(
        true, policy_quiet,
        "no arm shed memory, rebalanced templates or prewarmed");
    bench::footer();
    return failed > 0 ? 1 : 0;
}
