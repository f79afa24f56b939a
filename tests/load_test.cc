/**
 * @file
 * Tests for the fleet traffic engine (src/load/): arrival generators,
 * population synthesis, the fleet replay driver and the autoscaler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "load/arrival.h"
#include "load/driver.h"
#include "load/traffic.h"

namespace catalyzer::load {
namespace {

using namespace sim::time_literals;

//
// Arrival generators.
//

TEST(ArrivalTest, PoissonMatchesManualExponentialAccumulation)
{
    // The generator's schedule is pinned: t += exponential(1/rate) on
    // one Rng, times in order.
    sim::Rng rng(99);
    std::vector<double> times;
    appendPoissonTimes(rng, 25.0, 10.0, times);

    sim::Rng manual(99);
    std::vector<double> expect;
    for (double t = manual.exponential(1.0 / 25.0); t < 10.0;
         t += manual.exponential(1.0 / 25.0))
        expect.push_back(t);
    ASSERT_EQ(times.size(), expect.size());
    for (std::size_t i = 0; i < times.size(); ++i)
        EXPECT_DOUBLE_EQ(times[i], expect[i]);
}

TEST(ArrivalTest, PoissonArrivalsDeterministicAndTagged)
{
    // A catalog population's head arrives as per-function Poisson
    // streams: the same spec draws the same tape, and every arrival is
    // tagged with the function it belongs to.
    const Population pop(
        {&apps::appByName("ds-text"), &apps::appByName("ds-media")}, 40.0);
    TrafficSpec traffic;
    traffic.durationSec = 5.0;
    traffic.seed = 7;
    const auto first = generateFleetStream(pop, traffic);
    const auto second = generateFleetStream(pop, traffic);
    ASSERT_EQ(first.size(), second.size());
    EXPECT_GT(first.size(), 0u);
    std::size_t per_fn[2] = {0, 0};
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_DOUBLE_EQ(first[i].atSec, second[i].atSec);
        EXPECT_EQ(first[i].fn, second[i].fn);
        EXPECT_EQ(first[i].workflow, -1);
        ASSERT_LT(first[i].fn, 2u);
        ++per_fn[first[i].fn];
    }
    // Rank 0 carries twice rank 1's share at skew 1.
    EXPECT_GT(per_fn[0], per_fn[1]);
    EXPECT_GT(per_fn[1], 0u);
}

TEST(ArrivalTest, MmppHitsConfiguredMeanRate)
{
    // 1 s bursts, 9 s gaps, 10% of the volume served between bursts.
    const auto params = MmppParams::withMeanRate(10.0, 1.0, 9.0);
    // The long-run mean rate, as MmppParams documents it.
    const double mean =
        (params.onRate * params.meanOnSec +
         params.offRate * params.meanOffSec) /
        (params.meanOnSec + params.meanOffSec);
    EXPECT_NEAR(mean, 10.0, 1e-9);
    // Bursty by construction: the on-rate well above the mean.
    EXPECT_GT(params.onRate, 2.0 * mean);

    sim::Rng rng(11);
    std::vector<double> times;
    appendMmppTimes(rng, params, 2000.0, times);
    const double empirical = static_cast<double>(times.size()) / 2000.0;
    EXPECT_NEAR(empirical, 10.0, 1.5);
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_GE(times[i], times[i - 1]);
}

TEST(ArrivalTest, MmppZeroDwellsProduceNothing)
{
    // Degenerate dwell times must not hang the generator.
    MmppParams params;
    params.onRate = 50.0;
    params.offRate = 0.0;
    params.meanOnSec = 0.0;
    params.meanOffSec = 0.0;
    sim::Rng rng(1);
    std::vector<double> times;
    appendMmppTimes(rng, params, 10.0, times);
    EXPECT_TRUE(times.empty());
}

TEST(ArrivalTest, DiurnalIntegratesToBaseRateOverFullPeriods)
{
    DiurnalCurve curve;
    curve.baseRate = 20.0;
    curve.amplitude = 0.8;
    curve.periodSec = 10.0;
    curve.phase = 0.0;

    sim::Rng rng(5);
    std::vector<double> times;
    appendDiurnalTimes(rng, curve, 100.0, times); // 10 full periods
    const double empirical = static_cast<double>(times.size()) / 100.0;
    EXPECT_NEAR(empirical, 20.0, 3.0);

    // The curve must actually modulate: the half-periods around the
    // peak carry visibly more arrivals than the troughs.
    std::size_t peak = 0, trough = 0;
    for (double t : times) {
        const double phase = t - 10.0 * std::floor(t / 10.0);
        (phase < 5.0 ? peak : trough)++;
    }
    EXPECT_GT(static_cast<double>(peak),
              1.5 * static_cast<double>(trough));
}

//
// Zipf rank shuffle.
//

TEST(WorkloadZipfTest, ShuffleSeedPermutesRanksDeterministically)
{
    // A synthetic population's popularity rank is a seeded permutation
    // of creation order: the same seed repeats it, another seed moves
    // it, and the share multiset is the same either way.
    PopulationSpec spec;
    spec.functions = 6;
    spec.tenants = 2;
    spec.totalRps = 60.0;
    spec.seed = 9;
    const Population shuffled(spec);
    const Population shuffled2(spec);
    spec.seed = 10;
    const Population other(spec);

    double total = 0.0;
    std::vector<double> shares, other_shares;
    bool any_moved = false;
    for (std::size_t i = 0; i < spec.functions; ++i) {
        total += shuffled.fn(i).baseRps;
        EXPECT_EQ(shuffled.fn(i).rank, shuffled2.fn(i).rank);
        EXPECT_DOUBLE_EQ(shuffled.fn(i).baseRps, shuffled2.fn(i).baseRps);
        any_moved |= shuffled.fn(i).rank != other.fn(i).rank;
        shares.push_back(shuffled.fn(i).baseRps);
        other_shares.push_back(other.fn(i).baseRps);
    }
    EXPECT_NEAR(total, 60.0, 1e-9);
    EXPECT_TRUE(any_moved);
    std::sort(shares.begin(), shares.end());
    std::sort(other_shares.begin(), other_shares.end());
    EXPECT_EQ(shares, other_shares);
}

//
// Population + merged stream.
//

TEST(PopulationTest, ZipfSharesSumToTotalAndNamesAreTenantScoped)
{
    PopulationSpec spec;
    spec.functions = 50;
    spec.tenants = 5;
    spec.totalRps = 500.0;
    const Population pop(spec);

    double total = 0.0;
    for (const FleetFunction &fn : pop.functions()) {
        total += fn.baseRps;
        EXPECT_EQ(fn.name.rfind(Population::tenantName(fn.tenant) + "/",
                                0),
                  0u);
        EXPECT_LT(fn.rank, spec.functions);
    }
    EXPECT_NEAR(total, 500.0, 1e-6);
}

TEST(TrafficTest, FleetStreamDeterministicSortedAndInRange)
{
    PopulationSpec pspec;
    pspec.functions = 40;
    pspec.tenants = 4;
    pspec.totalRps = 200.0;
    const Population pop(pspec);

    TrafficSpec traffic;
    traffic.scenario = Scenario::Steady;
    traffic.durationSec = 5.0;
    traffic.seed = 21;

    const auto first = generateFleetStream(pop, traffic);
    const auto second = generateFleetStream(pop, traffic);
    ASSERT_EQ(first.size(), second.size());
    EXPECT_GT(first.size(), 500u);
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_DOUBLE_EQ(first[i].atSec, second[i].atSec);
        EXPECT_EQ(first[i].fn, second[i].fn);
        EXPECT_LT(first[i].fn, pop.size());
        EXPECT_GE(first[i].atSec, 0.0);
        EXPECT_LT(first[i].atSec, traffic.durationSec);
        if (i > 0) {
            EXPECT_GE(first[i].atSec, first[i - 1].atSec);
        }
    }
}

TEST(TrafficTest, FlashCrowdLightsUpTheColdestRanks)
{
    PopulationSpec pspec;
    pspec.functions = 40;
    pspec.tenants = 4;
    pspec.totalRps = 100.0;
    const Population pop(pspec);

    TrafficSpec traffic;
    traffic.scenario = Scenario::FlashCrowd;
    traffic.durationSec = 10.0;
    traffic.flashAtSec = 5.0;
    traffic.flashRampSec = 1.0;
    traffic.flashHoldSec = 2.0;
    traffic.flashFunctions = 8;
    traffic.flashRpsPerFunction = 20.0;

    const auto stream = generateFleetStream(pop, traffic);
    std::size_t flash_hits = 0;
    for (const FleetArrival &arrival : stream) {
        const FleetFunction &fn = pop.fn(arrival.fn);
        const bool coldest = fn.rank + traffic.flashFunctions >=
                             pspec.functions;
        if (coldest && arrival.atSec >= traffic.flashAtSec)
            ++flash_hits;
    }
    // 8 functions x 20 rps over the ~3s flash envelope.
    EXPECT_GT(flash_hits, 200u);
}

//
// Fleet driver + autoscaler on a real (small) cluster.
//

platform::Cluster
makeCluster(std::size_t machines)
{
    platform::PlatformConfig pconf;
    pconf.strategy = platform::BootStrategy::CatalyzerAuto;
    pconf.reuseIdleInstances = true;
    return platform::Cluster(machines,
                             platform::PlacementPolicy::RoundRobin,
                             pconf);
}

Population
makePopulation(std::size_t functions, double rps)
{
    PopulationSpec spec;
    spec.functions = functions;
    spec.tenants = 3;
    spec.totalRps = rps;
    return Population(spec);
}

TEST(FleetDriverTest, ReplayIsDeterministicAcrossFreshClusters)
{
    const Population pop = makePopulation(10, 40.0);
    TrafficSpec traffic;
    traffic.durationSec = 3.0;
    FleetRunConfig config;
    config.policy.keepAliveTtl = 500_ms;
    config.policy.reactiveRebalance = false;

    platform::Cluster a = makeCluster(2);
    platform::Cluster b = makeCluster(2);
    const FleetReport ra = FleetDriver(a, pop).run(traffic, config);
    const FleetReport rb = FleetDriver(b, pop).run(traffic, config);

    EXPECT_GT(ra.requests, 0u);
    EXPECT_EQ(ra.requests, rb.requests);
    EXPECT_EQ(ra.boots, rb.boots);
    EXPECT_EQ(ra.reuses, rb.reuses);
    EXPECT_EQ(ra.expired, rb.expired);
    EXPECT_EQ(ra.tierCounts, rb.tierCounts);
    EXPECT_DOUBLE_EQ(ra.endToEnd.percentile(99),
                     rb.endToEnd.percentile(99));
    EXPECT_DOUBLE_EQ(ra.machineSeconds, rb.machineSeconds);
}

TEST(FleetDriverTest, AccountingInvariantsAndKeepAliveExpiry)
{
    const Population pop = makePopulation(12, 30.0);
    TrafficSpec traffic;
    traffic.durationSec = 4.0;
    FleetRunConfig config;
    config.policy.keepAliveTtl = 200_ms; // thin tail traffic expires
    config.policy.reactiveRebalance = false;

    platform::Cluster cluster = makeCluster(2);
    const FleetReport report =
        FleetDriver(cluster, pop).run(traffic, config);

    EXPECT_EQ(report.boots + report.reuses, report.requests);
    EXPECT_EQ(report.endToEnd.count(), report.requests);
    EXPECT_EQ(report.e2eMsWindows.totalCount(), report.requests);
    EXPECT_GT(report.expired, 0u);
    std::size_t tier_total = 0, tenant_total = 0;
    for (const auto &[tier, count] : report.tierCounts)
        tier_total += count;
    for (const auto &[tenant, count] : report.tenantRequests)
        tenant_total += count;
    EXPECT_EQ(tier_total, report.requests);
    EXPECT_EQ(tenant_total, report.requests);
    // Both machines ran through the whole nominal window.
    EXPECT_GE(report.machineSeconds, 2.0 * traffic.durationSec - 1e-6);
    EXPECT_GT(report.avgResidentMiB, 0.0);
    EXPECT_GE(report.peakResidentMiB, report.avgResidentMiB);
}

TEST(FleetDriverTest, InstanceLoadsMatchPerMachinePoolSums)
{
    const Population pop = makePopulation(12, 30.0);
    TrafficSpec traffic;
    traffic.durationSec = 3.0;
    FleetRunConfig config;
    config.policy.keepAliveTtl = 200_ms;

    platform::Cluster cluster = makeCluster(3);
    const FleetReport report =
        FleetDriver(cluster, pop).run(traffic, config);
    ASSERT_GT(report.requests, 0u);

    const std::vector<std::size_t> loads = cluster.instanceLoads();
    ASSERT_EQ(loads.size(), cluster.machineCount());
    std::size_t total = 0;
    for (std::size_t m = 0; m < cluster.machineCount(); ++m) {
        std::size_t sum = 0;
        for (const FleetFunction &fn : pop.functions())
            sum += cluster.platform(m).runningCount(fn.name);
        EXPECT_EQ(loads[m], sum) << "machine " << m;
        total += sum;
    }
    EXPECT_GT(total, 0u); // keep-alive instances are still parked
}

TEST(FleetDriverTest, PureKeepAliveNeverForksButAutoscalerDoes)
{
    const Population pop = makePopulation(8, 60.0);
    TrafficSpec traffic;
    traffic.durationSec = 3.0;

    FleetRunConfig keepalive;
    keepalive.policy.keepAliveTtl = 200_ms;
    keepalive.policy.reactiveRebalance = false;
    keepalive.policy.predictivePrewarm = false;
    platform::Cluster ka = makeCluster(2);
    const FleetReport ka_report =
        FleetDriver(ka, pop).run(traffic, keepalive);
    EXPECT_EQ(ka_report.tierCounts.count("sfork"), 0u);
    EXPECT_EQ(ka_report.tierCounts.count("remote-sfork"), 0u);
    EXPECT_EQ(ka_report.policy.rebalanceActions, 0u);
    EXPECT_EQ(ka_report.policy.prewarmBuilds, 0u);

    // Short TTL: mid-rank functions miss keep-alive between hits, so
    // their boots exercise the templates the autoscaler builds.
    FleetRunConfig prewarm;
    prewarm.policy.keepAliveTtl = 200_ms;
    prewarm.policy.reactiveRebalance = true;
    prewarm.policy.predictivePrewarm = true;
    prewarm.policy.prewarmRateRps = 2.0;
    platform::Cluster pw = makeCluster(2);
    const FleetReport pw_report =
        FleetDriver(pw, pop).run(traffic, prewarm);
    EXPECT_GT(pw_report.policy.prewarmBuilds, 0u);
    EXPECT_GT(pw_report.tierCounts.count("sfork") +
                  pw_report.tierCounts.count("remote-sfork"),
              0u);
}

TEST(FleetAutoscalerTest, PrewarmTriggersOnEwmaAndCountsFalsePositives)
{
    const Population pop = makePopulation(6, 10.0);
    platform::Cluster cluster = makeCluster(2);

    FleetPolicyConfig config;
    config.predictivePrewarm = true;
    config.prewarmRateRps = 4.0;
    config.reactiveRebalance = false;
    config.keepAliveTtl = sim::SimTime::zero();
    FleetAutoscaler scaler(cluster, pop, config);

    // 10 arrivals of function 0 on machine 0 inside one 500 ms tick:
    // a 20 req/s tick rate moves the EWMA from 0 to 0.35 * 20 = 7 req/s,
    // already past the 4 req/s trigger on this first tick.
    for (int i = 0; i < 10; ++i)
        scaler.observeArrival(0, 0);
    scaler.tick(500_ms);

    EXPECT_EQ(scaler.counters().prewarmTriggers, 1u);
    EXPECT_EQ(scaler.counters().prewarmBuilds, 1u);
    EXPECT_NE(cluster.platform(0).registry().find(pop.fn(0).name)
                  ->templateSandbox,
              nullptr);
    // The build was published to the cluster's template directory, so
    // placement can route to the holder before the first serve.
    EXPECT_FALSE(cluster.registry().templateHolders(pop.fn(0).name)
                     .empty());

    // The burst never materializes and no sfork is ever served: the
    // end-of-run sweep books the build as a false positive.
    scaler.finalize();
    EXPECT_EQ(scaler.counters().prewarmFalsePositives, 1u);
}

TEST(FleetAutoscalerTest, ServedSforkIsNotAFalsePositive)
{
    const Population pop = makePopulation(6, 10.0);
    platform::Cluster cluster = makeCluster(2);

    FleetPolicyConfig config;
    config.predictivePrewarm = true;
    config.prewarmRateRps = 4.0;
    config.reactiveRebalance = false;
    config.keepAliveTtl = sim::SimTime::zero();
    FleetAutoscaler scaler(cluster, pop, config);

    for (int i = 0; i < 10; ++i)
        scaler.observeArrival(0, 0); // EWMA 7 req/s after one tick
    scaler.tick(500_ms);
    ASSERT_EQ(scaler.counters().prewarmBuilds, 1u);

    // The predicted burst arrives and forks from the template.
    const platform::ClusterInvocation done =
        cluster.invokeOn(0, pop.fn(0).name);
    EXPECT_EQ(done.record.tierServed, "sfork");
    scaler.afterInvoke(0, 0, done.record);
    EXPECT_EQ(scaler.counters().prewarmServedSforks, 1u);

    scaler.finalize();
    EXPECT_EQ(scaler.counters().prewarmFalsePositives, 0u);
}

TEST(FleetAutoscalerTest, MemoryPressureShrinksThenRegrowsTemplateBudget)
{
    const Population pop = makePopulation(3, 10.0);
    // Retained (not keep-alive) instances: the pressure pass's idle
    // eviction cannot shed them, so resident memory stays put until
    // the test tears them down.
    platform::PlatformConfig pconf;
    pconf.strategy = platform::BootStrategy::CatalyzerAuto;
    platform::Cluster cluster(1, platform::PlacementPolicy::RoundRobin,
                              pconf);
    pop.deployTo(cluster);
    platform::ServerlessPlatform &plat = cluster.platform(0);
    cluster.invokeOn(0, pop.fn(0).name);
    const std::size_t resident = plat.residentBytes();
    ASSERT_GT(resident, 0u);

    // One instance fills the whole resident budget: past the 90 % mark.
    FleetPolicyConfig config;
    config.reactiveRebalance = true;
    config.keepAliveTtl = sim::SimTime::zero();
    config.machineResidentBudgetBytes = resident;
    const std::size_t ceiling = config.perMachine.templateMemoryBudgetBytes;
    FleetAutoscaler scaler(cluster, pop, config);
    auto budget = [&] {
        return scaler.manager(0).config().templateMemoryBudgetBytes;
    };

    scaler.tick(500_ms);
    EXPECT_EQ(scaler.counters().pressureBudgetShrinks, 1u);
    EXPECT_EQ(budget(), ceiling / 2);
    scaler.tick(1000_ms);
    EXPECT_EQ(budget(), ceiling / 4);
    // The quarter is the floor: pressure that persists shrinks no more.
    scaler.tick(1500_ms);
    EXPECT_EQ(scaler.counters().pressureBudgetShrinks, 2u);
    EXPECT_EQ(budget(), ceiling / 4);

    // Resident memory falls below half the high-water mark: the budget
    // doubles back each tick up to the configured ceiling.
    plat.teardown(pop.fn(0).name);
    ASSERT_EQ(plat.residentBytes(), 0u);
    scaler.tick(2000_ms);
    EXPECT_EQ(budget(), ceiling / 2);
    scaler.tick(2500_ms);
    EXPECT_EQ(budget(), ceiling);
    scaler.tick(3000_ms);
    EXPECT_EQ(budget(), ceiling);
    EXPECT_EQ(scaler.counters().pressureBudgetShrinks, 2u);
}

//
// Parallel replay determinism: the worker-thread count must never
// change a report or a trace, byte for byte.
//

struct FleetRun
{
    std::string reportJson;
    std::string fleetTrace;
};

FleetRun
runShareNothingFleet(int threads)
{
    const Population pop = makePopulation(14, 60.0);
    TrafficSpec traffic;
    traffic.scenario = Scenario::FlashCrowd;
    traffic.durationSec = 4.0;
    traffic.flashAtSec = 2.0;
    traffic.flashRampSec = 0.5;
    traffic.flashHoldSec = 1.0;
    traffic.flashFunctions = 4;
    traffic.flashRpsPerFunction = 15.0;
    FleetRunConfig config;
    config.policy.keepAliveTtl = 300_ms;
    config.policy.reactiveRebalance = true;
    config.policy.predictivePrewarm = true;
    config.policy.prewarmRateRps = 2.0;
    config.simThreads = threads;

    platform::Cluster cluster = makeCluster(4);
    EXPECT_TRUE(cluster.shareNothing());
    const FleetReport report =
        FleetDriver(cluster, pop).run(traffic, config);
    EXPECT_GT(report.requests, 0u);

    FleetRun out;
    std::ostringstream rep, trace;
    report.writeJson(rep);
    cluster.exportFleetTrace(trace);
    out.reportJson = rep.str();
    out.fleetTrace = trace.str();
    return out;
}

TEST(FleetDriverTest, ThreadCountDoesNotChangeReportOrTrace)
{
    const FleetRun one = runShareNothingFleet(1);
    const FleetRun two = runShareNothingFleet(2);
    const FleetRun eight = runShareNothingFleet(8);
    // Byte-identical across 1, 2 and 8 workers: routing and report
    // folds run in stream order off the workers, per-machine serving
    // is share-nothing, and trace ids are pinned to tape positions.
    EXPECT_EQ(one.reportJson, two.reportJson);
    EXPECT_EQ(one.reportJson, eight.reportJson);
    EXPECT_EQ(one.fleetTrace, two.fleetTrace);
    EXPECT_EQ(one.fleetTrace, eight.fleetTrace);
}

TEST(FleetDriverTest, SameInstantArrivalsServeInTapeOrder)
{
    // Five arrivals of one function at one instant all route to its
    // home machine, which serves them back to back in tape order: each
    // waits for every earlier one, so queue wait rises strictly along
    // the tape. Serving a machine's list in any other order breaks it.
    const Population pop = makePopulation(4, 10.0);
    const std::vector<FleetArrival> tape(5, FleetArrival{0.25, 1});
    auto run = [&](int threads) {
        FleetRunConfig config;
        config.simThreads = threads;
        platform::PlatformConfig pconf;
        pconf.strategy = platform::BootStrategy::CatalyzerAuto;
        pconf.reuseIdleInstances = true;
        platform::Cluster cluster(
            2, platform::PlacementPolicy::FunctionAffinity, pconf);
        EXPECT_TRUE(cluster.shareNothing());
        const FleetReport report =
            FleetDriver(cluster, pop).run(tape, 1.0, config);
        const std::vector<double> &wait = report.queueWait.raw();
        EXPECT_EQ(wait.size(), tape.size());
        for (std::size_t i = 1; i < wait.size(); ++i) {
            EXPECT_LT(wait[i - 1], wait[i])
                << "arrival " << i << " at " << threads << " workers";
        }
        std::ostringstream rep;
        report.writeJson(rep);
        return rep.str();
    };
    EXPECT_EQ(run(1), run(2));
}

TEST(FleetDriverTest, CoupledFleetIsDeterministicForAnyThreadCount)
{
    // remote-sfork couples machines mid-boot, so the driver must
    // refuse to fan out and replay sequentially whatever simThreads
    // says — same tape, same bytes.
    auto run = [](int threads) {
        const Population pop = makePopulation(10, 50.0);
        TrafficSpec traffic;
        traffic.durationSec = 3.0;
        FleetRunConfig config;
        config.policy.keepAliveTtl = 300_ms;
        config.simThreads = threads;

        net::FabricConfig fabric;
        fabric.modelTransfers = true;
        fabric.remoteFork = true;
        platform::PlatformConfig pconf;
        pconf.strategy = platform::BootStrategy::CatalyzerAuto;
        pconf.reuseIdleInstances = true;
        platform::Cluster cluster(
            2, platform::PlacementPolicy::NetworkAware, pconf, {},
            sim::CostModel{}, 42, fabric);
        EXPECT_FALSE(cluster.shareNothing());
        const FleetReport report =
            FleetDriver(cluster, pop).run(traffic, config);
        std::ostringstream rep, trace;
        report.writeJson(rep);
        cluster.exportFleetTrace(trace);
        return rep.str() + trace.str();
    };
    EXPECT_EQ(run(1), run(8));
}

TEST(FleetDriverTest, SimThreadsZeroReadsEnvironmentKnob)
{
    // The default (0) resolves through CATALYZER_SIM_THREADS and must
    // match an explicit thread count bit for bit.
    ::setenv("CATALYZER_SIM_THREADS", "3", 1);
    const FleetRun env_run = runShareNothingFleet(0);
    ::unsetenv("CATALYZER_SIM_THREADS");
    const FleetRun explicit_run = runShareNothingFleet(3);
    EXPECT_EQ(env_run.reportJson, explicit_run.reportJson);
    EXPECT_EQ(env_run.fleetTrace, explicit_run.fleetTrace);
}

} // namespace
} // namespace catalyzer::load
