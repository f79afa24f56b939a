/**
 * @file
 * Stateful function chaining: DAG workflows over shared COW state
 * regions, priced by placement.
 *
 * The experiment the stateful-serverless design hinges on: a chained
 * stage that lands on the machine already holding its input region
 * pays a warm in-memory hand-off and shared-base faults, while a
 * locality-blind placement pays marshal/dispatch, a fabric round trip
 * and the region streamed over per hop. Four sections quantify it:
 *
 *   hop micro     a 2-stage chain on 2 machines, locality-aware vs
 *                 blind round-robin: per-hop cost (hand-off + region
 *                 attach) local vs remote
 *   width/depth   pipeline-analytics fan-out and shopping-cart chain
 *                 length sweeps, aware vs blind end-to-end
 *   region size   the 2-stage chain as the region grows: transfer
 *                 cost scales with bytes, the local path does not
 *   locality A/B  a mixed scenario stream on 4 machines; the release
 *                 gate requires blind p99 >= aware p99 * margin
 *
 * plus a fleet-mix section that replays a workflow side stream through
 * the FleetDriver (the load-engine integration, sequential replay).
 *
 * Outputs:
 *   - fig_chain.json             per-section numbers + chain/state
 *                                counters for the schema check
 *   - fig_chain.timeseries.json  fleet-merged windowed series of the
 *                                aware A/B cluster (win.chain.e2e_ms)
 *
 * Scale knobs (env): CHAIN_RUNS, CHAIN_FLEET_FUNCTIONS,
 * CHAIN_FLEET_DURATION_SEC. CI smoke runs a reduced sweep; the release
 * gate (FIG_CHAIN_ASSERT=1) runs the defaults and turns the scripted
 * expectations into failures: locality-aware hops at least 5x cheaper
 * than blind ones, and blind p99 at least 1.2x aware p99 on the mix.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/app_profile.h"
#include "bench_util.h"
#include "load/driver.h"
#include "mem/types.h"
#include "sim/json.h"
#include "sim/metric_catalog.h"
#include "sim/table.h"
#include "workflow/scenarios.h"

using namespace catalyzer;
using bench::envDouble;
using bench::envSize;
using bench::failures;

namespace {

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

/** A fresh cluster for one measurement arm. */
std::unique_ptr<platform::Cluster>
makeCluster(std::size_t machines, bool locality_aware)
{
    net::FabricConfig fabric;
    fabric.modelTransfers = true;
    platform::PlatformConfig pconf;
    pconf.strategy = platform::BootStrategy::CatalyzerAuto;
    pconf.reuseIdleInstances = true;
    // The blind arm routes round-robin — the placement a scheduler
    // with no region-residency signal degenerates to under even load.
    const platform::PlacementPolicy policy =
        locality_aware ? platform::PlacementPolicy::NetworkAware
                       : platform::PlacementPolicy::RoundRobin;
    auto cluster = std::make_unique<platform::Cluster>(
        machines, policy, pconf, core::CatalyzerOptions{},
        sim::CostModel{}, 42, fabric);
    for (const std::string &name : workflow::scenarioFunctions()) {
        const apps::AppProfile &app = apps::appByName(name);
        cluster->deploy(app);
        cluster->prepareEverywhere(app);
    }
    return cluster;
}

/** Zero warm capacity between runs, so placement stays load-neutral. */
void
expireAll(platform::Cluster &cluster)
{
    for (std::size_t m = 0; m < cluster.machineCount(); ++m)
        cluster.platform(m).expireIdle(sim::SimTime::milliseconds(0.001));
}

/** produce -> consume through one shared region. */
workflow::WorkflowSpec
twoStageChain(std::size_t region_pages)
{
    workflow::WorkflowSpec spec;
    spec.name = "chain2";
    spec.regions.push_back({"chain/data", region_pages});
    workflow::StageSpec produce;
    produce.name = "produce";
    produce.function = "wf-ingest";
    produce.writes = {"chain/data"};
    spec.stages.push_back(produce);
    workflow::StageSpec consume;
    consume.name = "consume";
    consume.function = "wf-aggregate";
    consume.after = {"produce"};
    consume.reads = {"chain/data"};
    spec.stages.push_back(consume);
    return spec;
}

struct HopStats
{
    std::vector<double> consumeMs; ///< hop + state cost of stage 2
    std::size_t hopsLocal = 0;
    std::size_t hopsRemote = 0;
    std::size_t transferBytes = 0;
};

/** Run the 2-stage chain @p runs times and score the consume stage. */
HopStats
runHops(platform::Cluster &cluster, bool aware, std::size_t runs,
        std::size_t region_pages)
{
    workflow::WorkflowEngine engine(cluster,
                                    workflow::WorkflowOptions{aware});
    const workflow::WorkflowSpec spec = twoStageChain(region_pages);
    HopStats out;
    for (std::size_t r = 0; r < runs; ++r) {
        expireAll(cluster);
        const workflow::WorkflowResult result = engine.run(spec);
        const workflow::StageOutcome &consume = result.stages[1];
        out.consumeMs.push_back(
            (consume.hopLatency + consume.attachLatency).toMs());
        out.hopsLocal += result.hopsLocal;
        out.hopsRemote += result.hopsRemote;
        out.transferBytes += result.transferBytes;
    }
    return out;
}

struct AbStats
{
    sim::LatencySeries e2e;
    std::size_t hopsLocal = 0;
    std::size_t hopsRemote = 0;
    std::size_t transferBytes = 0;
    std::size_t cowFaults = 0;
};

/** Mixed scenario stream: alternate pipeline and cart workflows. */
AbStats
runMix(platform::Cluster &cluster, bool aware, std::size_t runs,
       std::size_t region_pages)
{
    workflow::WorkflowEngine engine(cluster,
                                    workflow::WorkflowOptions{aware});
    AbStats out;
    for (std::size_t r = 0; r < runs; ++r) {
        expireAll(cluster);
        const workflow::WorkflowSpec spec =
            r % 2 == 0
                ? workflow::pipelineAnalytics(4, region_pages)
                : workflow::shoppingCartSession(
                      3, std::max<std::size_t>(8, region_pages / 4),
                      "s" + std::to_string(r / 2));
        const workflow::WorkflowResult result = engine.run(spec);
        out.e2e.add(result.e2e);
        out.hopsLocal += result.hopsLocal;
        out.hopsRemote += result.hopsRemote;
        out.transferBytes += result.transferBytes;
        out.cowFaults += result.cowFaults;
    }
    return out;
}

/** The catalog's chain-artifact counters, in its order, zero when the
 *  run never touched one. */
void
writeCounters(std::ostream &os, const platform::Cluster &cluster)
{
    sim::StatRegistry fleet;
    cluster.mergeStats(fleet);
    os << "{";
    bool first = true;
    for (sim::CounterHandle counter : metrics::kChainArtifactCounters) {
        const std::string_view name = metrics::catalog()[counter.slot].name;
        os << (first ? "" : ", ") << "\"" << name
           << "\": " << fleet.value(counter);
        first = false;
    }
    os << "}";
}

} // namespace

int
main()
{
    bench::banner("fig_chain",
                  "Function-chaining DAG workflows over shared COW "
                  "state regions: hop cost, DAG shape and region size "
                  "vs placement locality");

    const std::size_t runs = envSize("CHAIN_RUNS", 40);
    const std::size_t region_pages = 256;
    const std::size_t machines = 4;
    const double local_advantage = 5.0;
    const double p99_margin = 1.2;

    std::printf("%zu runs per arm, %zu-page regions (%.0f KiB), %zu "
                "machines\n\n",
                runs, region_pages,
                static_cast<double>(mem::bytesForPages(region_pages)) /
                    1024.0,
                machines);

    //
    // 1. Hop micro: 2 machines, 2-stage chain.
    //
    auto hop_aware_cluster = makeCluster(2, true);
    auto hop_blind_cluster = makeCluster(2, false);
    const HopStats hop_aware =
        runHops(*hop_aware_cluster, true, runs, region_pages);
    const HopStats hop_blind =
        runHops(*hop_blind_cluster, false, runs, region_pages);
    const double local_ms = mean(hop_aware.consumeMs);
    const double remote_ms = mean(hop_blind.consumeMs);
    const double hop_ratio = local_ms > 0.0 ? remote_ms / local_ms : 0.0;
    std::printf("hop micro (consume-stage hand-off + region attach):\n"
                "  local  %.3f ms/hop (%zu local, %zu remote hops)\n"
                "  remote %.3f ms/hop (%zu local, %zu remote hops, "
                "%.0f KiB streamed)\n"
                "  remote/local ratio: %.1fx\n\n",
                local_ms, hop_aware.hopsLocal, hop_aware.hopsRemote,
                remote_ms, hop_blind.hopsLocal, hop_blind.hopsRemote,
                static_cast<double>(hop_blind.transferBytes) / 1024.0,
                hop_ratio);

    //
    // 2. DAG width and depth sweeps, aware vs blind e2e.
    //
    const std::size_t widths[] = {1, 2, 4, 8};
    sim::TextTable wtable("Pipeline analytics: fan-out width vs "
                          "placement (e2e ms, mean over runs)");
    wtable.setHeader({"fanout", "aware_ms", "blind_ms", "blind/aware"});
    struct SweepRow
    {
        std::size_t x;
        double aware, blind;
    };
    std::vector<SweepRow> width_rows, depth_rows;
    for (std::size_t fanout : widths) {
        auto aware_cluster = makeCluster(machines, true);
        auto blind_cluster = makeCluster(machines, false);
        workflow::WorkflowEngine aware_engine(
            *aware_cluster, workflow::WorkflowOptions{true});
        workflow::WorkflowEngine blind_engine(
            *blind_cluster, workflow::WorkflowOptions{false});
        std::vector<double> aware_ms, blind_ms;
        const workflow::WorkflowSpec spec =
            workflow::pipelineAnalytics(fanout, region_pages);
        for (std::size_t r = 0; r < runs; ++r) {
            expireAll(*aware_cluster);
            expireAll(*blind_cluster);
            aware_ms.push_back(aware_engine.run(spec).e2e.toMs());
            blind_ms.push_back(blind_engine.run(spec).e2e.toMs());
        }
        const SweepRow row{fanout, mean(aware_ms), mean(blind_ms)};
        width_rows.push_back(row);
        wtable.addRow({std::to_string(fanout), fmt(row.aware),
                       fmt(row.blind),
                       fmt(row.aware > 0 ? row.blind / row.aware : 0)});
    }
    wtable.print(std::cout);

    const std::size_t depths[] = {1, 2, 4, 8};
    sim::TextTable dtable("Shopping-cart session: chain depth vs "
                          "placement (e2e ms, mean over runs)");
    dtable.setHeader({"updates", "aware_ms", "blind_ms", "blind/aware"});
    for (std::size_t updates : depths) {
        auto aware_cluster = makeCluster(machines, true);
        auto blind_cluster = makeCluster(machines, false);
        workflow::WorkflowEngine aware_engine(
            *aware_cluster, workflow::WorkflowOptions{true});
        workflow::WorkflowEngine blind_engine(
            *blind_cluster, workflow::WorkflowOptions{false});
        std::vector<double> aware_ms, blind_ms;
        for (std::size_t r = 0; r < runs; ++r) {
            expireAll(*aware_cluster);
            expireAll(*blind_cluster);
            const workflow::WorkflowSpec spec =
                workflow::shoppingCartSession(
                    updates, std::max<std::size_t>(8, region_pages / 4),
                    "s" + std::to_string(r));
            aware_ms.push_back(aware_engine.run(spec).e2e.toMs());
            blind_ms.push_back(blind_engine.run(spec).e2e.toMs());
        }
        const SweepRow row{updates, mean(aware_ms), mean(blind_ms)};
        depth_rows.push_back(row);
        dtable.addRow({std::to_string(updates), fmt(row.aware),
                       fmt(row.blind),
                       fmt(row.aware > 0 ? row.blind / row.aware : 0)});
    }
    dtable.print(std::cout);

    //
    // 3. Region size sweep: the remote path scales with bytes.
    //
    const std::size_t sizes[] = {64, 256, 1024};
    sim::TextTable rtable("Region size vs consume-stage cost (ms/hop)");
    rtable.setHeader(
        {"pages", "KiB", "local_ms", "remote_ms", "remote/local"});
    struct RegionRow
    {
        std::size_t pages;
        double local, remote;
        std::size_t transferBytes;
    };
    std::vector<RegionRow> region_rows;
    for (std::size_t pages : sizes) {
        auto aware_cluster = makeCluster(2, true);
        auto blind_cluster = makeCluster(2, false);
        const HopStats a = runHops(*aware_cluster, true, runs, pages);
        const HopStats b = runHops(*blind_cluster, false, runs, pages);
        const RegionRow row{pages, mean(a.consumeMs), mean(b.consumeMs),
                            b.transferBytes};
        region_rows.push_back(row);
        rtable.addRow(
            {std::to_string(pages),
             fmt(static_cast<double>(mem::bytesForPages(pages)) / 1024.0),
             fmt(row.local), fmt(row.remote),
             fmt(row.local > 0 ? row.remote / row.local : 0)});
    }
    rtable.print(std::cout);

    //
    // 4. Locality A/B: mixed stream, tail latency.
    //
    auto ab_aware_cluster = makeCluster(machines, true);
    auto ab_blind_cluster = makeCluster(machines, false);
    const AbStats ab_aware =
        runMix(*ab_aware_cluster, true, runs, region_pages);
    const AbStats ab_blind =
        runMix(*ab_blind_cluster, false, runs, region_pages);
    const double aware_p99 = ab_aware.e2e.percentile(99);
    const double blind_p99 = ab_blind.e2e.percentile(99);
    std::printf("\nlocality A/B over the mixed stream (%zu workflows "
                "per arm):\n"
                "  aware p50 %.3f ms, p99 %.3f ms (%zu local / %zu "
                "remote hops)\n"
                "  blind p50 %.3f ms, p99 %.3f ms (%zu local / %zu "
                "remote hops, %.0f KiB streamed)\n",
                runs, ab_aware.e2e.percentile(50), aware_p99,
                ab_aware.hopsLocal, ab_aware.hopsRemote,
                ab_blind.e2e.percentile(50), blind_p99,
                ab_blind.hopsLocal, ab_blind.hopsRemote,
                static_cast<double>(ab_blind.transferBytes) / 1024.0);

    //
    // 5. Fleet mix: the workflow side stream through the FleetDriver.
    //
    load::PopulationSpec pop;
    pop.functions = envSize("CHAIN_FLEET_FUNCTIONS", 40);
    pop.tenants = 8;
    pop.totalRps = 80.0;
    pop.seed = 1;
    const load::Population population(pop);
    auto fleet_cluster = makeCluster(2, true);
    load::TrafficSpec traffic;
    traffic.durationSec = envDouble("CHAIN_FLEET_DURATION_SEC", 2.0);
    traffic.seed = 7;
    traffic.workflowRps = 6.0;
    traffic.workflowKinds = 2;
    load::FleetRunConfig config;
    config.policy.keepAliveTtl = sim::SimTime::seconds(1.0);
    config.policy.policyTick = sim::SimTime::milliseconds(500.0);
    config.workflows = {workflow::pipelineAnalytics(2, 64),
                        workflow::shoppingCartSession(2, 32)};
    load::FleetDriver driver(*fleet_cluster, population);
    const load::FleetReport fleet = driver.run(traffic, config);
    std::printf("\nfleet mix (%zu fns, %.0f rps + %.1f workflow/s, "
                "%.0f s):\n"
                "  %zu requests, %zu workflow runs, chain p99 %.3f ms, "
                "%zu local / %zu remote hops, %.0f KiB streamed\n",
                population.size(), pop.totalRps, traffic.workflowRps,
                traffic.durationSec, fleet.requests, fleet.workflowRuns,
                fleet.chainE2e.percentile(99), fleet.chainHopsLocal,
                fleet.chainHopsRemote,
                static_cast<double>(fleet.chainTransferBytes) / 1024.0);

    //
    // Artifacts.
    //
    {
        std::ofstream os("fig_chain.json");
        if (!os) {
            std::fprintf(stderr, "fig_chain: cannot write json\n");
            return 1;
        }
        os << "{\n  \"config\": {\"runs\": " << runs
           << ", \"region_pages\": " << region_pages
           << ", \"machines\": " << machines << "},\n  \"hop_micro\": "
           << "{\"local_ms\": ";
        sim::writeJsonNumber(os, local_ms);
        os << ", \"remote_ms\": ";
        sim::writeJsonNumber(os, remote_ms);
        os << ", \"ratio\": ";
        sim::writeJsonNumber(os, hop_ratio);
        os << ", \"aware_hops_local\": " << hop_aware.hopsLocal
           << ", \"aware_hops_remote\": " << hop_aware.hopsRemote
           << ", \"blind_hops_remote\": " << hop_blind.hopsRemote
           << ", \"blind_transfer_bytes\": " << hop_blind.transferBytes
           << "},\n  \"width_sweep\": [";
        bool first = true;
        for (const SweepRow &row : width_rows) {
            os << (first ? "" : ", ") << "{\"fanout\": " << row.x
               << ", \"aware_ms\": ";
            sim::writeJsonNumber(os, row.aware);
            os << ", \"blind_ms\": ";
            sim::writeJsonNumber(os, row.blind);
            os << "}";
            first = false;
        }
        os << "],\n  \"depth_sweep\": [";
        first = true;
        for (const SweepRow &row : depth_rows) {
            os << (first ? "" : ", ") << "{\"updates\": " << row.x
               << ", \"aware_ms\": ";
            sim::writeJsonNumber(os, row.aware);
            os << ", \"blind_ms\": ";
            sim::writeJsonNumber(os, row.blind);
            os << "}";
            first = false;
        }
        os << "],\n  \"region_sweep\": [";
        first = true;
        for (const RegionRow &row : region_rows) {
            os << (first ? "" : ", ") << "{\"pages\": " << row.pages
               << ", \"local_ms\": ";
            sim::writeJsonNumber(os, row.local);
            os << ", \"remote_ms\": ";
            sim::writeJsonNumber(os, row.remote);
            os << ", \"blind_transfer_bytes\": " << row.transferBytes
               << "}";
            first = false;
        }
        os << "],\n  \"locality_ab\": {\"aware_p50_ms\": ";
        sim::writeJsonNumber(os, ab_aware.e2e.percentile(50));
        os << ", \"aware_p99_ms\": ";
        sim::writeJsonNumber(os, aware_p99);
        os << ", \"blind_p50_ms\": ";
        sim::writeJsonNumber(os, ab_blind.e2e.percentile(50));
        os << ", \"blind_p99_ms\": ";
        sim::writeJsonNumber(os, blind_p99);
        os << ", \"aware_hops_local\": " << ab_aware.hopsLocal
           << ", \"aware_hops_remote\": " << ab_aware.hopsRemote
           << ", \"blind_hops_local\": " << ab_blind.hopsLocal
           << ", \"blind_hops_remote\": " << ab_blind.hopsRemote
           << "},\n  \"fleet_mix\": {\"requests\": " << fleet.requests
           << ", \"workflow_runs\": " << fleet.workflowRuns
           << ", \"chain_p99_ms\": ";
        sim::writeJsonNumber(os, fleet.chainE2e.percentile(99));
        os << ", \"hops_local\": " << fleet.chainHopsLocal
           << ", \"hops_remote\": " << fleet.chainHopsRemote
           << ", \"transfer_bytes\": " << fleet.chainTransferBytes
           << "},\n  \"counters_aware\": ";
        writeCounters(os, *ab_aware_cluster);
        os << ",\n  \"counters_blind\": ";
        writeCounters(os, *ab_blind_cluster);
        os << "\n}\n";
        std::printf("\nwrote fig_chain.json\n");
    }
    {
        std::ofstream os("fig_chain.timeseries.json");
        if (!os) {
            std::fprintf(stderr, "fig_chain: cannot write timeseries\n");
            return 1;
        }
        ab_aware_cluster->writeTimeSeriesJson(os);
        std::printf("wrote fig_chain.timeseries.json\n");
    }

    const char *gate = std::getenv("FIG_CHAIN_ASSERT");
    const bool assert_mode = gate != nullptr && std::string(gate) == "1";
    std::printf("\nscripted expectations%s:\n",
                assert_mode ? " (asserting)" : "");
    int failed = 0;
    failed += failures(assert_mode, hop_ratio >= local_advantage,
                       "same-machine chain hop at least 5x cheaper than "
                       "the cross-machine hop (hand-off + region attach)");
    failed += failures(assert_mode,
                       hop_aware.hopsRemote == 0 && hop_aware.hopsLocal > 0,
                       "locality-aware placement co-scheduled every "
                       "2-stage chain hop");
    failed += failures(assert_mode,
                       hop_blind.hopsLocal == 0 && hop_blind.hopsRemote > 0,
                       "blind round-robin paid every hop remotely");
    failed += failures(assert_mode, blind_p99 >= aware_p99 * p99_margin,
                       "locality-aware beats locality-blind p99 on the "
                       "mixed stream by the release margin");
    failed += failures(assert_mode,
                       ab_blind.transferBytes > 0 &&
                           ab_aware.transferBytes < ab_blind.transferBytes,
                       "blind placement streams more region bytes than "
                       "aware placement");
    failed += failures(assert_mode, ab_aware.cowFaults > 0,
                       "COW write faults observed on published regions");
    failed += failures(assert_mode,
                       fleet.workflowRuns > 0 &&
                           fleet.chainE2e.percentile(99) > 0.0,
                       "fleet driver replayed the workflow side stream");

    bench::footer();
    return failed == 0 ? 0 : 1;
}
