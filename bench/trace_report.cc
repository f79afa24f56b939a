/**
 * @file
 * End-to-end observability report: boots every sandbox system and every
 * Catalyzer path with tracing enabled, then exports
 *
 *   - trace_report.trace.json    Chrome trace_event JSON (load it in
 *                                chrome://tracing or ui.perfetto.dev)
 *   - trace_report.metrics.json  the machine's unified StatRegistry
 *                                snapshot (counters + p50/p90/p99
 *                                boot-latency histograms per system)
 *   - trace_report.fleet.trace.json       one merged Chrome trace from
 *                                         a small remote-sfork cluster:
 *                                         pid = machine, tid = the
 *                                         distributed trace id, so a
 *                                         borrowed boot renders as one
 *                                         stitched timeline across the
 *                                         lender's and borrower's lanes
 *   - trace_report.fleet.metrics.json     fleet counters + histograms
 *                                         (Cluster::statsSnapshot)
 *   - trace_report.fleet.timeseries.json  fleet-merged windowed series
 *
 * and prints the span tree of the first Catalyzer cold boot plus a
 * boot-latency summary table. `trace_report --fleet` skips the
 * single-machine sweep and produces only the fleet artifacts.
 *
 * `trace_report --list-metrics` prints the metric catalog
 * (sim/metric_catalog.h) as JSON on stdout and exits; the artifact
 * schema check reads its metric names from that dump.
 *
 * `trace_report --chain` drives the two canned stateful workflows
 * (pipeline analytics + shopping-cart session) on a locality-aware
 * cluster and exports the chain view:
 *
 *   - trace_report.chain.trace.json       chain-stage spans stitched
 *                                         across machines by workflow
 *                                         trace id
 *   - trace_report.chain.metrics.json     statsSnapshot with the
 *                                         per-machine state-region
 *                                         residency block and chain.* /
 *                                         state.* counters
 *   - trace_report.chain.timeseries.json  includes win.chain.e2e_ms
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>

#include "bench_util.h"
#include "catalyzer/runtime.h"
#include "platform/cluster.h"
#include "sandbox/pipelines.h"
#include "sim/metric_catalog.h"
#include "sim/table.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workflow/scenarios.h"
#include "workflow/workflow.h"

using namespace catalyzer;

namespace {

constexpr int kRepetitions = 5;
constexpr const char *kApp = "python-django";

void
writeFileOrDie(const char *path, void (*emit)(const trace::Tracer &,
                                              std::ostream &),
               const trace::Tracer &tracer)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "trace_report: cannot write %s\n", path);
        std::exit(1);
    }
    emit(tracer, os);
    std::printf("wrote %s\n", path);
}

/**
 * The fleet view (distributed layer): a small cluster where machine 0
 * lends its template over the modeled fabric and the others
 * remote-sfork from it. Untraced cluster invokes self-trace into each
 * machine's always-on ring, so the merged export carries every
 * request — including the lender-side lend-template / serve-pull-batch
 * halves stitched to the borrowers' boots by their shared trace ids.
 */
int
runFleet()
{
    net::FabricConfig fabric;
    fabric.modelTransfers = true;
    fabric.remoteFork = true;
    platform::Cluster cluster(
        3, platform::PlacementPolicy::RoundRobin,
        platform::PlatformConfig{platform::BootStrategy::CatalyzerAuto},
        {}, sim::CostModel{}, 42, fabric);
    const apps::AppProfile &app = apps::appByName("python-hello");
    cluster.deploy(app);
    cluster.platform(0).prepare(app);
    for (int i = 0; i < 6; ++i)
        cluster.invoke(app.name);

    // How many distributed traces actually crossed machines.
    std::map<trace::TraceId, std::set<std::uint32_t>> lanes;
    for (std::size_t m = 0; m < cluster.machineCount(); ++m) {
        for (const trace::Span &s :
             cluster.machine(m).tracer().snapshot()) {
            if (s.traceId != 0)
                lanes[s.traceId].insert(s.machine);
        }
    }
    std::size_t stitched = 0;
    for (const auto &[id, machines] : lanes)
        stitched += machines.size() > 1 ? 1 : 0;

    {
        std::ofstream os("trace_report.fleet.trace.json");
        if (!os) {
            std::fprintf(stderr,
                         "trace_report: cannot write fleet trace\n");
            return 1;
        }
        cluster.exportFleetTrace(os);
        std::printf("wrote trace_report.fleet.trace.json "
                    "(%zu traces, %zu stitched across machines)\n",
                    lanes.size(), stitched);
    }
    {
        std::ofstream os("trace_report.fleet.metrics.json");
        if (!os) {
            std::fprintf(stderr,
                         "trace_report: cannot write fleet metrics\n");
            return 1;
        }
        cluster.statsSnapshot(os);
        std::printf("wrote trace_report.fleet.metrics.json\n");
    }
    {
        std::ofstream os("trace_report.fleet.timeseries.json");
        if (!os) {
            std::fprintf(stderr,
                         "trace_report: cannot write fleet series\n");
            return 1;
        }
        cluster.writeTimeSeriesJson(os);
        std::printf("wrote trace_report.fleet.timeseries.json\n");
    }
    std::printf("(3 machines, %lld remote forks, %lld fabric "
                "transfers fleet-wide)\n",
                static_cast<long long>(
                    cluster.machine(1).ctx().stats().value(
                        "remote.fork_hits") +
                    cluster.machine(2).ctx().stats().value(
                        "remote.fork_hits")),
                static_cast<long long>(
                    cluster.machine(1).ctx().stats().value(
                        "net.transfers") +
                    cluster.machine(2).ctx().stats().value(
                        "net.transfers")));
    return 0;
}

/**
 * The chain view (stateful-serverless layer): a locality-aware cluster
 * runs both canned workflow scenarios, so the export carries
 * chain-stage spans stitched across machines by workflow trace id,
 * the chain.* / state.* counters, the per-machine state-residency
 * block in the metrics snapshot, and the win.chain.e2e_ms series.
 */
int
runChain()
{
    net::FabricConfig fabric;
    fabric.modelTransfers = true;
    platform::Cluster cluster(
        3, platform::PlacementPolicy::NetworkAware,
        platform::PlatformConfig{platform::BootStrategy::CatalyzerAuto},
        {}, sim::CostModel{}, 42, fabric);
    for (const std::string &fn : workflow::scenarioFunctions()) {
        const apps::AppProfile &app = apps::appByName(fn);
        cluster.deploy(app);
        cluster.prepareEverywhere(app);
    }

    workflow::WorkflowEngine engine(cluster);
    std::size_t runs = 0;
    sim::SimTime e2e;
    for (int round = 0; round < 2; ++round) {
        e2e += engine.run(workflow::pipelineAnalytics(3, 128)).e2e;
        ++runs;
        std::string session = "s";
        session += std::to_string(round);
        e2e += engine.run(workflow::shoppingCartSession(2, 32, session)).e2e;
        ++runs;
    }
    // One locality-blind run scatters its stages, so the export also
    // shows a chain stitched across machine lanes (remote hops, a
    // region streamed over the fabric).
    workflow::WorkflowEngine blind(cluster,
                                   workflow::WorkflowOptions{false});
    e2e += blind.run(workflow::shoppingCartSession(2, 32, "s2")).e2e;
    ++runs;

    // How many workflow traces actually crossed machines.
    std::map<trace::TraceId, std::set<std::uint32_t>> lanes;
    for (std::size_t m = 0; m < cluster.machineCount(); ++m) {
        for (const trace::Span &s :
             cluster.machine(m).tracer().snapshot()) {
            if (s.traceId != 0)
                lanes[s.traceId].insert(s.machine);
        }
    }
    std::size_t stitched = 0;
    for (const auto &[id, machines] : lanes)
        stitched += machines.size() > 1 ? 1 : 0;

    {
        std::ofstream os("trace_report.chain.trace.json");
        if (!os) {
            std::fprintf(stderr,
                         "trace_report: cannot write chain trace\n");
            return 1;
        }
        cluster.exportFleetTrace(os);
        std::printf("wrote trace_report.chain.trace.json "
                    "(%zu traces, %zu stitched across machines)\n",
                    lanes.size(), stitched);
    }
    {
        std::ofstream os("trace_report.chain.metrics.json");
        if (!os) {
            std::fprintf(stderr,
                         "trace_report: cannot write chain metrics\n");
            return 1;
        }
        cluster.statsSnapshot(os);
        std::printf("wrote trace_report.chain.metrics.json\n");
    }
    {
        std::ofstream os("trace_report.chain.timeseries.json");
        if (!os) {
            std::fprintf(stderr,
                         "trace_report: cannot write chain series\n");
            return 1;
        }
        cluster.writeTimeSeriesJson(os);
        std::printf("wrote trace_report.chain.timeseries.json\n");
    }

    sim::StatRegistry merged;
    cluster.mergeStats(merged);
    std::size_t resident = 0;
    for (std::size_t m = 0; m < cluster.machineCount(); ++m)
        resident += cluster.stateResidentBytes(m);
    std::printf("(%zu workflows, mean e2e %.3f ms, %lld local + %lld "
                "remote hops, %lld state publishes, %.0f KiB resident)\n",
                runs, e2e.toMs() / static_cast<double>(runs),
                static_cast<long long>(merged.value("chain.hops_local")),
                static_cast<long long>(merged.value("chain.hops_remote")),
                static_cast<long long>(merged.value("state.publishes")),
                static_cast<double>(resident) / 1024.0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--list-metrics") == 0) {
        metrics::writeCatalogJson(std::cout);
        return 0;
    }
    const bool fleet_only =
        argc > 1 && std::strcmp(argv[1], "--fleet") == 0;
    const bool chain_only =
        argc > 1 && std::strcmp(argv[1], "--chain") == 0;
    bench::banner("trace_report",
                  chain_only
                      ? "Chain-stitched workflow traces + state-region "
                        "metrics (stateful-serverless layer demo)"
                  : fleet_only
                      ? "Fleet-stitched distributed traces + windowed "
                        "metrics (observability layer demo)"
                      : "Boot tracing + metrics across all boot paths "
                        "(observability layer demo)");
    if (fleet_only || chain_only) {
        const int rc = fleet_only ? runFleet() : runChain();
        bench::footer();
        return rc;
    }

    sandbox::Machine machine(42);
    sandbox::FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    sandbox::FunctionArtifacts &fn =
        registry.artifactsFor(apps::appByName(kApp));

    trace::Tracer tracer;
    const trace::TraceContext root(tracer, machine.ctx().clock());

    //
    // First: one traced Catalyzer cold boot, and print its span tree
    // while it is the only content in the buffer.
    //
    runtime.bootCold(fn, root);
    std::printf("Catalyzer cold boot span tree (%s):\n\n", kApp);
    trace::exportText(tracer, std::cout);
    std::printf("\n");

    //
    // Then the rest of the fleet, all into the same trace: the
    // remaining Catalyzer paths and every fresh-boot sandbox system.
    //
    for (int i = 1; i < kRepetitions; ++i)
        runtime.bootCold(fn, root);
    for (int i = 0; i < kRepetitions; ++i)
        runtime.bootWarm(fn, root);
    runtime.prepareTemplate(fn); // offline
    for (int i = 0; i < kRepetitions; ++i)
        runtime.bootFork(fn, root);

    using sandbox::SandboxSystem;
    for (SandboxSystem system :
         {SandboxSystem::Docker, SandboxSystem::HyperContainer,
          SandboxSystem::FireCracker, SandboxSystem::GVisor,
          SandboxSystem::GVisorPtrace, SandboxSystem::GVisorRestore}) {
        for (int i = 0; i < kRepetitions; ++i)
            sandbox::bootSandbox(system, fn, root);
    }

    //
    // Working-set prefetch (extension): record one cold restore's fault
    // trace, reclaim, and restore again with the prefetcher on, so the
    // "prefetch" span shows up in the trace and the prefetch.* counters
    // (pages prefetched, demand faults avoided, wasted pages, manifest
    // hit rate) land in the metrics snapshot.
    //
    {
        core::CatalyzerOptions options;
        options.prefetchWorkingSet = true;
        core::CatalyzerRuntime prefetching(machine, options);
        sandbox::FunctionArtifacts &pfn =
            registry.artifactsFor(apps::appByName("python-hello"));
        auto recorded = prefetching.bootCold(pfn, root);
        recorded.instance->invoke();
        recorded.instance.reset();
        pfn.sharedBase.reset();
        pfn.separatedImage->file().evict();
        pfn.firstRestoreDone = false;
        auto prefetched = prefetching.bootCold(pfn, root);
        prefetched.instance->invoke();
        prefetched.instance.reset();

        auto &stats = machine.ctx().stats();
        std::printf("working-set prefetch: %lld pages prefetched, "
                    "%lld demand faults avoided, %lld wasted\n\n",
                    static_cast<long long>(
                        stats.value("prefetch.pages_prefetched")),
                    static_cast<long long>(
                        stats.value("prefetch.demand_faults_avoided")),
                    static_cast<long long>(
                        stats.value("prefetch.wasted_pages")));
    }

    //
    // Content-addressed image store (extension): fetch two
    // same-language images through the chunk tier ladder so the
    // image.fetch.* and image.chunks.* counters (local hits, dedup'd
    // bytes, per-tier hits) land in the metrics snapshot.
    //
    {
        snapshot::ImageStore images(machine.ctx());
        const auto format = snapshot::ImageFormat::SeparatedWellFormed;
        // The catalog goes in as cold metadata: drop the producer-side
        // local copy so the fetches below actually walk the tiers.
        for (const char *app : {"python-hello", "python-django"}) {
            images.publish(sandbox::ensureSeparatedImage(
                registry.artifactsFor(apps::appByName(app))));
            images.evictLocal(app, format);
        }
        snapshot::ChunkStoreConfig chunked;
        chunked.enabled = true;
        images.configureChunks(chunked);
        images.fetch("python-hello", format);  // origin pays all chunks
        images.fetch("python-django", format); // runtime chunks dedup
        images.fetch("python-django", format); // local hit
        auto &stats = machine.ctx().stats();
        std::printf("chunked image store: %lld local hit, %lld remote "
                    "fetches, %.1f MiB deduplicated\n\n",
                    static_cast<long long>(
                        stats.value("image.fetch.local_hits")),
                    static_cast<long long>(
                        stats.value("image.fetch.remote")),
                    static_cast<double>(
                        stats.value("image.chunks.bytes_saved")) /
                        (1024.0 * 1024.0));
    }

    //
    // Boot-latency histogram summary (the same numbers land in
    // trace_report.metrics.json).
    //
    sim::TextTable table("Boot latency histograms (ms, virtual time)");
    table.setHeader({"system", "boots", "p50", "p90", "p99", "max"});
    for (const auto &[name, series] :
         machine.ctx().stats().histograms()) {
        const std::string prefix = "boot.latency.";
        if (name.rfind(prefix, 0) != 0)
            continue;
        table.addRow({std::string(name.substr(prefix.size())),
                      std::to_string(series.count()),
                      sim::fmtMs(series.percentile(50)),
                      sim::fmtMs(series.percentile(90)),
                      sim::fmtMs(series.percentile(99)),
                      sim::fmtMs(series.max())});
    }
    table.print(std::cout);
    std::printf("\n%zu spans traced across all boots\n\n",
                tracer.spanCount());

    writeFileOrDie("trace_report.trace.json", trace::exportChromeTrace,
                   tracer);
    {
        std::ofstream os("trace_report.metrics.json");
        if (!os) {
            std::fprintf(stderr,
                         "trace_report: cannot write metrics json\n");
            return 1;
        }
        machine.ctx().stats().writeJson(os);
        std::printf("wrote trace_report.metrics.json\n");
    }

    if (runFleet() != 0)
        return 1;

    bench::footer();
    return 0;
}
