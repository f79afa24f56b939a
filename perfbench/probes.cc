#include "probes.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "catalyzer/runtime.h"
#include "mem/address_space.h"
#include "mem/frame_store.h"
#include "objgraph/object_graph.h"
#include "objgraph/separated_image.h"
#include "platform/cluster.h"
#include "sandbox/function_artifacts.h"
#include "sim/context.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "snapshot/chunk_store.h"
#include "trace/trace.h"
#include "workflow/scenarios.h"

namespace perfbench {

using namespace catalyzer;

double
Samples::sum() const
{
    double total = 0.0;
    for (double v : values_)
        total += v;
    return total;
}

double
Samples::percentileUs(double p) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t idx = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    return sorted[idx] * 1e6;
}

namespace {

/** Time one call of @p fn into @p samples; returns its result. */
template <typename Fn>
auto
timed(Samples &samples, Fn &&fn)
{
    const auto start = Clock::now();
    auto result = fn();
    samples.add(secondsSince(start));
    return result;
}

} // namespace

void
probeObjgraph(const std::vector<const apps::AppProfile *> &apps,
              Metrics &out)
{
    constexpr int kRounds = 4;
    Samples synth, build, reconstruct;
    sim::Rng rng(2020);
    for (int round = 0; round < kRounds; ++round) {
        for (const apps::AppProfile *app : apps) {
            const objgraph::ObjectGraph graph = timed(synth, [&] {
                return objgraph::ObjectGraph::synthesize(rng,
                                                         app->graphSpec());
            });
            const objgraph::SeparatedImage image = timed(build, [&] {
                return objgraph::SeparatedImage::build(graph);
            });
            // The first decode of a fresh image: later ones hit its memo.
            const objgraph::ObjectGraph decoded =
                timed(reconstruct, [&] { return image.reconstruct(); });
            if (decoded.objectCount() != graph.objectCount())
                sim::panic("perfbench: reconstruct lost objects");
        }
    }
    out["objgraph.synthesize.p50_us"] = synth.percentileUs(50);
    out["objgraph.build.p50_us"] = build.percentileUs(50);
    out["objgraph.reconstruct.p50_us"] = reconstruct.percentileUs(50);
}

void
probeBoots(const std::vector<const apps::AppProfile *> &apps, Metrics &out)
{
    // Enough boots per tier that p99 has ten samples beyond it.
    constexpr std::size_t kBootsPerTier = 1024;
    constexpr int kChunkRounds = 8;
    sandbox::Machine machine(42);
    sandbox::FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);

    std::vector<sandbox::FunctionArtifacts *> fns;
    for (const apps::AppProfile *app : apps) {
        sandbox::FunctionArtifacts &fn = registry.artifactsFor(*app);
        // Offline, untimed: image, Base-EPT, I/O cache and template.
        runtime.bootCold(fn);
        runtime.bootWarm(fn);
        runtime.prepareTemplate(fn);
        fns.push_back(&fn);
    }

    Samples fork, warm, cold, teardown;
    const struct
    {
        Samples *samples;
        sandbox::BootResult (core::CatalyzerRuntime::*boot)(
            sandbox::FunctionArtifacts &, trace::TraceContext);
    } tiers[] = {{&fork, &core::CatalyzerRuntime::bootFork},
                 {&warm, &core::CatalyzerRuntime::bootWarm},
                 {&cold, &core::CatalyzerRuntime::bootCold}};
    for (const auto &tier : tiers) {
        for (std::size_t i = 0; i < kBootsPerTier; ++i) {
            sandbox::FunctionArtifacts &fn = *fns[i % fns.size()];
            sandbox::BootResult boot = timed(*tier.samples, [&] {
                return (runtime.*tier.boot)(fn, trace::TraceContext{});
            });
            const auto start = Clock::now();
            boot.instance.reset();
            teardown.add(secondsSince(start));
        }
    }
    out["catalyzer.boot_fork.p50_us"] = fork.percentileUs(50);
    out["catalyzer.boot_fork.p99_us"] = fork.percentileUs(99);
    out["catalyzer.boot_warm.p50_us"] = warm.percentileUs(50);
    out["catalyzer.boot_warm.p99_us"] = warm.percentileUs(99);
    out["catalyzer.boot_cold.p50_us"] = cold.percentileUs(50);
    out["catalyzer.boot_cold.p99_us"] = cold.percentileUs(99);
    out["sandbox.teardown.p50_us"] = teardown.percentileUs(50);

    const snapshot::ChunkStoreConfig chunk_config;
    Samples chunk;
    std::size_t chunks = 0;
    for (int round = 0; round < kChunkRounds; ++round) {
        for (sandbox::FunctionArtifacts *fn : fns) {
            chunks += timed(chunk, [&] {
                          return snapshot::chunkImage(
                              *fn->separatedImage, machine.ctx().costs(),
                              chunk_config.sharedLibFraction);
                      }).size();
        }
    }
    if (chunks == 0)
        sim::panic("perfbench: images cut into no chunks");
    out["snapshot.chunk.p50_us"] = chunk.percentileUs(50);
}

void
probeMem(Metrics &out)
{
    // Touching every other page leaves one extent per touched page, so
    // the fork and the gap-filling touches walk thousands of runs. A
    // contiguous range would collapse into one run and measure nothing.
    constexpr std::size_t kPages = 8192;
    constexpr int kReps = 24;
    sim::SimContext ctx(42);
    mem::FrameStore store;
    Samples fork, unmap;
    double touch_sec = 0.0;
    std::size_t touched = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        mem::AddressSpace parent(ctx, store, "frag-parent");
        const mem::PageIndex va = parent.mapAnon(kPages, true, "heap");
        auto start = Clock::now();
        for (std::size_t p = 0; p < kPages; p += 2)
            parent.touchRange(va + p, 1, /*write=*/true);
        touch_sec += secondsSince(start);
        touched += kPages / 2;

        std::unique_ptr<mem::AddressSpace> child = timed(
            fork, [&] { return parent.forkCow("frag-child"); });

        start = Clock::now();
        touched += child->touchRange(va, kPages, /*write=*/true);
        touched += parent.touchRange(va, kPages, /*write=*/true);
        touch_sec += secondsSince(start);

        for (mem::AddressSpace *space : {child.get(), &parent}) {
            start = Clock::now();
            space->unmap(va);
            unmap.add(secondsSince(start));
        }
    }
    if (touched == 0 || touch_sec <= 0.0)
        sim::panic("perfbench: touch probe did no work");
    out["mem.touch_frag.pages_per_s"] =
        static_cast<double>(touched) / touch_sec;
    out["mem.fork_cow.p50_us"] = fork.percentileUs(50);
    out["mem.unmap.p50_us"] = unmap.percentileUs(50);
}

void
probeStatsAndTrace(Metrics &out)
{
    constexpr std::size_t kIncrs = 400000;
    sim::StatRegistry stats;
    auto start = Clock::now();
    // String literals, as at the simulator's own increment sites.
    for (std::size_t i = 0; i < kIncrs; i += 4) {
        stats.incr("catalyzer.boots");
        stats.incr("mem.faults.anon");
        stats.incr("platform.invocations");
        stats.incr("sandbox.instances_created");
    }
    out["sim.stats_incr.ns"] =
        secondsSince(start) * 1e9 / static_cast<double>(kIncrs);
    if (stats.value("catalyzer.boots") !=
        static_cast<std::int64_t>(kIncrs / 4))
        sim::panic("perfbench: stat increments lost");

    // The always-on per-machine ring, filled to capacity so every new
    // span also evicts one. A boot-shaped tree: one root, six stages.
    constexpr std::size_t kTrees = 20000;
    constexpr std::size_t kSpansPerTree = 7;
    trace::Tracer tracer;
    tracer.setCapacity(sandbox::Machine::kTracerCapacity);
    sim::SimTime now;
    const sim::SimTime step = sim::SimTime::microseconds(1.0);
    for (std::size_t i = 0; i < sandbox::Machine::kTracerCapacity; ++i)
        tracer.end(tracer.begin("warmup", now), now);
    start = Clock::now();
    for (std::size_t t = 0; t < kTrees; ++t) {
        const trace::SpanId root =
            tracer.begin("boot/Catalyzer-sfork", now, 0, t + 1);
        for (std::size_t s = 1; s < kSpansPerTree; ++s) {
            const trace::SpanId stage =
                tracer.begin("sfork-stage", now, root, t + 1);
            now += step;
            tracer.end(stage, now);
        }
        tracer.end(root, now);
    }
    out["trace.ring_span.ns"] =
        secondsSince(start) * 1e9 /
        static_cast<double>(kTrees * kSpansPerTree);
}

void
probeWorkflow(Metrics &out)
{
    constexpr std::size_t kRunsPerSpec = 64;
    net::FabricConfig fabric;
    fabric.modelTransfers = true;
    platform::PlatformConfig pconf;
    pconf.strategy = platform::BootStrategy::CatalyzerAuto;
    pconf.reuseIdleInstances = true;
    platform::Cluster cluster(4, platform::PlacementPolicy::NetworkAware,
                              pconf, core::CatalyzerOptions{},
                              sim::CostModel{}, 42, fabric);
    for (const std::string &name : workflow::scenarioFunctions()) {
        const apps::AppProfile &app = apps::appByName(name);
        cluster.deploy(app);
        cluster.prepareEverywhere(app);
    }
    workflow::WorkflowEngine engine(cluster);
    const workflow::WorkflowSpec pipeline =
        workflow::pipelineAnalytics(4, 256);
    // One run of each shape first: images, bases and regions exist.
    engine.run(pipeline);
    engine.run(workflow::shoppingCartSession(3, 64, "warmup"));

    Samples runs;
    for (std::size_t r = 0; r < kRunsPerSpec; ++r) {
        char session[32];
        std::snprintf(session, sizeof session, "s%zu", r);
        const workflow::WorkflowSpec cart =
            workflow::shoppingCartSession(3, 64, session);
        for (const workflow::WorkflowSpec *spec : {&pipeline, &cart}) {
            const workflow::WorkflowResult result =
                timed(runs, [&] { return engine.run(*spec); });
            if (result.stages.size() != spec->stages.size())
                sim::panic("perfbench: workflow skipped stages");
        }
    }
    out["workflow.run.p50_us"] = runs.percentileUs(50);
    out["workflow.run.p99_us"] = runs.percentileUs(99);
}

} // namespace perfbench
