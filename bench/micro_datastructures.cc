/**
 * @file
 * Wall-clock micro-benchmarks (google-benchmark) of the real data
 * structures behind Catalyzer's mechanisms that perfbench's probes do
 * not time: read-through faults on a shared Base-EPT, the baseline
 * per-object codec, overlay-rootfs cloning and fd-table churn.
 * Anonymous faults, forkCow and the separated image's build and
 * reconstruct are timed by perfbench's mem.* and objgraph.* probes.
 *
 * Unlike the figNN/tabNN harnesses (virtual-clock reproductions), these
 * measure the C++ implementation itself.
 */

#include <benchmark/benchmark.h>

#include "mem/address_space.h"
#include "objgraph/proto_codec.h"
#include "sim/context.h"
#include "vfs/overlay_rootfs.h"

using namespace catalyzer;

namespace {

void
BM_BaseEptReadThrough(benchmark::State &state)
{
    const auto pages = static_cast<std::size_t>(state.range(0));
    sim::SimContext ctx;
    mem::FrameStore store;
    mem::BackingFile image(store, "/img", pages);
    auto base = std::make_shared<mem::BaseMapping>(store, image, 0,
                                                   pages, "base");
    base->populateAll(ctx, false);
    mem::AddressSpace space(ctx, store, "warm");
    const auto va = space.attachBase(base);
    for (auto _ : state) {
        for (std::size_t p = 0; p < pages; p += 16)
            benchmark::DoNotOptimize(space.touch(va + p, false));
    }
}
BENCHMARK(BM_BaseEptReadThrough)->Arg(4096);

void
BM_ProtoReconstruct(benchmark::State &state)
{
    sim::Rng rng(42);
    const auto graph = objgraph::ObjectGraph::synthesize(
        rng, objgraph::GraphSpec::scaledTo(
                 static_cast<std::size_t>(state.range(0))));
    const auto image = objgraph::ProtoImage::build(graph);
    for (auto _ : state) {
        benchmark::DoNotOptimize(image.reconstruct());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProtoReconstruct)->Arg(5000)->Arg(37838);

void
BM_OverlayClone(benchmark::State &state)
{
    sim::SimContext ctx;
    vfs::InodeTree tree;
    for (int i = 0; i < 200; ++i)
        tree.addFile("/app/f" + std::to_string(i), 4096);
    vfs::FsServer server(ctx, std::move(tree));
    vfs::OverlayRootfs overlay(ctx, server);
    for (int i = 0; i < 64; ++i)
        overlay.write("/tmp/w" + std::to_string(i), 512);
    for (auto _ : state) {
        benchmark::DoNotOptimize(overlay.clone());
    }
}
BENCHMARK(BM_OverlayClone);

void
BM_FdTableChurn(benchmark::State &state)
{
    for (auto _ : state) {
        vfs::FdTable fds;
        for (int i = 0; i < 512; ++i)
            benchmark::DoNotOptimize(fds.allocate(vfs::FdEntry{}));
        for (int i = 0; i < 512; ++i)
            fds.close(i);
    }
}
BENCHMARK(BM_FdTableChurn);

} // namespace

BENCHMARK_MAIN();
