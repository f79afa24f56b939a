/**
 * @file
 * Property-based tests: parameterized sweeps asserting the system's
 * core invariants across the whole application catalog, random memory
 * workloads and random fd-table histories.
 */

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "catalyzer/runtime.h"
#include "objgraph_testing.h"
#include "sandbox/pipelines.h"

namespace catalyzer {
namespace {

using sandbox::BootResult;
using sandbox::FunctionRegistry;
using sandbox::Machine;
using sandbox::SandboxSystem;

//
// Property 1: for every application in the catalog, the boot-path
// latency ordering of the paper holds, and every restore path
// reproduces the checkpointed guest state exactly.
//
class BootPathProperty : public ::testing::TestWithParam<const char *>
{};

TEST_P(BootPathProperty, OrderingAndFidelity)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    auto &fn = registry.artifactsFor(apps::appByName(GetParam()));

    BootResult gvr = sandbox::bootSandbox(SandboxSystem::GVisorRestore,
                                          fn);
    BootResult cold = runtime.bootCold(fn);
    BootResult warm = runtime.bootWarm(fn);
    BootResult fork = runtime.bootFork(fn);

    const double gvr_ms = gvr.report.total().toMs();
    const double cold_ms = cold.report.total().toMs();
    const double warm_ms = warm.report.total().toMs();
    const double fork_ms = fork.report.total().toMs();

    // Fork boot is the fastest path, and every Catalyzer path beats the
    // stock restore by a wide margin.
    EXPECT_LT(fork_ms, warm_ms) << GetParam();
    EXPECT_LT(fork_ms, cold_ms) << GetParam();
    EXPECT_LT(cold_ms, gvr_ms / 3.0) << GetParam();
    EXPECT_LT(warm_ms, gvr_ms / 3.0) << GetParam();
    EXPECT_LT(fork_ms, 2.5) << GetParam(); // milliseconds, always

    // Fidelity: every path restored the exact checkpointed kernel state.
    const auto &truth = fn.separatedImage->state().kernelGraph;
    EXPECT_TRUE(objgraph::sameGraph(cold.instance->guest().state(), truth))
        << GetParam();
    EXPECT_TRUE(objgraph::sameGraph(warm.instance->guest().state(), truth))
        << GetParam();
    EXPECT_TRUE(objgraph::sameGraph(fork.instance->guest().state(), truth))
        << GetParam();

    // All instances can serve requests.
    EXPECT_GT(cold.instance->invoke().toNs(), 0);
    EXPECT_GT(warm.instance->invoke().toNs(), 0);
    EXPECT_GT(fork.instance->invoke().toNs(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, BootPathProperty,
    ::testing::Values("c-hello", "c-nginx", "java-hello", "java-specjbb",
                      "python-hello", "python-django", "ruby-hello",
                      "ruby-sinatra", "nodejs-hello", "nodejs-web",
                      "ds-text", "ds-uniqueid", "ds-media", "ds-compose",
                      "ds-timeline", "pillow-enhance", "pillow-filters",
                      "pillow-rolling", "pillow-splitmerge",
                      "pillow-transpose", "ec-purchase",
                      "ec-advertisement", "ec-report", "ec-discount"));

//
// Property 2: PSS conservation. For any family of address spaces
// COW-forked from one parent and any write pattern, the PSS summed over
// all spaces equals the total bytes of live anonymous frames.
//
class PssConservation
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{};

TEST_P(PssConservation, SumOfPssEqualsLiveMemory)
{
    const auto [seed, nforks] = GetParam();
    sim::SimContext ctx(seed);
    mem::FrameStore store;
    constexpr std::size_t kPages = 256;

    auto parent =
        std::make_unique<mem::AddressSpace>(ctx, store, "parent");
    const auto va = parent->mapAnon(kPages, true, "heap");
    parent->touchRange(va, kPages, true);

    std::vector<std::unique_ptr<mem::AddressSpace>> family;
    family.push_back(std::move(parent));
    sim::Rng rng(seed);
    for (int f = 0; f < nforks; ++f) {
        auto &src = family[rng.uniformInt(family.size())];
        family.push_back(src->forkCow("child" + std::to_string(f)));
        // Random writes privatize random pages in a random member.
        auto &victim = family[rng.uniformInt(family.size())];
        for (int w = 0; w < 40; ++w)
            victim->touch(va + rng.uniformInt(kPages), true);
    }

    double pss_sum = 0.0;
    for (const auto &space : family)
        pss_sum += space->pssBytes();
    const double live_bytes =
        static_cast<double>(store.liveFrames() * mem::kPageSize);
    EXPECT_NEAR(pss_sum, live_bytes, 1.0);

    // And dropping the whole family frees everything.
    family.clear();
    EXPECT_EQ(store.liveFrames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndForks, PssConservation,
    ::testing::Combine(::testing::Values(1u, 7u, 23u, 99u),
                       ::testing::Values(1, 3, 8)));

//
// Property 3: the fd table always allocates the lowest free descriptor,
// regardless of history (checked against a straightforward model).
//
class FdTableProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FdTableProperty, LowestFreeAgainstModel)
{
    sim::Rng rng(GetParam());
    vfs::FdTable fds;
    std::set<int> model;
    for (int step = 0; step < 600; ++step) {
        if (!model.empty() && rng.chance(0.4)) {
            // Close a random open fd.
            auto it = model.begin();
            std::advance(it, static_cast<long>(
                                 rng.uniformInt(model.size())));
            fds.close(*it);
            model.erase(it);
        } else {
            const int fd = fds.allocate(vfs::FdEntry{});
            // Model: lowest non-member integer.
            int expect = 0;
            while (model.contains(expect))
                ++expect;
            EXPECT_EQ(fd, expect);
            model.insert(fd);
        }
        EXPECT_EQ(fds.inUse(), model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdTableProperty,
                         ::testing::Values(3u, 17u, 71u, 113u));

//
// Property 4: separated-image round trips stay lossless even for
// adversarial graph shapes (no pointers at all, everything pointing at
// one hub, very large payloads).
//
TEST(SeparatedImageEdgeCases, NoPointerGraph)
{
    objgraph::ObjectGraph graph;
    for (int i = 0; i < 500; ++i)
        graph.addObject(objgraph::ObjectKind::Misc, 64, {});
    const auto image = objgraph::SeparatedImage::build(graph);
    EXPECT_EQ(image.relocCount(), 0u);
    EXPECT_EQ(image.pointerPages(), 0u);
    EXPECT_TRUE(
        objgraph::sameGraph(image.reconstruct(), objgraph::deepCopy(graph)));
}

TEST(SeparatedImageEdgeCases, HubGraph)
{
    objgraph::ObjectGraph graph;
    const auto hub = graph.addObject(objgraph::ObjectKind::Task, 64, {});
    for (int i = 0; i < 500; ++i) {
        graph.addObject(objgraph::ObjectKind::Misc, 32,
                        {hub, hub, hub, hub});
    }
    const auto image = objgraph::SeparatedImage::build(graph);
    EXPECT_EQ(image.relocCount(), 2000u);
    EXPECT_TRUE(
        objgraph::sameGraph(image.reconstruct(), objgraph::deepCopy(graph)));
}

TEST(SeparatedImageEdgeCases, LargePayloads)
{
    objgraph::ObjectGraph graph;
    std::uint64_t prev = 0;
    for (int i = 0; i < 50; ++i) {
        std::vector<std::uint64_t> refs;
        if (prev)
            refs.push_back(prev);
        prev = graph.addObject(objgraph::ObjectKind::MemoryRegion,
                               64 * 1024, std::move(refs));
    }
    const auto image = objgraph::SeparatedImage::build(graph);
    EXPECT_GT(image.arenaPages(), 50u * 16u - 16u);
    EXPECT_TRUE(
        objgraph::sameGraph(image.reconstruct(), objgraph::deepCopy(graph)));
}

TEST(SeparatedImageEdgeCases, MixedNullAndRealSlots)
{
    objgraph::ObjectGraph graph;
    const auto a = graph.addObject(objgraph::ObjectKind::Task, 16, {});
    graph.addObject(objgraph::ObjectKind::Misc, 16, {0, a, 0, a, 0});
    const auto image = objgraph::SeparatedImage::build(graph);
    EXPECT_EQ(image.relocCount(), 2u);
    EXPECT_TRUE(
        objgraph::sameGraph(image.reconstruct(), objgraph::deepCopy(graph)));
}

} // namespace
} // namespace catalyzer
