/**
 * @file
 * Allocation guard for the object-graph pipeline. This binary replaces
 * the global operator new with a counting one, so the count is exact:
 * synthesize + build + reconstruct (and dropping all three) must
 * allocate a few flat arrays, not one heap block per object.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "objgraph/object_graph.h"
#include "objgraph/separated_image.h"
#include "sim/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void *
countedAlloc(std::size_t bytes)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t bytes) { return countedAlloc(bytes); }
void *operator new[](std::size_t bytes) { return countedAlloc(bytes); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace catalyzer::objgraph {
namespace {

/** Heap allocations made by one synthesize -> build -> reconstruct. */
std::size_t
pipelineAllocations(std::size_t objects)
{
    sim::Rng rng(42);
    const GraphSpec spec = GraphSpec::scaledTo(objects);
    g_allocations = 0;
    g_counting = true;
    {
        const ObjectGraph graph = ObjectGraph::synthesize(rng, spec);
        const SeparatedImage image = SeparatedImage::build(graph);
        const ObjectGraph restored = image.reconstruct();
        if (restored.objectCount() != graph.objectCount())
            std::abort();
    }
    g_counting = false;
    return g_allocations;
}

TEST(ObjgraphAllocTest, PipelineAllocatesFlatArrays)
{
    const std::size_t fleet_sized = pipelineAllocations(1749);
    const std::size_t large = pipelineAllocations(5000);
    std::printf("heap allocations: 1,749-object graph %zu, 5,000-object "
                "graph %zu\n",
                fleet_sized, large);
    EXPECT_LE(large, 64u);
    // Repeatable: the count is a property of the code, not the run.
    EXPECT_EQ(pipelineAllocations(5000), large);
}

} // namespace
} // namespace catalyzer::objgraph
