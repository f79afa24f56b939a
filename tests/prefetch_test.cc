/**
 * @file
 * Tests for the working-set record-and-prefetch subsystem
 * (src/prefetch/): manifest merging, the fault recorder, batched
 * prefetch cost accounting, and the runtime's record/prefetch/fallback
 * wiring.
 */

#include <gtest/gtest.h>

#include "catalyzer/runtime.h"
#include "mem/base_mapping.h"
#include "prefetch/fault_recorder.h"
#include "prefetch/prefetcher.h"
#include "prefetch/working_set_manifest.h"
#include "sandbox/pipelines.h"

namespace catalyzer::prefetch {
namespace {

using sandbox::BootResult;
using sandbox::FunctionArtifacts;
using sandbox::FunctionRegistry;
using sandbox::Machine;

//
// WorkingSetManifest: merging and freezing.
//

TEST(WorkingSetManifestTest, MergeStabilityAcrossNoisyTraces)
{
    // Four traces share a stable core; each carries one-off noise pages.
    WorkingSetManifest manifest("fn", 1, /*max_traces=*/4,
                                /*min_fraction=*/0.5);
    manifest.addTrace({10, 11, 12, 90});
    manifest.addTrace({10, 12, 11, 91});
    manifest.addTrace({11, 10, 12, 92});
    manifest.addTrace({12, 10, 11, 93});
    ASSERT_TRUE(manifest.frozen());

    // Threshold = ceil(0.5 * 4) = 2: the core survives, noise does not.
    const std::vector<mem::PageIndex> stable = manifest.stableSet();
    EXPECT_EQ(stable, (std::vector<mem::PageIndex>{10, 11, 12}));
    EXPECT_EQ(manifest.pageUniverse(), 7u);

    // Frozen: further traces are ignored.
    manifest.addTrace({50, 51, 52});
    EXPECT_EQ(manifest.traceCount(), 4u);
    EXPECT_EQ(manifest.stableSet().size(), 3u);
}

TEST(WorkingSetManifestTest, StableSetKeepsFirstSeenOrder)
{
    WorkingSetManifest manifest("fn", 1, 2, 1.0);
    manifest.addTrace({7, 3, 5});
    manifest.addTrace({5, 3, 7});
    // All pages are in both traces; order follows the first trace's
    // first-access order so batched reads replay the recording.
    EXPECT_EQ(manifest.stableSet(),
              (std::vector<mem::PageIndex>{7, 3, 5}));
}

TEST(WorkingSetManifestTest, SingleTraceIsUsable)
{
    WorkingSetManifest manifest("fn", 3, 3, 0.5);
    EXPECT_FALSE(manifest.usable());
    manifest.addTrace({1, 2});
    EXPECT_TRUE(manifest.usable());
    EXPECT_FALSE(manifest.frozen());
    // threshold = max(1, ceil(0.5 * 1)) = 1: everything qualifies.
    EXPECT_EQ(manifest.stableSet().size(), 2u);
}

//
// FaultRecorder: window filtering, ordering, audit grading.
//

TEST(FaultRecorderTest, RecordsWindowRelativeFirstAccessOrder)
{
    FaultRecorder recorder(/*window_start=*/100, /*window_pages=*/50);
    recorder.onFaultRange(105, 1, false, mem::FaultResult::BaseFill);
    recorder.onFaultRange(103, 1, true, mem::FaultResult::Cow);
    // A duplicate, then one page below and one above the window.
    recorder.onFaultRange(105, 1, false, mem::FaultResult::BaseHit);
    recorder.onFaultRange(99, 1, false, mem::FaultResult::MinorAnon);
    recorder.onFaultRange(150, 1, false, mem::FaultResult::MinorAnon);
    recorder.onFaultRange(100, 1, false, mem::FaultResult::BaseFill);
    // Extents are clipped to the window: 98-101 adds only page 1 (0 is
    // a duplicate), 148-151 only pages 48 and 49.
    recorder.onFaultRange(98, 4, false, mem::FaultResult::BaseFill);
    recorder.onFaultRange(148, 4, false, mem::FaultResult::BaseFill);
    EXPECT_EQ(recorder.accessedInOrder(),
              (std::vector<mem::PageIndex>{5, 3, 0, 1, 48, 49}));
}

TEST(FaultRecorderTest, AuditGradesPrefetchedSet)
{
    sim::StatRegistry stats;
    FaultRecorder recorder(0, 100);
    recorder.enableAudit({5, 3, 42}); // 42 is never accessed: wasted
    recorder.onFaultRange(5, 1, false, mem::FaultResult::BaseHit);
    recorder.onFaultRange(3, 1, false, mem::FaultResult::BaseHit);
    recorder.onFaultRange(7, 1, false, mem::FaultResult::BaseFill); // missed
    recorder.finish(stats);
    EXPECT_FALSE(recorder.active());
    EXPECT_EQ(stats.value("prefetch.demand_faults_avoided"), 2);
    EXPECT_EQ(stats.value("prefetch.wasted_pages"), 1);
    const auto *series = stats.findHistogram("prefetch.manifest_hit_rate");
    ASSERT_NE(series, nullptr);
    EXPECT_NEAR(series->mean(), 2.0 / 3.0, 1e-9);

    // finish() is idempotent; later faults are ignored.
    recorder.onFaultRange(9, 1, false, mem::FaultResult::BaseFill);
    recorder.finish(stats);
    EXPECT_EQ(stats.value("prefetch.demand_faults_avoided"), 2);
}

TEST(FaultRecorderTest, RecordingMergesTraceIntoManifest)
{
    sim::StatRegistry stats;
    auto manifest = std::make_shared<WorkingSetManifest>("fn", 1, 3, 0.5);
    FaultRecorder recorder(1000, 64);
    recorder.enableRecording(manifest);
    recorder.onFaultRange(1004, 1, false, mem::FaultResult::BaseFill);
    recorder.onFaultRange(1001, 1, true, mem::FaultResult::Cow);
    recorder.finish(stats);
    EXPECT_EQ(manifest->traceCount(), 1u);
    EXPECT_EQ(manifest->stableSet(),
              (std::vector<mem::PageIndex>{4, 1}));
    EXPECT_TRUE(manifest->dirty());
    EXPECT_EQ(stats.value("prefetch.traces_recorded"), 1);
}

//
// Prefetcher: batched cost accounting against the virtual clock.
//

class PrefetcherTest : public ::testing::Test
{
  protected:
    PrefetcherTest() : machine(7), registry(machine) {}

    Machine machine;
    FunctionRegistry registry;
};

TEST_F(PrefetcherTest, BatchCostAccounting)
{
    auto &ctx = machine.ctx();
    const auto &costs = ctx.costs();
    FunctionArtifacts &fn =
        registry.artifactsFor(apps::appByName("python-hello"));
    auto image = sandbox::ensureSeparatedImage(fn);
    image->file().evict(); // all prefetch fills must hit storage

    mem::BaseMapping base(machine.frames(), image->file(), 0,
                          image->totalPages(), "test-base");
    const std::size_t n = std::min<std::size_t>(100, base.npages());
    std::vector<mem::PageIndex> pages;
    for (std::size_t i = 0; i < n; ++i)
        pages.push_back(i);

    const sim::SimTime before = ctx.now();
    const PrefetchReport report =
        prefetchIntoBase(ctx, base, pages, /*batch_pages=*/64);
    const sim::SimTime elapsed = ctx.now() - before;

    EXPECT_EQ(report.requestedPages, n);
    EXPECT_EQ(report.prefetchedPages, n);
    EXPECT_EQ(report.storageReads, n);
    EXPECT_EQ(report.alreadyResident, 0u);
    EXPECT_EQ(report.batches, (n + 63) / 64);

    // Expected: one setup per batch, the sequential transfer spread
    // across the restore workers, and one PTE pass per 512 installs.
    const auto workers =
        static_cast<std::size_t>(costs.restoreWorkers);
    sim::SimTime expected = sim::SimTime::zero();
    for (std::size_t begin = 0; begin < n; begin += 64) {
        const std::size_t batch = std::min<std::size_t>(64, n - begin);
        expected = expected + costs.prefetchBatchSetup +
                   costs.prefetchSsdPerPage *
                       static_cast<std::int64_t>(
                           (batch + workers - 1) / workers);
    }
    expected = expected + costs.ptePopulatePerBatch *
                              static_cast<std::int64_t>(
                                  (n + mem::kPtesPerTable - 1) /
                                  mem::kPtesPerTable);
    EXPECT_EQ(elapsed, expected);

    EXPECT_EQ(ctx.stats().value("prefetch.pages_prefetched"),
              static_cast<std::int64_t>(n));
    EXPECT_EQ(ctx.stats().value("prefetch.storage_reads"),
              static_cast<std::int64_t>(n));
}

TEST_F(PrefetcherTest, ResidentPagesSkipReadahead)
{
    auto &ctx = machine.ctx();
    FunctionArtifacts &fn =
        registry.artifactsFor(apps::appByName("python-hello"));
    auto image = sandbox::ensureSeparatedImage(fn);
    mem::BaseMapping base(machine.frames(), image->file(), 0,
                          image->totalPages(), "test-base");
    std::vector<mem::PageIndex> pages = {0, 1, 2, 3};
    prefetchIntoBase(ctx, base, pages, 64);

    // Second pass: everything resident, no batches, no virtual time.
    const sim::SimTime before = ctx.now();
    const PrefetchReport again = prefetchIntoBase(ctx, base, pages, 64);
    EXPECT_EQ(ctx.now(), before);
    EXPECT_EQ(again.prefetchedPages, 0u);
    EXPECT_EQ(again.alreadyResident, 4u);
    EXPECT_EQ(again.batches, 0u);
}

TEST_F(PrefetcherTest, ClampsPagesBeyondImageExtent)
{
    auto &ctx = machine.ctx();
    FunctionArtifacts &fn =
        registry.artifactsFor(apps::appByName("python-hello"));
    auto image = sandbox::ensureSeparatedImage(fn);
    mem::BaseMapping base(machine.frames(), image->file(), 0,
                          image->totalPages(), "test-base");
    const std::vector<mem::PageIndex> stale = {base.npages(),
                                               base.npages() + 17};
    const sim::SimTime before = ctx.now();
    const PrefetchReport report = prefetchIntoBase(ctx, base, stale, 64);
    EXPECT_EQ(report.requestedPages, 0u);
    EXPECT_EQ(report.batches, 0u);
    EXPECT_EQ(ctx.now(), before);
}

//
// Runtime wiring: record, prefetch, fallback, staleness.
//

std::int64_t
demandFaults(sim::StatRegistry &stats)
{
    return stats.value("mem.base_fills") +
           stats.value("mem.page_cache_storage_reads");
}

void
evictRestoreState(FunctionArtifacts &fn)
{
    // Drop the Base-EPT and the image's page cache so the next boot is
    // fully cold again.
    fn.sharedBase.reset();
    fn.separatedImage->file().evict();
    fn.firstRestoreDone = false;
}

TEST(RuntimePrefetchTest, FallbackWhenManifestMissing)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.recordWorkingSet = false; // nothing ever recorded
    options.prefetchWorkingSet = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &stats = machine.ctx().stats();

    FunctionArtifacts &fn =
        registry.artifactsFor(apps::appByName("python-hello"));
    BootResult boot = runtime.bootCold(fn);
    ASSERT_NE(boot.instance, nullptr);
    boot.instance->invoke();

    EXPECT_EQ(stats.value("prefetch.manifest_misses"), 1);
    EXPECT_EQ(stats.value("prefetch.manifest_hits"), 0);
    EXPECT_EQ(stats.value("prefetch.pages_prefetched"), 0);
    EXPECT_EQ(stats.value("prefetch.traces_recorded"), 0);
}

TEST(RuntimePrefetchTest, SecondColdBootAvoidsDemandFaults)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.prefetchWorkingSet = true; // recording is on by default
    core::CatalyzerRuntime runtime(machine, options);
    auto &stats = machine.ctx().stats();

    FunctionArtifacts &fn =
        registry.artifactsFor(apps::appByName("python-hello"));

    // First cold boot: no manifest yet, demand paging + recording.
    std::int64_t mark = demandFaults(stats);
    BootResult first = runtime.bootCold(fn);
    first.instance->invoke();
    const std::int64_t first_faults = demandFaults(stats) - mark;
    first.instance.reset();
    EXPECT_EQ(stats.value("prefetch.traces_recorded"), 1);
    EXPECT_GT(first_faults, 0);

    // Second cold boot from scratch: the manifest drives a prefetch.
    evictRestoreState(fn);
    mark = demandFaults(stats);
    BootResult second = runtime.bootCold(fn);
    second.instance->invoke();
    const std::int64_t second_faults = demandFaults(stats) - mark;
    second.instance.reset();

    EXPECT_EQ(stats.value("prefetch.manifest_hits"), 1);
    EXPECT_GT(stats.value("prefetch.pages_prefetched"), 0);
    EXPECT_GT(stats.value("prefetch.demand_faults_avoided"), 0);

    // The headline regression: the prefetched boot demand-faults less
    // before its first response than the recorded one did.
    EXPECT_LT(second_faults, first_faults);

    // The restore trace is deterministic, so the manifest should cover
    // most of the window (hit rate well above half).
    const auto *rate = stats.findHistogram("prefetch.manifest_hit_rate");
    ASSERT_NE(rate, nullptr);
    EXPECT_EQ(rate->count(), 1u);
    EXPECT_GT(rate->mean(), 0.5);
}

TEST(RuntimePrefetchTest, CorruptionRebuildDropsManifestAndReRecords)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.prefetchWorkingSet = true;
    options.verifyImages = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &stats = machine.ctx().stats();

    FunctionArtifacts &fn =
        registry.artifactsFor(apps::appByName("python-hello"));
    BootResult boot = runtime.bootCold(fn);
    boot.instance->invoke();
    boot.instance.reset();
    ASSERT_TRUE(fn.workingSet);
    const std::uint64_t old_gen = fn.workingSet->imageGeneration();

    // The image rots on storage; the verify-then-rebuild path replaces
    // it with a fresh checkpoint under a new generation, so the
    // recorded working set no longer describes the image layout.
    fn.separatedImage->markCorrupted();
    const std::int64_t stale_before =
        stats.value("prefetch.manifest_stale");
    BootResult after = runtime.bootCold(fn);
    ASSERT_NE(after.instance, nullptr);
    EXPECT_EQ(stats.value("catalyzer.image_rebuilds"), 1);
    ASSERT_NE(fn.separatedImage->generation(), old_gen);

    // The stale manifest was dropped and re-recording
    // began against the rebuilt image.
    EXPECT_GT(stats.value("prefetch.manifest_stale"), stale_before);
    ASSERT_TRUE(fn.workingSet);
    EXPECT_EQ(fn.workingSet->imageGeneration(),
              fn.separatedImage->generation());
    after.instance->invoke(); // closes the recording window
    after.instance.reset();
    EXPECT_TRUE(fn.workingSet->usable());

    // The next fully-cold boot completes and prefetches the re-recorded
    // set.
    evictRestoreState(fn);
    const std::int64_t hits_before =
        stats.value("prefetch.manifest_hits");
    BootResult next = runtime.bootCold(fn);
    ASSERT_NE(next.instance, nullptr);
    next.instance->invoke();
    EXPECT_GT(stats.value("prefetch.manifest_hits"), hits_before);
}

TEST(RuntimePrefetchTest, ManifestPublishedOnNextBoot)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.prefetchWorkingSet = true;
    core::CatalyzerRuntime runtime(machine, options);

    FunctionArtifacts &fn =
        registry.artifactsFor(apps::appByName("python-hello"));
    BootResult boot = runtime.bootCold(fn);
    boot.instance->invoke();
    boot.instance.reset();
    // Publication happens lazily on the next boot's ensureWorkingSet.
    ASSERT_TRUE(fn.workingSet);
    EXPECT_TRUE(fn.workingSet->dirty());
    EXPECT_EQ(machine.ctx().stats().value("snapshot.manifests_published"),
              0);
    evictRestoreState(fn);
    runtime.bootCold(fn);
    EXPECT_FALSE(fn.workingSet->dirty());
    EXPECT_EQ(machine.ctx().stats().value("snapshot.manifests_published"),
              1);
}

} // namespace
} // namespace catalyzer::prefetch
