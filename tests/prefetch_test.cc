/**
 * @file
 * Tests for the working-set record-and-prefetch subsystem
 * (src/prefetch/): manifest merging and serialization, the fault
 * recorder, batched prefetch cost accounting, the runtime's
 * record/prefetch/fallback wiring, and the platform-level reclaim path
 * that prefetch makes affordable.
 */

#include <gtest/gtest.h>

#include "catalyzer/runtime.h"
#include "mem/base_mapping.h"
#include "platform/policy.h"
#include "prefetch/fault_recorder.h"
#include "prefetch/prefetcher.h"
#include "prefetch/working_set_manifest.h"
#include "sandbox/pipelines.h"
#include "snapshot/image_store.h"

namespace catalyzer::prefetch {
namespace {

using sandbox::BootResult;
using sandbox::FunctionArtifacts;
using sandbox::FunctionRegistry;
using sandbox::Machine;

//
// WorkingSetManifest: merging, freezing, serialization.
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

TEST(WorkingSetManifestTest, SerializeRoundTrip)
{
    WorkingSetManifest manifest("django", 7, 3, 0.6);
    manifest.addTrace({4, 8, 15, 16});
    manifest.addTrace({8, 4, 23, 42});

    const std::string blob = manifest.serialize();
    auto copy = WorkingSetManifest::deserialize(blob);
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->functionName(), "django");
    EXPECT_EQ(copy->imageGeneration(), 7u);
    EXPECT_EQ(copy->maxTraces(), 3u);
    EXPECT_DOUBLE_EQ(copy->minFraction(), 0.6);
    EXPECT_EQ(copy->traceCount(), 2u);
    EXPECT_EQ(copy->stableSet(), manifest.stableSet());
    EXPECT_TRUE(copy->matches(7));
    EXPECT_FALSE(copy->matches(8));
}

TEST(WorkingSetManifestTest, DeserializeRejectsMalformed)
{
    EXPECT_EQ(WorkingSetManifest::deserialize(""), nullptr);
    EXPECT_EQ(WorkingSetManifest::deserialize("not-a-manifest"), nullptr);

    WorkingSetManifest manifest("fn", 1, 2, 0.5);
    manifest.addTrace({1, 2, 3});
    std::string blob = manifest.serialize();

    // Unsupported version.
    std::string bad_version = blob;
    const auto vpos = bad_version.find("v1");
    ASSERT_NE(vpos, std::string::npos);
    bad_version.replace(vpos, 2, "v9");
    EXPECT_EQ(WorkingSetManifest::deserialize(bad_version), nullptr);

    // Truncated body.
    const std::string truncated = blob.substr(0, blob.size() / 2);
    EXPECT_EQ(WorkingSetManifest::deserialize(truncated), nullptr);
}

//
// FaultRecorder: window filtering, ordering, audit grading.
//

TEST(FaultRecorderTest, RecordsWindowRelativeFirstAccessOrder)
{
    FaultRecorder recorder(/*window_start=*/100, /*window_pages=*/50);
    recorder.onFault(105, false, mem::FaultResult::BaseFill);
    recorder.onFault(103, true, mem::FaultResult::Cow);
    recorder.onFault(105, false, mem::FaultResult::BaseHit); // duplicate
    recorder.onFault(99, false, mem::FaultResult::MinorAnon);  // below
    recorder.onFault(150, false, mem::FaultResult::MinorAnon); // above
    recorder.onFault(100, false, mem::FaultResult::BaseFill);
    EXPECT_EQ(recorder.accessedInOrder(),
              (std::vector<mem::PageIndex>{5, 3, 0}));
}

TEST(FaultRecorderTest, AuditGradesPrefetchedSet)
{
    sim::StatRegistry stats;
    FaultRecorder recorder(0, 100);
    recorder.enableAudit({5, 3, 42}); // 42 is never accessed: wasted
    recorder.onFault(5, false, mem::FaultResult::BaseHit);
    recorder.onFault(3, false, mem::FaultResult::BaseHit);
    recorder.onFault(7, false, mem::FaultResult::BaseFill); // missed
    recorder.finish(stats);
    EXPECT_FALSE(recorder.active());
    EXPECT_EQ(stats.value("prefetch.demand_faults_avoided"), 2);
    EXPECT_EQ(stats.value("prefetch.wasted_pages"), 1);
    const auto *series = stats.findHistogram("prefetch.manifest_hit_rate");
    ASSERT_NE(series, nullptr);
    EXPECT_NEAR(series->mean(), 2.0 / 3.0, 1e-9);

    // finish() is idempotent; later faults are ignored.
    recorder.onFault(9, false, mem::FaultResult::BaseFill);
    recorder.finish(stats);
    EXPECT_EQ(stats.value("prefetch.demand_faults_avoided"), 2);
}

TEST(FaultRecorderTest, RecordingMergesTraceIntoManifest)
{
    sim::StatRegistry stats;
    auto manifest = std::make_shared<WorkingSetManifest>("fn", 1, 3, 0.5);
    FaultRecorder recorder(1000, 64);
    recorder.enableRecording(manifest);
    recorder.onFault(1004, false, mem::FaultResult::BaseFill);
    recorder.onFault(1001, true, mem::FaultResult::Cow);
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
// ImageStore: manifests travel with the func-image.
//

TEST(ImageStoreManifestTest, PublishFetchDrop)
{
    sim::SimContext ctx(3);
    snapshot::ImageStore store(ctx);

    WorkingSetManifest manifest("django", 2, 3, 0.5);
    manifest.addTrace({1, 2, 3});
    EXPECT_FALSE(store.hasManifest("django"));
    store.publishManifest(manifest);
    EXPECT_TRUE(store.hasManifest("django"));
    EXPECT_EQ(store.manifestCount(), 1u);

    const sim::SimTime before = ctx.now();
    auto fetched = store.fetchManifest("django");
    ASSERT_NE(fetched, nullptr);
    EXPECT_EQ(ctx.now() - before, ctx.costs().workingSetManifestIo);
    EXPECT_EQ(fetched->stableSet(), manifest.stableSet());
    EXPECT_EQ(fetched->imageGeneration(), 2u);

    store.dropManifest("django");
    EXPECT_FALSE(store.hasManifest("django"));
    EXPECT_EQ(store.fetchManifest("django"), nullptr);
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
    // What ServerlessPlatform::reclaimFunctionMemory does: drop the
    // Base-EPT and the image's page cache so the next boot is fully
    // cold again.
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

    // The stale manifest was dropped (store included) and re-recording
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

TEST(RuntimePrefetchTest, ManifestPublishedToImageStore)
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
    EXPECT_FALSE(runtime.images().hasManifest("python-hello"));
    evictRestoreState(fn);
    runtime.bootCold(fn);
    EXPECT_TRUE(runtime.images().hasManifest("python-hello"));
    EXPECT_EQ(machine.ctx().stats().value("snapshot.manifests_published"),
              1);
}

//
// Platform: reclaiming restore memory, affordable under prefetch.
//

TEST(PlatformReclaimTest, RefusedWhileInstancesLive)
{
    sandbox::Machine machine(42);
    platform::ServerlessPlatform plat(
        machine,
        platform::PlatformConfig{platform::BootStrategy::CatalyzerCold});
    plat.deploy(apps::appByName("python-hello"));
    plat.invoke("python-hello"); // retained as a running instance
    EXPECT_EQ(plat.reclaimFunctionMemory("python-hello"), 0u);
    EXPECT_EQ(plat.reclaimFunctionMemory("no-such-function"), 0u);

    plat.teardown("python-hello");
    const std::size_t released =
        plat.reclaimFunctionMemory("python-hello");
    EXPECT_GT(released, 0u);
    auto &fn = plat.registry().artifactsFor(
        apps::appByName("python-hello"));
    EXPECT_EQ(fn.sharedBase, nullptr);
    EXPECT_EQ(fn.separatedImage->file().residentPages(), 0u);
    EXPECT_FALSE(fn.firstRestoreDone);
    EXPECT_EQ(machine.ctx().stats().value("platform.base_reclaims"), 1);

    // The function still serves requests afterwards.
    const auto record = plat.invoke("python-hello");
    EXPECT_GT(record.endToEnd().toMs(), 0.0);
}

TEST(PlatformReclaimTest, PolicyReclaimsColdBases)
{
    sandbox::Machine machine(42);
    core::CatalyzerOptions options;
    options.prefetchWorkingSet = true;
    platform::PlatformConfig config{
        platform::BootStrategy::CatalyzerCold};
    config.retainInstances = false; // instances die after the request
    platform::ServerlessPlatform plat(machine, config, options);
    platform::PolicyConfig policy;
    policy.reclaimColdBases = true;
    platform::BootPolicyManager mgr(plat, policy);

    plat.deploy(apps::appByName("python-hello"));
    mgr.invoke("python-hello");
    ASSERT_NE(plat.registry()
                  .artifactsFor(apps::appByName("python-hello"))
                  .sharedBase,
              nullptr);

    // Traffic decays to the cold floor; the base is then reclaimed.
    for (int i = 0; i < 10; ++i)
        mgr.rebalance();
    EXPECT_GE(machine.ctx().stats().value("platform.base_reclaims"), 1);
    EXPECT_EQ(plat.registry()
                  .artifactsFor(apps::appByName("python-hello"))
                  .sharedBase,
              nullptr);

    // The next request cold-boots with a prefetched working set.
    mgr.invoke("python-hello");
    EXPECT_GT(machine.ctx().stats().value("prefetch.pages_prefetched"),
              0);
}

} // namespace
} // namespace catalyzer::prefetch
