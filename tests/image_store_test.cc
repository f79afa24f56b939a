/**
 * @file
 * Tests for func-image storage: remote fetch, local caching, integrity
 * verification and the corrupted-image fallback path.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "catalyzer/runtime.h"
#include "net/fabric.h"
#include "objgraph_testing.h"
#include "remote/template_registry.h"
#include "sandbox/pipelines.h"
#include "snapshot/image_store.h"

namespace catalyzer::snapshot {
namespace {

using sandbox::FunctionArtifacts;
using sandbox::FunctionRegistry;
using sandbox::Machine;

std::shared_ptr<FuncImage>
buildImage(FunctionRegistry &registry, const char *app)
{
    return sandbox::ensureSeparatedImage(
        registry.artifactsFor(apps::appByName(app)));
}

TEST(ImageStoreTest, FetchUnknownReturnsNull)
{
    Machine machine(1);
    ImageStore store(machine.ctx());
    EXPECT_EQ(store.fetch("nope", ImageFormat::SeparatedWellFormed),
              nullptr);
}

TEST(ImageStoreTest, PublishThenLocalFetchIsFree)
{
    Machine machine(1);
    FunctionRegistry registry(machine);
    ImageStore store(machine.ctx());
    store.publish(buildImage(registry, "c-hello"));

    const auto before = machine.ctx().now();
    auto image = store.fetch("c-hello", ImageFormat::SeparatedWellFormed);
    ASSERT_NE(image, nullptr);
    EXPECT_EQ(machine.ctx().now(), before); // local hit: no charge
    EXPECT_EQ(machine.ctx().stats().value("snapshot.image_local_hits"),
              1);
}

TEST(ImageStoreTest, RemoteFetchPaysNetworkOnce)
{
    Machine machine(1);
    FunctionRegistry registry(machine);
    ImageStore store(machine.ctx());
    auto image = buildImage(registry, "python-hello");
    store.publish(image);
    store.evictLocal("python-hello", ImageFormat::SeparatedWellFormed);
    EXPECT_EQ(machine.ctx().stats().value("image.evictions"), 1);

    const auto before = machine.ctx().now();
    auto fetched =
        store.fetch("python-hello", ImageFormat::SeparatedWellFormed);
    ASSERT_EQ(fetched.get(), image.get());
    const double fetch_ms = (machine.ctx().now() - before).toMs();
    // ~20 MB image over the network: tens of ms.
    EXPECT_GT(fetch_ms, 5.0);
    EXPECT_EQ(machine.ctx().stats().value(
                  "snapshot.image_remote_fetches"), 1);

    // Second fetch is local.
    const auto mid = machine.ctx().now();
    store.fetch("python-hello", ImageFormat::SeparatedWellFormed);
    EXPECT_EQ(machine.ctx().now(), mid);
}

TEST(ImageStoreTest, FlatCompatFabricFetchIsBitIdentical)
{
    // Satellite regression for the fabric refactor: routing fetch()
    // through a flat-compat net::Fabric must leave the default fetch
    // latency and counters exactly as the legacy flat charge, whether
    // the store owns the fabric (standalone machine) or a Cluster
    // attached one.
    auto run = [](bool attach) {
        Machine machine(7);
        FunctionRegistry registry(machine);
        ImageStore store(machine.ctx());
        net::Fabric fabric; // default: modelTransfers off
        if (attach)
            store.attachFabric(&fabric, 0);
        store.publish(buildImage(registry, "python-django"));
        store.evictLocal("python-django",
                         ImageFormat::SeparatedWellFormed);
        const auto before = machine.ctx().now();
        store.fetch("python-django", ImageFormat::SeparatedWellFormed);
        return machine.ctx().now() - before;
    };
    const sim::SimTime attached = run(true);
    const sim::SimTime unattached = run(false);
    EXPECT_EQ(attached, unattached);

    // And both equal the legacy formula: flat per-MiB charge plus the
    // manifest parse.
    Machine machine(7);
    FunctionRegistry registry(machine);
    auto image = buildImage(registry, "python-django");
    const auto mib = static_cast<std::int64_t>(
        mem::bytesForPages(image->totalPages()) >> 20);
    const sim::SimTime legacy =
        machine.ctx().costs().networkFetchPerMiB *
            std::max<std::int64_t>(mib, 1) +
        machine.ctx().costs().imageManifestParse;
    EXPECT_EQ(attached, legacy);
}

TEST(ImageStoreTest, P2PFetchStreamsFromNearestReplica)
{
    // Two machines on a modeled fabric: machine 1 fetches from origin
    // (registering itself as a replica), machine 0 then fetches from
    // machine 1 instead of origin — faster, because peers stream at
    // full NIC bandwidth while origin is the shared blob store.
    net::FabricConfig config;
    config.modelTransfers = true;
    config.p2pImages = true;
    net::Fabric fabric(config);
    remote::TemplateRegistry registry(&fabric);

    Machine m0(7), m1(8);
    FunctionRegistry f0(m0), f1(m1);
    ImageStore s0(m0.ctx()), s1(m1.ctx());
    s0.attachFabric(&fabric, 0, &registry);
    s1.attachFabric(&fabric, 1, &registry);

    // Images are built per machine (BackingFiles are machine-local)
    // and published under the same key.
    s0.publish(buildImage(f0, "python-django"));
    s0.evictLocal("python-django", ImageFormat::SeparatedWellFormed);
    s1.publish(buildImage(f1, "python-django"));
    s1.evictLocal("python-django", ImageFormat::SeparatedWellFormed);

    const auto t1 = m1.ctx().now();
    s1.fetch("python-django", ImageFormat::SeparatedWellFormed);
    const sim::SimTime origin_fetch = m1.ctx().now() - t1;
    EXPECT_EQ(m1.ctx().stats().value("snapshot.p2p_fetches"), 0);

    const auto t0 = m0.ctx().now();
    s0.fetch("python-django", ImageFormat::SeparatedWellFormed);
    const sim::SimTime p2p_fetch = m0.ctx().now() - t0;
    EXPECT_EQ(m0.ctx().stats().value("snapshot.p2p_fetches"), 1);
    EXPECT_LT(p2p_fetch, origin_fetch);
    EXPECT_GT(m0.ctx().stats().value("net.transfers"), 0);
}

TEST(ImageStoreTest, VerifyDetectsCorruption)
{
    Machine machine(1);
    FunctionRegistry registry(machine);
    auto image = buildImage(registry, "c-hello");
    EXPECT_TRUE(verifyImage(machine.ctx(), *image));
    image->markCorrupted();
    EXPECT_FALSE(verifyImage(machine.ctx(), *image));
    EXPECT_GT(machine.ctx().stats().value(
                  "snapshot.pages_checksummed"), 0);
    EXPECT_EQ(machine.ctx().stats().value(
                  "snapshot.corrupt_images_detected"), 1);
}

TEST(ImageStoreTest, RuntimeRemoteImagesChargeFirstColdBoot)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.remoteImages = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &fn = registry.artifactsFor(apps::appByName("python-hello"));

    runtime.bootCold(fn);
    EXPECT_EQ(machine.ctx().stats().value(
                  "snapshot.image_remote_fetches"), 1);
    runtime.bootCold(fn);
    // Still one: the image is now local.
    EXPECT_EQ(machine.ctx().stats().value(
                  "snapshot.image_remote_fetches"), 1);
}

TEST(ImageStoreTest, RuntimeRebuildsCorruptImage)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.verifyImages = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &fn = registry.artifactsFor(apps::appByName("c-hello"));

    // Healthy boot first; then rot the image on storage.
    auto first = runtime.bootCold(fn);
    EXPECT_EQ(machine.ctx().stats().value("catalyzer.image_rebuilds"), 0);
    fn.separatedImage->markCorrupted();

    auto second = runtime.bootCold(fn);
    ASSERT_NE(second.instance, nullptr);
    EXPECT_EQ(machine.ctx().stats().value("catalyzer.image_rebuilds"), 1);
    EXPECT_FALSE(fn.separatedImage->corrupted());
    // The restored guest still has valid state.
    EXPECT_TRUE(
        objgraph::refsPointBackward(second.instance->guest().state()));
    // Local build: no remote round-trip to pay after the rebuild.
    EXPECT_EQ(machine.ctx().stats().value(
                  "catalyzer.image_refetch_after_rebuild"), 0);
}

TEST(ImageStoreTest, RebuildInvalidatesTheSharedBase)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.verifyImages = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &fn = registry.artifactsFor(apps::appByName("c-nginx"));

    runtime.bootWarm(fn);
    const auto old_base = fn.sharedBase;
    ASSERT_NE(old_base, nullptr);
    // The Base-EPT over the rotten image must not serve the next boot:
    // the rebuild drops it and the boot maps the rebuilt image afresh.
    fn.separatedImage->markCorrupted();
    runtime.bootWarm(fn);
    EXPECT_EQ(machine.ctx().stats().value("catalyzer.image_rebuilds"), 1);
    ASSERT_NE(fn.sharedBase, nullptr);
    EXPECT_NE(fn.sharedBase, old_base);
}

TEST(ImageStoreTest, RebuildUnderRemoteImagesPaysRefetch)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.remoteImages = true;
    options.verifyImages = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &stats = machine.ctx().stats();
    auto &fn = registry.artifactsFor(apps::appByName("c-hello"));

    runtime.bootCold(fn);
    EXPECT_EQ(stats.value("snapshot.image_remote_fetches"), 1);
    fn.separatedImage->markCorrupted();

    // The rebuild path must be symmetric with the initial publish: the
    // clean image goes to remote storage, the local copy is evicted,
    // and this boot pays the re-fetch.
    auto second = runtime.bootCold(fn);
    ASSERT_NE(second.instance, nullptr);
    EXPECT_EQ(stats.value("catalyzer.image_rebuilds"), 1);
    EXPECT_EQ(stats.value("catalyzer.image_refetch_after_rebuild"), 1);
    EXPECT_EQ(stats.value("snapshot.image_remote_fetches"), 2);
    EXPECT_FALSE(fn.separatedImage->corrupted());
    EXPECT_TRUE(
        objgraph::refsPointBackward(second.instance->guest().state()));
}

TEST(ImageStoreTest, ChunkedEvictThenRefetchRepaysAssemblyNotNetwork)
{
    // Evicting the assembled image drops the local copy, not the chunk
    // tiers: the refetch is a real fetch again (charged, counted) but
    // every chunk comes out of RAM, so no new bytes cross the network.
    Machine machine(11);
    FunctionRegistry registry(machine);
    ImageStore store(machine.ctx());
    store.publish(buildImage(registry, "python-django"));
    store.evictLocal("python-django", ImageFormat::SeparatedWellFormed);
    ChunkStoreConfig config;
    config.enabled = true;
    // Hold the whole ~81 MiB image in the RAM tier so the refetch hits
    // memory, not the SSD spillover.
    config.ramBudgetBytes = 256u << 20;
    store.configureChunks(config);
    auto &stats = machine.ctx().stats();

    store.fetch("python-django", ImageFormat::SeparatedWellFormed);
    const auto transferred =
        stats.value("image.chunks.bytes_transferred");
    EXPECT_GT(transferred, 0);

    store.evictLocal("python-django", ImageFormat::SeparatedWellFormed);
    EXPECT_EQ(stats.value("image.evictions"), 2);
    const auto before = machine.ctx().now();
    store.fetch("python-django", ImageFormat::SeparatedWellFormed);
    EXPECT_GT(machine.ctx().now(), before); // re-paid, not a free hit
    EXPECT_EQ(stats.value("image.fetch.remote"), 2);
    EXPECT_EQ(stats.value("image.chunks.bytes_transferred"),
              transferred); // ...but nothing new crossed the network
    EXPECT_GT(stats.value("image.chunks.ram_hits"), 0);
}

TEST(ImageStoreTest, RepublishInvalidatesStaleCopiesOnOtherMachines)
{
    // Machine 0 rebuilds and republishes a function; machine 1's cached
    // copy of the old build must turn stale and refetch instead of
    // serving the outdated image.
    net::Fabric fabric;
    remote::TemplateRegistry directory(&fabric);
    Machine m0(7), m1(8);
    FunctionRegistry f0(m0), f1(m1);
    ImageStore s0(m0.ctx()), s1(m1.ctx());
    s0.attachFabric(&fabric, 0, &directory);
    s1.attachFabric(&fabric, 1, &directory);

    s0.publish(buildImage(f0, "c-hello"));
    s1.publish(buildImage(f1, "c-hello"));
    s1.evictLocal("c-hello", ImageFormat::SeparatedWellFormed);
    s1.fetch("c-hello", ImageFormat::SeparatedWellFormed);
    EXPECT_EQ(m1.ctx().stats().value("snapshot.image_remote_fetches"),
              1);

    // Same-generation publishes from different machines (each machine
    // announcing its own build) must NOT invalidate anything.
    s1.fetch("c-hello", ImageFormat::SeparatedWellFormed);
    EXPECT_EQ(m1.ctx().stats().value("image.fetch.stale_drops"), 0);

    // Rebuild on machine 0: a new generation under the same key.
    auto &artifacts = f0.artifactsFor(apps::appByName("c-hello"));
    const auto old_generation = artifacts.separatedImage->generation();
    artifacts.separatedImage.reset();
    auto rebuilt = buildImage(f0, "c-hello");
    ASSERT_NE(rebuilt->generation(), old_generation);
    s0.publish(rebuilt);

    // Machine 1's cached copy is now stale: the next fetch drops it
    // and pays the transfer again.
    s1.fetch("c-hello", ImageFormat::SeparatedWellFormed);
    EXPECT_EQ(m1.ctx().stats().value("image.fetch.stale_drops"), 1);
    EXPECT_EQ(m1.ctx().stats().value("snapshot.image_remote_fetches"),
              2);
}

} // namespace
} // namespace catalyzer::snapshot
