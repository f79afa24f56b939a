/**
 * @file
 * Unit tests for func-images, checkpointing and the baseline eager
 * restore engine.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "guest/guest_kernel.h"
#include "mem/address_space.h"
#include "objgraph_testing.h"
#include "snapshot/func_image.h"
#include "snapshot/io_reconnect.h"
#include "snapshot/restore_baseline.h"

namespace catalyzer::snapshot {
namespace {

using sim::SimContext;

GuestState
makeState(SimContext &ctx, const apps::AppProfile &app)
{
    GuestState state;
    state.app = &app;
    state.kernelGraph = objgraph::ObjectGraph::synthesize(
        ctx.rng(), app.graphSpec());
    for (std::size_t i = 0; i < app.ioConnections; ++i) {
        vfs::IoConnection conn;
        conn.id = i + 1;
        conn.kind = i % 4 == 1 ? vfs::ConnKind::Socket
                               : vfs::ConnKind::File;
        conn.path = "/app/data/conn" + std::to_string(i);
        conn.established = true;
        conn.usedAtStartup = i < app.ioConnections / 4;
        conn.usedByRequests = i % 2 == 0;
        state.ioConns.push_back(std::move(conn));
    }
    state.memoryPages = app.heapPages();
    return state;
}

class SnapshotTest : public ::testing::Test
{
  protected:
    SimContext ctx;
    mem::FrameStore frames;
    const apps::AppProfile &app = apps::appByName("python-hello");
};

TEST_F(SnapshotTest, CompressedImageIsSmallerOnDisk)
{
    CheckpointEngine engine(ctx);
    GuestState state = makeState(ctx, app);
    auto proto = engine.capture(frames, "fn",
                                ImageFormat::CompressedProto, state);
    auto separated = engine.capture(
        frames, "fn", ImageFormat::SeparatedWellFormed, state);
    // The well-formed image trades storage for mmap-ability (Sec. 4.3).
    EXPECT_GT(separated->totalPages(), proto->totalPages());
    EXPECT_EQ(separated->memorySectionPages(), state.memoryPages);
    EXPECT_LT(proto->memorySectionPages(), state.memoryPages);
}

TEST_F(SnapshotTest, FormatAccessorsAreGuarded)
{
    CheckpointEngine engine(ctx);
    GuestState state = makeState(ctx, app);
    auto proto = engine.capture(frames, "fn",
                                ImageFormat::CompressedProto, state);
    EXPECT_DEATH(proto->separated(), "no separated payload");
    auto sep = engine.capture(frames, "fn",
                              ImageFormat::SeparatedWellFormed, state);
    EXPECT_DEATH(sep->proto(), "no proto payload");
}

TEST_F(SnapshotTest, CheckpointChargesOfflineWork)
{
    CheckpointEngine engine(ctx);
    GuestState state = makeState(ctx, app);
    engine.capture(frames, "fn", ImageFormat::CompressedProto, state);
    EXPECT_EQ(ctx.stats().value("snapshot.serialized_objects"),
              static_cast<std::int64_t>(state.kernelGraph.objectCount()));
    EXPECT_GT(ctx.stats().value("snapshot.compressed_pages"), 0);
}

TEST_F(SnapshotTest, EagerRestoreRebuildsEverything)
{
    CheckpointEngine engine(ctx);
    GuestState state = makeState(ctx, app);
    auto image = engine.capture(frames, "fn",
                                ImageFormat::CompressedProto, state);

    guest::GuestKernel guest(ctx, "restored");
    mem::AddressSpace space(ctx, frames, "restored");
    EagerRestoreEngine restorer(ctx);
    trace::BootReport report;
    report.start(ctx.clock());
    restorer.restore(*image, guest, space, nullptr, report);

    // The guest state is a faithful copy.
    EXPECT_TRUE(objgraph::sameGraph(guest.state(), state.kernelGraph));
    // All connections re-established eagerly.
    EXPECT_EQ(guest.io().count(), state.ioConns.size());
    EXPECT_TRUE(std::ranges::all_of(guest.io().all(),
                                    &vfs::IoConnection::established));
    // All memory loaded eagerly.
    EXPECT_EQ(space.privatePages(), state.memoryPages);
    // Every phase took time, booked as one app-init stage each.
    const auto &stages = report.stages();
    ASSERT_EQ(stages.size(), 3u);
    EXPECT_EQ(stages[0].name, "restore-app-memory");
    EXPECT_EQ(stages[1].name, "restore-kernel");
    EXPECT_EQ(stages[2].name, "restore-reconnect-io");
    for (const trace::BootStage &stage : stages) {
        EXPECT_GT(stage.time.toNs(), 0) << stage.name;
        EXPECT_EQ(stage.phase, trace::BootPhase::AppInit) << stage.name;
    }
    EXPECT_EQ(report.total().toNs(),
              (stages[0].time + stages[1].time + stages[2].time).toNs());
    // Threads are back.
    EXPECT_GT(guest.threads().totalThreads(), 0);
}

TEST_F(SnapshotTest, EagerRestoreRejectsSeparatedImages)
{
    CheckpointEngine engine(ctx);
    GuestState state = makeState(ctx, app);
    auto image = engine.capture(frames, "fn",
                                ImageFormat::SeparatedWellFormed, state);
    guest::GuestKernel guest(ctx, "g");
    mem::AddressSpace space(ctx, frames, "s");
    EagerRestoreEngine restorer(ctx);
    trace::BootReport report;
    report.start(ctx.clock());
    EXPECT_DEATH(restorer.restore(*image, guest, space, nullptr, report),
                 "CompressedProto");
}

TEST(IoReconnectTest, CostsByKindAndIdempotence)
{
    SimContext ctx;
    vfs::IoConnection file{1, vfs::ConnKind::File, "/x", false, true,
                           true};
    vfs::IoConnection sock{2, vfs::ConnKind::Socket, "tcp://b:1", false,
                           true, true};
    const auto t_file = reconnectConnection(ctx, file, nullptr);
    const auto t_sock = reconnectConnection(ctx, sock, nullptr);
    EXPECT_TRUE(file.established);
    EXPECT_TRUE(sock.established);
    // Sockets pay the reconnect handshake and cost more than files.
    EXPECT_GT(t_sock.toUs(), t_file.toUs());
    // Re-reconnecting is free.
    EXPECT_EQ(reconnectConnection(ctx, file, nullptr).toNs(), 0);
    EXPECT_EQ(ctx.stats().value("snapshot.io_reconnects"), 2);
}

TEST(ImageFormatTest, Names)
{
    EXPECT_STREQ(imageFormatName(ImageFormat::CompressedProto),
                 "compressed-proto");
    EXPECT_STREQ(imageFormatName(ImageFormat::SeparatedWellFormed),
                 "separated-well-formed");
}

} // namespace
} // namespace catalyzer::snapshot
