/**
 * @file
 * Unit tests for the VFS substrate: inode tree, fd table, FS server,
 * overlay rootfs and the I/O connection registry.
 */

#include <gtest/gtest.h>

#include "sim/context.h"
#include "vfs/dup_model.h"
#include "vfs/fd_table.h"
#include "vfs/fs_server.h"
#include "vfs/inode_tree.h"
#include "vfs/io_connection.h"
#include "vfs/overlay_rootfs.h"

namespace catalyzer::vfs {
namespace {

using sim::SimContext;

TEST(InodeTreeTest, FilesAndImplicitParents)
{
    InodeTree tree;
    tree.addFile("/a/b/c.txt", 100);
    EXPECT_TRUE(tree.exists("/a/b/c.txt"));
    const Inode *dir = tree.lookup("/a/b");
    ASSERT_NE(dir, nullptr);
    EXPECT_TRUE(dir->isDir);
    EXPECT_EQ(tree.fileCount(), 1u);
    EXPECT_EQ(tree.totalBytes(), 100u);
    EXPECT_FALSE(tree.exists("/a/b/missing.txt"));
    EXPECT_EQ(tree.lookup("/x"), nullptr);
}

TEST(InodeTreeTest, BadPathsPanic)
{
    InodeTree tree;
    EXPECT_DEATH(tree.addFile("relative", 1), "bad path");
    EXPECT_DEATH(tree.addFile("/trailing/", 1), "bad path");
}

TEST(InodeTreeTest, FilesUnderPrefix)
{
    InodeTree tree;
    tree.addFile("/app/a", 1);
    tree.addFile("/app/b", 1);
    tree.addFile("/etc/c", 1);
    EXPECT_EQ(tree.filesUnder("/app/").size(), 2u);
}

TEST(InodeTreeTest, UnionOverlayWins)
{
    InodeTree base;
    base.addFile("/f", 10);
    InodeTree overlay;
    overlay.addFile("/f", 20);
    overlay.addFile("/g", 5);
    base.unionWith(overlay);
    EXPECT_EQ(base.lookup("/f")->sizeBytes, 20u);
    EXPECT_TRUE(base.exists("/g"));
}

TEST(FdTableTest, LowestFreeAllocation)
{
    FdTable fds;
    EXPECT_EQ(fds.allocate(FdEntry{}), 0);
    EXPECT_EQ(fds.allocate(FdEntry{}), 1);
    fds.close(0);
    EXPECT_EQ(fds.allocate(FdEntry{}), 0);
    EXPECT_EQ(fds.inUse(), 2u);
}

TEST(FdTableTest, AllocateAtLeast)
{
    FdTable fds;
    EXPECT_EQ(fds.allocateAtLeast(10, FdEntry{}), 10);
    EXPECT_EQ(fds.allocateAtLeast(10, FdEntry{}), 11);
}

TEST(FdTableTest, ExpansionDoublesCapacity)
{
    FdTable fds;
    bool expanded = false;
    for (std::size_t i = 0; i < FdTable::kInitialCapacity; ++i) {
        fds.allocate(FdEntry{}, &expanded);
        EXPECT_FALSE(expanded);
    }
    EXPECT_TRUE(fds.nextAllocationExpands());
    fds.allocate(FdEntry{}, &expanded);
    EXPECT_TRUE(expanded);
    EXPECT_EQ(fds.capacity(), 2 * FdTable::kInitialCapacity);
}

TEST(FdTableTest, DoubleClosePanics)
{
    FdTable fds;
    const int fd = fds.allocate(FdEntry{});
    fds.close(fd);
    EXPECT_DEATH(fds.close(fd), "not open");
}

TEST(FdTableTest, CloneInheritsDescriptors)
{
    FdTable fds;
    fds.allocate(FdEntry{FdKind::File, "/x", true, true, 0});
    FdTable child = fds.clone();
    ASSERT_NE(child.get(0), nullptr);
    EXPECT_EQ(child.get(0)->path, "/x");
    EXPECT_EQ(child.inUse(), 1u);
}

TEST(FdTableTest, AllocateAtLeastBeyondCapacityDoubles)
{
    FdTable fds;
    bool expanded = false;
    EXPECT_EQ(fds.allocateAtLeast(200, FdEntry{}, &expanded), 200);
    EXPECT_TRUE(expanded);
    EXPECT_EQ(fds.capacity(), 4 * FdTable::kInitialCapacity);
    EXPECT_FALSE(fds.valid(199));
    EXPECT_EQ(fds.allocate(FdEntry{}, &expanded), 0);
    EXPECT_FALSE(expanded);
    EXPECT_FALSE(fds.valid(-1));
    EXPECT_FALSE(fds.valid(1000));
}

TEST(DupModelTest, LazyBeatsExpansion)
{
    SimContext ctx;
    const auto lazy = chargeDup(ctx, true, true);
    const auto expand = chargeDup(ctx, true, false);
    EXPECT_LT(lazy.toUs(), expand.toUs());
    EXPECT_EQ(ctx.stats().value("vfs.lazy_dups"), 1);
}

TEST(FsServerTest, OpenExistingAndMissing)
{
    SimContext ctx;
    InodeTree tree;
    tree.addFile("/app/x", 64);
    FsServer server(ctx, std::move(tree), "gofer");
    FdEntry entry;
    EXPECT_TRUE(server.openReadOnly("/app/x", &entry));
    EXPECT_TRUE(entry.readOnly);
    EXPECT_FALSE(server.openReadOnly("/app/missing", &entry));
    EXPECT_GT(ctx.stats().value("vfs.gofer_rpcs"), 0);
}

TEST(FsServerTest, LogGrantCreatesFile)
{
    SimContext ctx;
    FsServer server(ctx, InodeTree{}, "gofer");
    const FdEntry entry = server.grantLogFile("/var/log/app.log");
    EXPECT_FALSE(entry.readOnly);
    EXPECT_TRUE(server.rootfs().exists("/var/log/app.log"));
}

class OverlayTest : public ::testing::Test
{
  protected:
    OverlayTest() : server(makeServer()), overlay(ctx, server) {}

    FsServer
    makeServer()
    {
        InodeTree tree;
        tree.addFile("/app/ro.txt", 8192);
        return FsServer(ctx, std::move(tree), "gofer");
    }

    SimContext ctx;
    FsServer server;
    OverlayRootfs overlay;
};

TEST_F(OverlayTest, ReadFallsThroughToLower)
{
    EXPECT_TRUE(overlay.exists("/app/ro.txt"));
    EXPECT_EQ(overlay.sizeOf("/app/ro.txt"), 8192u);
    EXPECT_FALSE(overlay.exists("/nope"));
    EXPECT_EQ(overlay.sizeOf("/nope"), 0u);
    EXPECT_EQ(overlay.upperFileCount(), 0u);
}

TEST_F(OverlayTest, WriteCopiesUp)
{
    overlay.write("/app/ro.txt", 0);
    EXPECT_EQ(ctx.stats().value("vfs.overlay_copyups"), 1);
    EXPECT_EQ(overlay.sizeOf("/app/ro.txt"), 8192u);
    EXPECT_EQ(overlay.upperFileCount(), 1u);
    // The lower layer is untouched.
    EXPECT_EQ(server.rootfs().lookup("/app/ro.txt")->sizeBytes, 8192u);
}

TEST_F(OverlayTest, WriteExtendsUpperOnly)
{
    overlay.write("/tmp/new.log", 100);
    EXPECT_EQ(overlay.sizeOf("/tmp/new.log"), 100u);
    overlay.write("/tmp/new.log", 50);
    EXPECT_EQ(overlay.sizeOf("/tmp/new.log"), 150u);
    EXPECT_FALSE(server.rootfs().exists("/tmp/new.log"));
    EXPECT_TRUE(overlay.exists("/tmp/new.log"));
    overlay.write("/tmp/other.log", 10);
    EXPECT_EQ(overlay.upperBytes(), 160u);
}

TEST_F(OverlayTest, CloneIsIndependent)
{
    overlay.write("/tmp/a", 10);
    auto child = overlay.clone();
    child->write("/tmp/a", 5);
    EXPECT_EQ(overlay.sizeOf("/tmp/a"), 10u);
    EXPECT_EQ(child->sizeOf("/tmp/a"), 15u);
    EXPECT_EQ(ctx.stats().value("vfs.overlay_clones"), 1);
}

TEST(IoConnectionTest, AddFindDrop)
{
    IoConnectionTable table;
    const auto id = table.add(ConnKind::File, "/x", true, false);
    ASSERT_NE(table.find(id), nullptr);
    EXPECT_TRUE(table.find(id)->established);
    EXPECT_EQ(table.establishedCount(), 1u);
    table.dropAll();
    EXPECT_EQ(table.establishedCount(), 0u);
    EXPECT_EQ(table.find(999), nullptr);
}

} // namespace
} // namespace catalyzer::vfs
