#include "vfs/fs_server.h"

#include "sim/logging.h"
#include "sim/metric_catalog.h"
#include "vfs/dup_model.h"

namespace catalyzer::vfs {

FsServer::FsServer(sim::SimContext &ctx, InodeTree rootfs)
    : ctx_(ctx), rootfs_(std::move(rootfs))
{
}

void
FsServer::chargeDup()
{
    bool expanded = false;
    server_fds_.allocate(FdEntry{FdKind::File, "<dup>", true, true, 0},
                         &expanded);
    vfs::chargeDup(ctx_, expanded, /*lazy=*/true);
}

bool
FsServer::openReadOnly(const std::string &path, FdEntry *out)
{
    const auto &costs = ctx_.costs();
    ctx_.chargeCounted(metrics::kVfsGoferRpcs, costs.goferRpc);
    const Inode *node = rootfs_.lookup(path);
    if (!node || node->isDir)
        return false;
    ctx_.chargeCounted(metrics::kVfsOpens, costs.openFile);
    chargeDup();
    if (out)
        *out = FdEntry{FdKind::File, path, true, true, 0};
    return true;
}

FdEntry
FsServer::grantLogFile(const std::string &path)
{
    const auto &costs = ctx_.costs();
    ctx_.chargeCounted(metrics::kVfsGoferRpcs, costs.goferRpc);
    if (!rootfs_.exists(path))
        rootfs_.addFile(path, 0);
    ctx_.chargeCounted(metrics::kVfsOpens, costs.openFile);
    chargeDup();
    return FdEntry{FdKind::LogFile, path, false, true, 0};
}

} // namespace catalyzer::vfs
