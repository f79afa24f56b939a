#include "vfs/overlay_rootfs.h"

#include <algorithm>

#include "mem/types.h"
#include "sim/metric_catalog.h"

namespace catalyzer::vfs {

OverlayRootfs::OverlayRootfs(sim::SimContext &ctx, FsServer &lower)
    : ctx_(ctx), lower_(lower)
{
}

std::size_t
OverlayRootfs::copyUp(const std::string &path)
{
    // Copy-up (or fresh create). Copy-up cost scales with file size.
    const Inode *node = lower_.rootfs().lookup(path);
    if (node && !node->isDir) {
        const auto pages = static_cast<std::int64_t>(
            mem::pagesForBytes(node->sizeBytes));
        ctx_.stats().incr(metrics::kVfsOverlayCopyups);
        ctx_.charge(ctx_.costs().goferRpc);
        ctx_.charge(ctx_.costs().memcpyPerPage * pages);
        return node->sizeBytes;
    }
    ctx_.stats().incr(metrics::kVfsOverlayCreates);
    ctx_.charge(ctx_.costs().syscallBase);
    return 0;
}

void
OverlayRootfs::write(const std::string &path, std::size_t bytes)
{
    auto [it, inserted] = upper_.try_emplace(path);
    if (inserted)
        it->second = copyUp(path);
    it->second += bytes;
    const auto pages = static_cast<std::int64_t>(
        mem::pagesForBytes(bytes));
    ctx_.chargeCounted(metrics::kVfsOverlayWrites,
                       ctx_.costs().syscallBase +
                           ctx_.costs().memcpyPerPage * std::max<
                               std::int64_t>(pages, 1));
}

std::unique_ptr<OverlayRootfs>
OverlayRootfs::clone() const
{
    auto child = std::make_unique<OverlayRootfs>(ctx_, lower_);
    child->upper_ = upper_;
    ctx_.chargeCounted(metrics::kVfsOverlayClones, ctx_.costs().overlayFsClone);
    return child;
}

} // namespace catalyzer::vfs
