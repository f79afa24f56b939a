/**
 * @file
 * Stateless overlay rootFS (paper Sec. 4.2).
 *
 * Two layers: an in-memory writable upper layer private to the sandbox,
 * and the read-only lower layer served by the per-function FsServer.
 * All modifications live in memory, so sfork clones the whole filesystem
 * state by COW at constant cost; read-only descriptors from the server
 * remain valid in the child.
 */

#ifndef CATALYZER_VFS_OVERLAY_ROOTFS_H
#define CATALYZER_VFS_OVERLAY_ROOTFS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "sim/context.h"
#include "vfs/fs_server.h"

namespace catalyzer::vfs {

/**
 * One sandbox's view of its root filesystem.
 *
 * write() follows overlayfs semantics: the first write copies the file
 * up into memory; reads (exists(), sizeOf()) fall through to the lower
 * layer for files never written. clone() (for sfork) is constant-cost.
 */
class OverlayRootfs
{
  public:
    OverlayRootfs(sim::SimContext &ctx, FsServer &lower);

    /**
     * Append @p bytes to a file (write syscall path), copying it up from
     * the lower layer on first write, or creating it if absent.
     */
    void write(const std::string &path, std::size_t bytes);

    /** True if visible in this view. */
    bool exists(const std::string &path) const;

    /** Size as seen through the overlay; 0 if absent. */
    std::size_t sizeOf(const std::string &path) const;

    /**
     * sfork support: duplicate the view. The upper layer's pages live in
     * sandbox anonymous memory, which the address-space fork already
     * COWs, so this only copies metadata at constant modelled cost.
     */
    std::unique_ptr<OverlayRootfs> clone() const;

    /** Bytes held by the upper layer (memory accounting). */
    std::size_t upperBytes() const;

    std::size_t upperFileCount() const { return upper_.size(); }
    FsServer &lower() { return lower_; }

  private:
    /** Copy @p path up from the lower layer, or create it empty;
     *  returns its size. */
    std::size_t copyUp(const std::string &path);

    sim::SimContext &ctx_;
    FsServer &lower_;
    /** Upper-layer files held in sandbox memory: path -> size. */
    std::map<std::string, std::size_t> upper_;
};

} // namespace catalyzer::vfs

#endif // CATALYZER_VFS_OVERLAY_ROOTFS_H
