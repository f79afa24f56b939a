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
#include "vfs/fd_table.h"
#include "vfs/fs_server.h"

namespace catalyzer::vfs {

/** An upper-layer file held in sandbox memory. */
struct MemFile
{
    std::size_t sizeBytes = 0;
    /** Whiteout: the lower file is deleted from this sandbox's view. */
    bool whiteout = false;
};

/**
 * One sandbox's view of its root filesystem.
 *
 * open()/write()/unlink() follow overlayfs semantics: reads fall through
 * to the lower layer; the first write copies the file up into memory;
 * deletes create whiteouts. clone() (for sfork) is constant-cost.
 */
class OverlayRootfs
{
  public:
    OverlayRootfs(sim::SimContext &ctx, FsServer &lower);

    /**
     * Open for reading. Returns false on ENOENT. Lower-layer hits cost a
     * Gofer round trip; upper-layer hits are memory-only.
     */
    bool openRead(const std::string &path, FdEntry *out);

    /**
     * Open for writing, copying the file up on first write. Creates the
     * file if absent. Returns the fd entry for the writable file.
     */
    FdEntry openWrite(const std::string &path);

    /** Append @p bytes to an upper-layer file (write syscall path). */
    void write(const std::string &path, std::size_t bytes);

    /** Remove a file from this sandbox's view. */
    bool unlink(const std::string &path);

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
    /** Fill @p mf from the lower layer (copy-up) or as a fresh file. */
    void copyUp(const std::string &path, MemFile &mf);

    sim::SimContext &ctx_;
    FsServer &lower_;
    std::map<std::string, MemFile> upper_;
};

} // namespace catalyzer::vfs

#endif // CATALYZER_VFS_OVERLAY_ROOTFS_H
