/**
 * @file
 * Simulated filesystem namespace (a rootfs).
 */

#ifndef CATALYZER_VFS_INODE_TREE_H
#define CATALYZER_VFS_INODE_TREE_H

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace catalyzer::vfs {

/** One filesystem object. */
struct Inode
{
    bool isDir = false;
    std::size_t sizeBytes = 0;
};

/**
 * A path-indexed filesystem tree. Paths are absolute, '/'-separated,
 * normalized by the caller. Parent directories are created implicitly so
 * rootfs construction stays terse.
 */
class InodeTree
{
  public:
    InodeTree();

    /** Create (or replace) a regular file of @p size_bytes. */
    void addFile(const std::string &path, std::size_t size_bytes);

    /** Create a directory (and its ancestors). */
    void addDir(const std::string &path);

    /** Lookup; nullptr if absent. */
    const Inode *lookup(const std::string &path) const;

    bool exists(const std::string &path) const
    {
        return lookup(path) != nullptr;
    }

    /**
     * Union this tree with @p overlay on top (overlay wins on conflict);
     * used to build function rootfs = base rootfs + app layer.
     */
    void unionWith(const InodeTree &overlay);

  private:
    void ensureParents(const std::string &path);

    std::map<std::string, Inode> nodes_;
};

} // namespace catalyzer::vfs

#endif // CATALYZER_VFS_INODE_TREE_H
