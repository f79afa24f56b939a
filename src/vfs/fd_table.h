/**
 * @file
 * File-descriptor table with Linux-style capacity doubling.
 *
 * The expansion behaviour matters: the paper's Fig. 16d shows dup() tail
 * latencies of up to 30 ms precisely when the fdtable must be resized,
 * which motivates Catalyzer's lazy-dup optimization.
 */

#ifndef CATALYZER_VFS_FD_TABLE_H
#define CATALYZER_VFS_FD_TABLE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace catalyzer::vfs {

/** What an fd refers to. */
enum class FdKind { File, Socket, Pipe, LogFile };

/** One open-file description reference. */
struct FdEntry
{
    FdKind kind = FdKind::File;
    std::string path;
    bool readOnly = true;
    /**
     * For restore bookkeeping: false while the fd is a placeholder whose
     * backing connection has not been re-established yet (on-demand I/O
     * reconnection).
     */
    bool connected = true;
    /** Cross-reference into the IoConnectionTable, 0 if none. */
    std::uint64_t connId = 0;
};

/**
 * A process's fd table. Descriptors allocate lowest-free, as POSIX
 * requires; the table starts at a small capacity and doubles when full.
 *
 * The capacity is logical (what the modelled kernel has allocated, and
 * what dup's expansion cost follows); slots are stored only up to the
 * highest descriptor ever opened, so building or cloning an empty
 * table allocates nothing.
 */
class FdTable
{
  public:
    static constexpr std::size_t kInitialCapacity = 64;

    /**
     * Allocate the lowest free descriptor.
     * @param[out] expanded set true when the allocation grew the table.
     */
    int allocate(FdEntry entry, bool *expanded = nullptr);

    /** dup-style allocation: lowest free fd at or above @p min_fd. */
    int allocateAtLeast(int min_fd, FdEntry entry, bool *expanded = nullptr);

    /** Close a descriptor; double-close is a bug. */
    void close(int fd);

    /** Entry behind @p fd, or nullptr. */
    FdEntry *get(int fd);

    bool
    valid(int fd) const
    {
        return fd >= 0 && static_cast<std::size_t>(fd) < slots_.size() &&
               slots_[static_cast<std::size_t>(fd)].has_value();
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t inUse() const { return in_use_; }

    /** True if allocating one more fd would force an expansion. */
    bool nextAllocationExpands() const { return in_use_ == capacity_; }

    /** Clone across fork/sfork: the child inherits every descriptor. */
    FdTable clone() const { return *this; }

  private:
    /** Slots [0, slots_.size()); every fd above them is free. */
    std::vector<std::optional<FdEntry>> slots_;
    std::size_t capacity_ = kInitialCapacity;
    std::size_t in_use_ = 0;
};

} // namespace catalyzer::vfs

#endif // CATALYZER_VFS_FD_TABLE_H
