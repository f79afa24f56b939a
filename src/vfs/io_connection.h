/**
 * @file
 * Registry of a sandbox's I/O connections (open files, sockets, logs).
 *
 * On restore, these are the connections that must be re-established by
 * re-do operations; Catalyzer re-establishes them lazily (on-demand I/O
 * reconnection, paper Sec. 3.3) guided by a per-function I/O cache.
 */

#ifndef CATALYZER_VFS_IO_CONNECTION_H
#define CATALYZER_VFS_IO_CONNECTION_H

#include <cstdint>
#include <string>
#include <vector>

namespace catalyzer::vfs {

/** Connection flavor; sockets are costlier to re-establish than files. */
enum class ConnKind { File, Socket, LogFile };

/** One I/O connection held by a running function instance. */
struct IoConnection
{
    std::uint64_t id = 0;
    ConnKind kind = ConnKind::File;
    std::string path;
    /** True once the backing host object is (re-)established. */
    bool established = false;
    /**
     * Whether the running function actually uses this connection right
     * after boot (the deterministic startup set cached by the I/O cache).
     */
    bool usedAtStartup = false;
    /** Whether the function ever touches it during request handling. */
    bool usedByRequests = false;
};

/**
 * Table of connections for one instance. Ordered by creation so that
 * checkpoint and the I/O cache see a deterministic sequence.
 */
class IoConnectionTable
{
  public:
    /** Register a connection; returns its id. */
    std::uint64_t add(ConnKind kind, std::string path, bool used_at_startup,
                      bool used_by_requests);

    /**
     * Replace this table with a copy of @p saved, re-assigning ids in
     * creation order — one bulk copy instead of one add() per
     * connection. Establishment flags are copied verbatim; callers
     * apply their restore policy (drop sockets, drop all) on top.
     */
    void cloneFrom(const std::vector<IoConnection> &saved);

    IoConnection *find(std::uint64_t id);
    const IoConnection *find(std::uint64_t id) const;

    std::vector<IoConnection> &all() { return conns_; }
    const std::vector<IoConnection> &all() const { return conns_; }

    std::size_t count() const { return conns_.size(); }
    std::size_t establishedCount() const;

    /** Mark every connection dis-established (checkpoint/restore edge). */
    void dropAll();

  private:
    std::vector<IoConnection> conns_;
    std::uint64_t next_id_ = 1;
};

} // namespace catalyzer::vfs

#endif // CATALYZER_VFS_IO_CONNECTION_H
