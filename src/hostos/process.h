/**
 * @file
 * Host process representation.
 */

#ifndef CATALYZER_HOSTOS_PROCESS_H
#define CATALYZER_HOSTOS_PROCESS_H

#include <cstdint>
#include <memory>
#include <string>

#include "mem/address_space.h"
#include "vfs/fd_table.h"

namespace catalyzer::hostos {

using Pid = std::uint64_t;
using NamespaceId = std::uint64_t;

/**
 * One process on the simulated host. The sandbox (Sentry) and the Gofer
 * are host processes; sfork operates on the sandbox process.
 */
class HostProcess
{
  public:
    /** The process takes its name from its address space. */
    HostProcess(Pid pid, std::unique_ptr<mem::AddressSpace> space,
                NamespaceId pid_ns, NamespaceId user_ns)
        : pid_(pid), space_(std::move(space)), pid_ns_(pid_ns),
          user_ns_(user_ns)
    {}

    Pid pid() const { return pid_; }
    const std::string &name() const { return space_->name(); }

    mem::AddressSpace &space() { return *space_; }
    const mem::AddressSpace &space() const { return *space_; }

    vfs::FdTable &fds() { return fds_; }
    const vfs::FdTable &fds() const { return fds_; }

    /** Number of live OS threads; fork/sfork require exactly one. */
    int threadCount() const { return thread_count_; }
    void setThreadCount(int n) { thread_count_ = n; }

    NamespaceId pidNamespace() const { return pid_ns_; }
    NamespaceId userNamespace() const { return user_ns_; }

    bool alive() const { return alive_; }
    void markDead() { alive_ = false; }

    /** Address-space layout salt; changes on ASLR re-randomization. */
    std::uint64_t aslrSalt() const { return aslr_salt_; }
    void setAslrSalt(std::uint64_t salt) { aslr_salt_ = salt; }

  private:
    friend class HostKernel;

    Pid pid_;
    std::unique_ptr<mem::AddressSpace> space_;
    vfs::FdTable fds_;
    int thread_count_ = 1;
    NamespaceId pid_ns_;
    NamespaceId user_ns_;
    bool alive_ = true;
    std::uint64_t aslr_salt_ = 0;
};

} // namespace catalyzer::hostos

#endif // CATALYZER_HOSTOS_PROCESS_H
