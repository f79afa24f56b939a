/**
 * @file
 * Syscall classification used for sfork (paper Table 1).
 *
 * Syscalls fall into three groups: *allowed* run as normal syscalls;
 * *handled* require user-space logic to fix related system state after
 * sfork (e.g. clone's thread contexts via transient single-thread,
 * openat's descriptors via the read-only-FD discipline); everything not
 * listed is *denied* — removed from the sandbox because it could leave
 * non-deterministic system state behind the template.
 */

#ifndef CATALYZER_GUEST_SYSCALL_POLICY_H
#define CATALYZER_GUEST_SYSCALL_POLICY_H

#include <string>
#include <vector>

namespace catalyzer::guest {

/** Disposition of one syscall under sfork. */
enum class SyscallClass { Allowed, Handled, Denied };

/** Table 1's category rows. */
enum class SyscallCategory { Proc, Vfs, File, Network, Mem, Misc };

/** The user-space handler responsible for a handled syscall. */
enum class SforkHandler
{
    None,
    TransientSingleThread,
    Namespace,
    ReadOnlyFd,
    StatelessOverlayFs,
    Reconnect,
    SforkMemory,
};

/** One table entry. */
struct SyscallRule
{
    const char *name;
    SyscallCategory category;
    SyscallClass cls;
    SforkHandler handler;
};

const char *syscallCategoryName(SyscallCategory c);
const char *sforkHandlerName(SforkHandler h);

/**
 * The full classification table (Table 1). Entries are ordered by
 * category as in the paper.
 */
const std::vector<SyscallRule> &syscallTable();

/** Classify a syscall by name; unknown names are Denied. */
SyscallClass classifySyscall(const std::string &name);

/** All syscall names with the given class (test/bench support). */
std::vector<std::string> syscallsWithClass(SyscallClass cls);

/** Number of syscalls with the given class (no name materialization). */
std::size_t countSyscallsWithClass(SyscallClass cls);

} // namespace catalyzer::guest

#endif // CATALYZER_GUEST_SYSCALL_POLICY_H
