#include "guest/syscall_policy.h"

#include <array>
#include <unordered_map>

namespace catalyzer::guest {

const char *
syscallCategoryName(SyscallCategory c)
{
    switch (c) {
      case SyscallCategory::Proc: return "Proc";
      case SyscallCategory::Vfs: return "VFS (FS/Net)";
      case SyscallCategory::File: return "File (Storage)";
      case SyscallCategory::Network: return "Network";
      case SyscallCategory::Mem: return "Mem";
      case SyscallCategory::Misc: return "Misc";
    }
    return "?";
}

const char *
sforkHandlerName(SforkHandler h)
{
    switch (h) {
      case SforkHandler::None: return "-";
      case SforkHandler::TransientSingleThread:
        return "Transient single-thread";
      case SforkHandler::Namespace: return "Namespace";
      case SforkHandler::ReadOnlyFd: return "Read-only FD";
      case SforkHandler::StatelessOverlayFs: return "Stateless overlayFS";
      case SforkHandler::Reconnect: return "Reconnect";
      case SforkHandler::SforkMemory: return "Handled by sfork";
    }
    return "?";
}

const std::vector<SyscallRule> &
syscallTable()
{
    using C = SyscallCategory;
    using K = SyscallClass;
    using H = SforkHandler;
    static const std::vector<SyscallRule> table = {
        // Proc: transient single-thread + namespaces.
        {"capget", C::Proc, K::Allowed, H::None},
        {"clone", C::Proc, K::Handled, H::TransientSingleThread},
        {"getpid", C::Proc, K::Handled, H::Namespace},
        {"gettid", C::Proc, K::Handled, H::Namespace},
        {"arch_prctl", C::Proc, K::Allowed, H::None},
        {"prctl", C::Proc, K::Allowed, H::None},
        {"rt_sigaction", C::Proc, K::Allowed, H::None},
        {"rt_sigprocmask", C::Proc, K::Allowed, H::None},
        {"rt_sigreturn", C::Proc, K::Allowed, H::None},
        {"seccomp", C::Proc, K::Allowed, H::None},
        {"sigaltstack", C::Proc, K::Allowed, H::None},
        {"sched_getaffinity", C::Proc, K::Allowed, H::None},
        // VFS (FS/Net): read-only FD discipline.
        {"poll", C::Vfs, K::Allowed, H::None},
        {"ioctl", C::Vfs, K::Allowed, H::None},
        {"memfd_create", C::Vfs, K::Allowed, H::None},
        {"ftruncate", C::Vfs, K::Allowed, H::None},
        {"mount", C::Vfs, K::Handled, H::ReadOnlyFd},
        {"pivot_root", C::Vfs, K::Handled, H::ReadOnlyFd},
        {"umount", C::Vfs, K::Handled, H::ReadOnlyFd},
        {"epoll_create1", C::Vfs, K::Allowed, H::None},
        {"epoll_ctl", C::Vfs, K::Allowed, H::None},
        {"epoll_pwait", C::Vfs, K::Allowed, H::None},
        {"eventfd2", C::Vfs, K::Allowed, H::None},
        {"fcntl", C::Vfs, K::Allowed, H::None},
        {"chdir", C::Vfs, K::Allowed, H::None},
        {"close", C::Vfs, K::Handled, H::ReadOnlyFd},
        {"dup", C::Vfs, K::Handled, H::ReadOnlyFd},
        {"dup2", C::Vfs, K::Handled, H::ReadOnlyFd},
        {"lseek", C::Vfs, K::Allowed, H::None},
        {"openat", C::Vfs, K::Handled, H::ReadOnlyFd},
        // File (Storage): stateless overlayFS.
        {"newfstat", C::File, K::Handled, H::StatelessOverlayFs},
        {"newfstatat", C::File, K::Handled, H::StatelessOverlayFs},
        {"mkdirat", C::File, K::Handled, H::StatelessOverlayFs},
        {"write", C::File, K::Handled, H::StatelessOverlayFs},
        {"read", C::File, K::Handled, H::StatelessOverlayFs},
        {"readlinkat", C::File, K::Handled, H::StatelessOverlayFs},
        {"pread64", C::File, K::Handled, H::StatelessOverlayFs},
        // Network: reconnect.
        {"sendmsg", C::Network, K::Handled, H::Reconnect},
        {"shutdown", C::Network, K::Handled, H::Reconnect},
        {"recvmsg", C::Network, K::Handled, H::Reconnect},
        {"getsockopt", C::Network, K::Handled, H::Reconnect},
        {"listen", C::Network, K::Handled, H::Reconnect},
        {"accept", C::Network, K::Handled, H::Reconnect},
        // Mem: handled by sfork itself.
        {"mmap", C::Mem, K::Handled, H::SforkMemory},
        {"munmap", C::Mem, K::Handled, H::SforkMemory},
        // Misc: namespaces keep ids consistent; the rest run as-is.
        {"setgid", C::Misc, K::Handled, H::Namespace},
        {"setuid", C::Misc, K::Handled, H::Namespace},
        {"getgid", C::Misc, K::Handled, H::Namespace},
        {"getegid", C::Misc, K::Handled, H::Namespace},
        {"getuid", C::Misc, K::Handled, H::Namespace},
        {"geteuid", C::Misc, K::Handled, H::Namespace},
        {"getrandom", C::Misc, K::Allowed, H::None},
        {"nanosleep", C::Misc, K::Allowed, H::None},
        {"futex", C::Misc, K::Allowed, H::None},
        {"getgroups", C::Misc, K::Allowed, H::None},
        {"clock_gettime", C::Misc, K::Allowed, H::None},
        {"getrlimit", C::Misc, K::Allowed, H::None},
        {"setsid", C::Misc, K::Handled, H::Namespace},
    };
    return table;
}

namespace {

const std::unordered_map<std::string, const SyscallRule *> &
ruleIndex()
{
    static const auto *index = [] {
        auto *m = new std::unordered_map<std::string, const SyscallRule *>;
        for (const auto &rule : syscallTable())
            m->emplace(rule.name, &rule);
        return m;
    }();
    return *index;
}

} // namespace

SyscallClass
classifySyscall(const std::string &name)
{
    const auto &index = ruleIndex();
    auto it = index.find(name);
    return it == index.end() ? SyscallClass::Denied : it->second->cls;
}

std::vector<std::string>
syscallsWithClass(SyscallClass cls)
{
    std::vector<std::string> out;
    for (const auto &rule : syscallTable()) {
        if (rule.cls == cls)
            out.push_back(rule.name);
    }
    return out;
}

std::size_t
countSyscallsWithClass(SyscallClass cls)
{
    // The table is fixed, so one scan serves every sfork.
    static const auto counts = [] {
        std::array<std::size_t, 3> n{};
        for (const auto &rule : syscallTable())
            ++n[static_cast<std::size_t>(rule.cls)];
        return n;
    }();
    return counts[static_cast<std::size_t>(cls)];
}

} // namespace catalyzer::guest
