#include "hostos/host_kernel.h"

#include "sim/logging.h"
#include "sim/metric_catalog.h"
#include "vfs/dup_model.h"

namespace catalyzer::hostos {

HostKernel::HostKernel(sim::SimContext &ctx) : ctx_(ctx) {}

HostProcess &
HostKernel::spawnProcess(const std::string &name)
{
    const Pid pid = next_pid_++;
    auto space = std::make_unique<mem::AddressSpace>(ctx_, frames_, name);
    auto proc = std::make_unique<HostProcess>(
        pid, std::move(space), freshNamespace(), freshNamespace());
    proc->setAslrSalt(ctx_.rng().next64());
    auto &ref = *proc;
    procs_.emplace(pid, std::move(proc));
    ctx_.chargeCounted(metrics::kHostSpawns, ctx_.costs().bootSandboxProcess);
    return ref;
}

HostProcess &
HostKernel::fork(HostProcess &parent, const std::string &child_name)
{
    if (parent.threadCount() != 1)
        sim::panic("HostKernel::fork: %s has %d threads; Linux fork "
                   "clones only the caller", parent.name().c_str(),
                   parent.threadCount());
    const Pid pid = next_pid_++;
    auto space = parent.space().forkCow(child_name,
                                        /*honor_cow_flag=*/false);
    auto child = std::make_unique<HostProcess>(
        pid, std::move(space), parent.pidNamespace(),
        parent.userNamespace());
    child->fds_ = parent.fds().clone();
    child->setAslrSalt(parent.aslrSalt()); // fork preserves the layout
    auto &ref = *child;
    procs_.emplace(pid, std::move(child));
    ctx_.chargeCounted(metrics::kHostForks, ctx_.costs().sforkSyscallBase);
    return ref;
}

HostProcess &
HostKernel::sfork(HostProcess &parent, SforkOptions opts)
{
    if (parent.threadCount() != 1)
        sim::panic("HostKernel::sfork: %s has %d threads; the sandbox "
                   "must enter the transient single-thread state first",
                   parent.name().c_str(), parent.threadCount());
    const auto &costs = ctx_.costs();
    ctx_.chargeCounted(metrics::kHostSforks, costs.sforkSyscallBase);

    const Pid pid = next_pid_++;
    auto space = parent.space().forkCow(std::move(opts.childName),
                                        /*honor_cow_flag=*/true);
    const NamespaceId pid_ns = opts.newPidNamespace
                                   ? freshNamespace()
                                   : parent.pidNamespace();
    const NamespaceId user_ns = opts.newUserNamespace
                                    ? freshNamespace()
                                    : parent.userNamespace();
    if (opts.newPidNamespace || opts.newUserNamespace)
        ctx_.chargeCounted(metrics::kHostNamespaceSetups, costs.namespaceSetup);

    auto child = std::make_unique<HostProcess>(pid, std::move(space),
                                               pid_ns, user_ns);
    child->fds_ = parent.fds().clone();
    if (opts.rerandomizeAslr) {
        child->setAslrSalt(ctx_.rng().next64());
        ctx_.chargeCounted(metrics::kHostAslrRerandomize,
                           costs.aslrRerandomize);
    } else {
        child->setAslrSalt(parent.aslrSalt());
    }
    auto &ref = *child;
    procs_.emplace(pid, std::move(child));
    return ref;
}

int
HostKernel::dup(HostProcess &proc, int oldfd, bool lazy)
{
    const vfs::FdEntry *entry = proc.fds().get(oldfd);
    if (!entry)
        sim::panic("HostKernel::dup: fd %d not open in %s", oldfd,
                   proc.name().c_str());
    bool expanded = false;
    const int newfd = proc.fds().allocate(*entry, &expanded);
    vfs::chargeDup(ctx_, expanded, lazy);
    return newfd;
}

void
HostKernel::exitProcess(Pid pid)
{
    auto it = procs_.find(pid);
    if (it == procs_.end())
        sim::panic("HostKernel::exitProcess: no pid %llu",
                   static_cast<unsigned long long>(pid));
    it->second->markDead();
    procs_.erase(it); // address space destructor releases frames
}

HostProcess *
HostKernel::findProcess(Pid pid)
{
    auto it = procs_.find(pid);
    return it == procs_.end() ? nullptr : it->second.get();
}

} // namespace catalyzer::hostos
