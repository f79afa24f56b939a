/**
 * @file
 * One simulated physical machine: context plus host kernel.
 */

#ifndef CATALYZER_SANDBOX_MACHINE_H
#define CATALYZER_SANDBOX_MACHINE_H

#include <cstdint>

#include "hostos/host_kernel.h"
#include "sim/context.h"
#include "trace/trace.h"
#include "vfs/inode_tree.h"

namespace catalyzer::sandbox {

/**
 * Bundles the simulation context and the host kernel; every experiment
 * creates one Machine (or two, to compare profiles).
 *
 * Each machine also owns its always-on tracer: a bounded ring of the
 * most recent spans (the flight recorder's raw material), stamped with
 * the machine's cluster node id so fleet exports land in per-machine
 * lanes. Benches that want full history for a one-shot report use
 * their own unbounded Tracer instead.
 */
class Machine
{
  public:
    /** Ring capacity of the always-on per-machine tracer. */
    static constexpr std::size_t kTracerCapacity = 16384;

    explicit Machine(std::uint64_t seed = 42,
                     sim::CostModel costs = sim::CostModel{})
        : ctx_(seed, costs), host_(ctx_)
    {
        tracer_.setCapacity(kTracerCapacity);
    }

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    sim::SimContext &ctx() { return ctx_; }
    hostos::HostKernel &host() { return host_; }
    mem::FrameStore &frames() { return host_.frames(); }

    trace::Tracer &tracer() { return tracer_; }

    /** Cluster node id (0 for standalone machines). */
    std::uint32_t nodeId() const { return node_id_; }

    /** Set by the Cluster before platforms attach; stamps the tracer. */
    void
    setNodeId(std::uint32_t id)
    {
        node_id_ = id;
        tracer_.setMachine(id);
    }

    /** The distribution base rootfs shared by every function. */
    static vfs::InodeTree baseRootfs();

  private:
    sim::SimContext ctx_;
    hostos::HostKernel host_;
    trace::Tracer tracer_;
    std::uint32_t node_id_ = 0;
};

} // namespace catalyzer::sandbox

#endif // CATALYZER_SANDBOX_MACHINE_H
