/**
 * @file
 * Shared copy-on-write state regions (stateful serverless).
 *
 * A StateRegion is a named, versioned blob of function state — a
 * session, an intermediate dataset, a shared model — that chained
 * function invocations pass between each other without re-serializing
 * through external storage (Faasm-style shared memory state, ROADMAP
 * item 4). Regions reuse the overlay-memory machinery wholesale: on
 * each machine a region replica is a BackingFile (the region arena)
 * under a shared read-only BaseMapping, and a consumer maps it into its
 * AddressSpace through the existing Base-EPT attach path. Reads resolve
 * against the shared layer (BaseHit/BaseFill); writes COW into the
 * consumer's Private-EPT exactly like any overlay write, and publish()
 * folds those private dirty pages into a new region version.
 *
 * Lifecycle: create() opens a region (not yet attachable), seal()
 * freezes version 1, attach() maps the sealed region on a node —
 * paying a fabric-priced transfer when that node holds no current
 * replica — and publish() bumps the version from a writer's dirty
 * pages, invalidating every other machine's replica (stale readers
 * detect this through RegionAttachment::stale()).
 *
 * Everything is strictly pay-for-use: a store that is never constructed
 * or never holds a region charges nothing and emits no counters, so all
 * pre-existing outputs stay byte-identical (PR 5/8/9 discipline).
 */

#ifndef CATALYZER_STATE_STATE_REGION_H
#define CATALYZER_STATE_STATE_REGION_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.h"
#include "mem/base_mapping.h"
#include "net/fabric.h"
#include "sim/context.h"
#include "trace/trace.h"

namespace catalyzer::state {

class StateRegionStore;

/**
 * One attached view of a region replica: the shared base to map into an
 * AddressSpace plus the version stamp it was attached under. Handles
 * keep the replica's backing alive, so a publish elsewhere never pulls
 * frames out from under an attached reader — the reader just becomes
 * detectably stale.
 */
class RegionAttachment
{
  public:
    RegionAttachment() = default;

    bool valid() const { return base_ != nullptr; }
    const std::string &regionName() const { return region_; }
    std::uint64_t version() const { return version_; }
    net::NodeId node() const { return node_; }
    std::size_t npages() const { return base_ ? base_->npages() : 0; }

    /** The shared layer to AddressSpace::attachBase(). */
    const std::shared_ptr<mem::BaseMapping> &base() const { return base_; }

    /**
     * True when the store has published a newer version since this
     * attachment: the reader sees a consistent old snapshot but should
     * re-attach to observe the new one.
     */
    bool stale() const;

  private:
    friend class StateRegionStore;
    const StateRegionStore *store_ = nullptr;
    std::string region_;
    std::uint64_t version_ = 0;
    net::NodeId node_ = 0;
    std::shared_ptr<mem::BackingFile> file_;
    std::shared_ptr<mem::BaseMapping> base_;
};

/**
 * Fault observer that books region-view faults into a machine's
 * StatRegistry: COW writes (the private-EPT copies publish() later
 * folds) under state.cow_faults, shared-layer read fills under
 * state.read_faults. Install on the consumer AddressSpace while it
 * touches region windows; batched touchRange faults arrive through
 * onFaultRange and are booked with one incr per extent.
 */
class RegionFaultStats : public mem::FaultObserver
{
  public:
    explicit RegionFaultStats(sim::StatRegistry &stats) : stats_(stats) {}

    void onFaultRange(mem::PageIndex start, std::size_t npages, bool write,
                      mem::FaultResult result) override;

    std::size_t cowFaults() const { return cow_faults_; }
    std::size_t readFaults() const { return read_faults_; }

  private:
    sim::StatRegistry &stats_;
    std::size_t cow_faults_ = 0;
    std::size_t read_faults_ = 0;
};

/**
 * Cluster-wide directory and storage of named state regions.
 *
 * The store itself is bookkeeping plus per-node arenas; all simulated
 * latency is charged to the SimContext of the node performing the
 * operation, and cross-machine replica transfers are priced by the
 * fabric (RTT + contended streaming in modeled mode, the legacy flat
 * per-MiB charge in compat mode). Deterministic throughout: regions
 * and replicas live in ordered maps, and nearest-holder selection
 * prefers same-rack then lowest node id, like the template registry.
 */
class StateRegionStore
{
  public:
    explicit StateRegionStore(net::Fabric *fabric = nullptr)
        : fabric_(fabric)
    {}

    /** Register a machine the store can place replicas on. */
    void addNode(net::NodeId node, mem::FrameStore &frames,
                 sim::SimContext &ctx);

    /**
     * Create region @p name of @p npages pages with its first (empty)
     * replica on @p home. The region is not attachable until sealed.
     * Fatal if the name already exists.
     */
    void create(const std::string &name, std::size_t npages,
                net::NodeId home);

    /** Freeze version 1; the region becomes attachable. Fatal twice. */
    void seal(const std::string &name);

    /** create()+seal() if @p name is absent; no-op when it exists. */
    void ensure(const std::string &name, std::size_t npages,
                net::NodeId home);

    bool exists(const std::string &name) const;

    /**
     * Attach the current version on @p node. When the node holds no
     * current replica, the region streams over from the nearest holder
     * (fabric-priced, booked as state.transfer_bytes on the consumer).
     * Fatal on unknown or unsealed regions.
     */
    RegionAttachment attach(const std::string &name, net::NodeId node,
                            trace::TraceContext trace = {});

    /** Release one attachment (drops the base attach reference). */
    void detach(RegionAttachment &attachment);

    /**
     * Publish a new version from @p dirty_pages COW'd pages written on
     * @p node (which must hold a current, attached replica — writers
     * attach first). Every other machine's replica becomes stale and is
     * dropped from the directory; readers attached to it keep their
     * snapshot alive through their handles. Returns the new version.
     */
    std::uint64_t publish(const std::string &name, net::NodeId node,
                          std::size_t dirty_pages,
                          trace::TraceContext trace = {});

    std::uint64_t version(const std::string &name) const;
    std::size_t regionPages(const std::string &name) const;
    std::size_t regionCount() const { return regions_.size(); }
    bool empty() const { return regions_.empty(); }

    /** Machines holding a current-version replica, ascending. */
    std::vector<net::NodeId> holders(const std::string &name) const;

    /**
     * Bytes of current-version replica arenas resident on @p node (the
     * reservation the autoscaler's memory budget must account for).
     */
    std::size_t residentBytesOn(net::NodeId node) const;

  private:
    struct Replica
    {
        std::shared_ptr<mem::BackingFile> file;
        std::shared_ptr<mem::BaseMapping> base;
        std::uint64_t version = 0;
    };

    struct Region
    {
        std::size_t npages = 0;
        std::uint64_t version = 0; ///< current published version
        bool sealed = false;
        net::NodeId home = 0;
        std::map<net::NodeId, Replica> replicas;
    };

    struct Node
    {
        mem::FrameStore *frames = nullptr;
        sim::SimContext *ctx = nullptr;
    };

    Region &regionOrDie(const std::string &name);
    const Region &regionOrDie(const std::string &name) const;
    Node &nodeOrDie(net::NodeId node);

    /** Nearest current holder to @p to (same rack first, lowest id). */
    net::NodeId nearestHolder(const Region &region, net::NodeId to) const;

    /** Build the replica arena for @p version of @p name on @p node. */
    Replica makeReplica(const std::string &name, const Region &region,
                        net::NodeId node, std::uint64_t version);

    net::Fabric *fabric_;
    std::map<net::NodeId, Node> nodes_;
    std::map<std::string, Region> regions_;
};

} // namespace catalyzer::state

#endif // CATALYZER_STATE_STATE_REGION_H
