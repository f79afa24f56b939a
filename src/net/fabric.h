/**
 * @file
 * Deterministic datacenter fabric on the virtual clock.
 *
 * The fabric models the network between the machines of a Cluster the
 * same way mem/ models memory: mechanism code asks for a Transfer and
 * the fabric charges calibrated costs (the CostModel netRtt / netStream
 * family) to the requesting machine's SimContext, split into a round trip and
 * a bandwidth-bound streaming part. Topology is a fixed two-level tree:
 * machines are grouped into racks of machinesPerRack nodes, a transfer
 * inside a rack pays the ToR round trip, anything else a spine hop.
 * Per-NIC contention is modeled through StreamLease: long-lived pull
 * channels (remote-sfork pagers) register an open stream on a node, and
 * every transfer touching that node streams slower in proportion.
 *
 * Compatibility: with modelTransfers off (the default) a transfer
 * charges exactly the legacy flat networkFetchPerMiB formula — no RTT,
 * no counters, no spans — so the existing remoteImages path is
 * bit-identical to the pre-fabric code. Like fault injection, the
 * modeled fabric is strictly pay-for-use.
 */

#ifndef CATALYZER_NET_FABRIC_H
#define CATALYZER_NET_FABRIC_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "sim/context.h"
#include "trace/trace.h"

namespace catalyzer::net {

/** Index of a machine on the fabric. */
using NodeId = std::uint32_t;

/**
 * The origin image repository: not a cluster machine, always a
 * cross-rack hop away, and streaming from it rides the shared blob
 * store's per-client bandwidth (netOriginStreamPerMiB).
 */
inline constexpr NodeId kOriginStorage = 0xffffffffu;

/** Fabric topology and feature switches. */
struct FabricConfig
{
    /**
     * Model transfers (RTT + streaming + contention). Off reproduces
     * the legacy flat per-MiB charge bit-identically.
     */
    bool modelTransfers = false;
    /** Machines per rack (two-level tree topology). */
    std::size_t machinesPerRack = 8;
    /** Fetch func-images from the nearest replica, not always origin. */
    bool p2pImages = false;
    /** Allow remote-sfork from a peer machine's template. */
    bool remoteFork = false;
};

/** Cost breakdown of one completed transfer. */
struct Transfer
{
    NodeId src = 0;
    NodeId dst = 0;
    std::size_t bytes = 0;
    sim::SimTime rtt;       ///< handshake round trip (zero in compat)
    sim::SimTime streaming; ///< bandwidth-bound part
    sim::SimTime total;     ///< what was charged to the clock
    bool crossRack = false;
    double contention = 1.0; ///< streaming slowdown factor applied
};

/**
 * Who holds a cached copy of a named blob (func-image generations,
 * manifests). Implemented by remote::TemplateRegistry; declared here so
 * snapshot::ImageStore can consult it without depending on remote/.
 */
class ReplicaDirectory
{
  public:
    virtual ~ReplicaDirectory() = default;

    /**
     * Closest node (same rack first, then lowest id) holding @p key,
     * excluding @p from itself; nullopt when only origin has it.
     */
    virtual std::optional<NodeId>
    nearestReplica(const std::string &key, NodeId from) const = 0;

    /** Node @p node now caches @p key. */
    virtual void addReplica(const std::string &key, NodeId node) = 0;

    /** Node @p node no longer serves @p key (eviction, death). */
    virtual void dropReplica(const std::string &key, NodeId node) = 0;

    /**
     * Publish-side bookkeeping: @p node published @p generation of
     * @p key. Returns the key's version stamp, which is bumped only
     * when the same node republishes the key with a *different*
     * generation — a rebuild replacing the stored image — so copies
     * cached elsewhere under an older stamp become detectably stale.
     * First-time publishes (every machine announcing its own build of
     * the same function) never bump.
     */
    virtual std::uint64_t recordPublish(const std::string &key,
                                        NodeId node,
                                        std::uint64_t generation) = 0;

    /** Current version stamp of @p key (0 = never published). */
    virtual std::uint64_t keyVersion(const std::string &key) const = 0;
};

/** Content-addressed chunk id: a hash of the chunk's page contents. */
using ChunkId = std::uint64_t;

/**
 * Cluster-wide directory of which machines hold which image chunks.
 * Content addressing makes invalidation unnecessary — a rebuilt image
 * produces different ids for the pages that changed — so the directory
 * only ever tracks presence. Implemented by remote::TemplateRegistry;
 * declared here so snapshot::ImageStore can consult it without
 * depending on remote/.
 */
class ChunkDirectory
{
  public:
    virtual ~ChunkDirectory() = default;

    /**
     * Closest node (same rack first, then lowest id) holding @p chunk,
     * excluding @p from itself; nullopt when only origin has it.
     */
    virtual std::optional<NodeId>
    nearestChunkHolder(ChunkId chunk, NodeId from) const = 0;

    /** Node @p node now caches @p chunk. */
    virtual void addChunkHolder(ChunkId chunk, NodeId node) = 0;

    /** Node @p node dropped @p chunk from every local tier. */
    virtual void dropChunkHolder(ChunkId chunk, NodeId node) = 0;
};

class Fabric;

/**
 * RAII registration of one long-lived stream on a node's NIC. While
 * alive, every transfer touching that node pays the contention penalty
 * for it (remote-sfork pagers hold one on their lender for the life of
 * the borrowing instance).
 */
class StreamLease
{
  public:
    StreamLease(Fabric &fabric, NodeId node);
    ~StreamLease();

    StreamLease(const StreamLease &) = delete;
    StreamLease &operator=(const StreamLease &) = delete;

    NodeId node() const { return node_; }

  private:
    Fabric &fabric_;
    NodeId node_;
};

/**
 * One cluster's network. Stateless apart from the open-stream counts,
 * so a single Fabric is shared by every machine of a Cluster; costs are
 * always charged to the SimContext passed into transfer() (the machine
 * doing the waiting).
 */
class Fabric
{
  public:
    explicit Fabric(FabricConfig config = {}) : config_(config) {}

    const FabricConfig &config() const { return config_; }

    /** Rack of @p node; origin storage is its own virtual rack. */
    std::size_t rackOf(NodeId node) const;

    bool sameRack(NodeId a, NodeId b) const
    {
        return rackOf(a) == rackOf(b);
    }

    /** Round trip between @p a and @p b under @p costs. */
    sim::SimTime rtt(NodeId a, NodeId b,
                     const sim::CostModel &costs) const;

    /** Streaming cost of @p bytes from @p src (origin is slower). */
    sim::SimTime streamCost(NodeId src, std::size_t bytes,
                            const sim::CostModel &costs) const;

    /**
     * Move @p bytes from @p src to @p dst, charging @p ctx. In compat
     * mode this is exactly the legacy flat charge; modeled transfers
     * pay rtt + contended streaming, count net.bytes/net.transfers and
     * emit a "net-transfer" span under @p trace. @p discount_streams
     * open streams are ignored when computing contention (a pager
     * discounts its own lease).
     */
    Transfer transfer(sim::SimContext &ctx, NodeId src, NodeId dst,
                      std::size_t bytes, const char *what,
                      trace::TraceContext trace = {},
                      std::size_t discount_streams = 0);

    /** Open streams currently registered on @p node. */
    std::size_t openStreams(NodeId node) const;

    /** Streaming slowdown for a transfer between @p src and @p dst. */
    double contentionFactor(NodeId src, NodeId dst,
                            std::size_t discount_streams = 0) const;

  private:
    friend class StreamLease;
    void openStream(NodeId node);
    void closeStream(NodeId node);

    FabricConfig config_;
    std::map<NodeId, std::size_t> streams_;
};

} // namespace catalyzer::net

#endif // CATALYZER_NET_FABRIC_H
