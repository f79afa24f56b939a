/**
 * @file
 * Cluster-wide view of where live templates and cached func-images are.
 *
 * Catalyzer's templates and image caches are per machine; the
 * TemplateRegistry is the control-plane directory that makes them a
 * fleet resource: which machines hold a live template for a function
 * (remote-sfork candidates, MITOSIS-style) and which machines cache a
 * func-image generation (P2P fetch replicas). Selection is
 * deterministic — prefer a same-rack holder, break ties on the lowest
 * node id — so cluster runs stay bit-reproducible.
 *
 * The registry is bookkeeping only: it never touches a clock. Paying
 * for the lookups' network traffic is the caller's job (the remote-fork
 * handshake and the chunked fetch both ride the fabric).
 */

#ifndef CATALYZER_REMOTE_TEMPLATE_REGISTRY_H
#define CATALYZER_REMOTE_TEMPLATE_REGISTRY_H

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalyzer/runtime.h"
#include "net/fabric.h"

namespace catalyzer::remote {

/** Where templates, image replicas and image chunks live across the
 *  fleet. */
class TemplateRegistry : public net::ReplicaDirectory,
                         public net::ChunkDirectory
{
  public:
    /** @p fabric supplies rack topology for nearest-first selection;
     *  without one, selection is lowest-id only. */
    explicit TemplateRegistry(const net::Fabric *fabric = nullptr)
        : fabric_(fabric)
    {}

    /** Record that @p node does (or no longer does) hold a live
     *  template for @p function_name. */
    void setTemplate(net::NodeId node, const std::string &function_name,
                     bool present);

    /** All holders of @p function_name, ascending node id. */
    std::vector<net::NodeId>
    templateHolders(const std::string &function_name) const;

    /**
     * Closest template holder for @p from (same rack first, lowest id
     * tie-break), excluding @p from itself; nullopt when no other
     * machine holds one.
     */
    std::optional<net::NodeId>
    nearestTemplateHolder(const std::string &function_name,
                          net::NodeId from) const;

    // net::ReplicaDirectory — func-image replica tracking.
    std::optional<net::NodeId>
    nearestReplica(const std::string &key,
                   net::NodeId from) const override;
    void addReplica(const std::string &key, net::NodeId node) override;
    void dropReplica(const std::string &key, net::NodeId node) override;
    std::uint64_t recordPublish(const std::string &key, net::NodeId node,
                                std::uint64_t generation) override;
    std::uint64_t keyVersion(const std::string &key) const override;

    // net::ChunkDirectory — content-addressed chunk tracking.
    std::optional<net::NodeId>
    nearestChunkHolder(net::ChunkId chunk,
                       net::NodeId from) const override;
    void addChunkHolder(net::ChunkId chunk, net::NodeId node) override;
    void dropChunkHolder(net::ChunkId chunk, net::NodeId node) override;

  private:
    /** Publish history of one blob key (see recordPublish). */
    struct KeyPublishState
    {
        std::map<net::NodeId, std::uint64_t> generations;
        std::uint64_t version = 1;
    };

    /** Nearest member of @p nodes to @p from, excluding @p from. */
    std::optional<net::NodeId>
    nearest(const std::set<net::NodeId> &nodes, net::NodeId from) const;

    const net::Fabric *fabric_;
    std::map<std::string, std::set<net::NodeId>> holders_;
    std::map<std::string, std::set<net::NodeId>> replicas_;
    std::map<std::string, KeyPublishState> publishes_;
    std::map<net::ChunkId, std::set<net::NodeId>> chunks_;
};

/**
 * Everything a ServerlessPlatform needs to offer the remote-sfork tier:
 * the fabric, the fleet directory, this machine's node id, and a
 * resolver that materializes a fork source (template instance + image +
 * manifest) from a peer. The Cluster wires one per machine; standalone
 * platforms have none and behave exactly as before.
 */
struct RemoteBootEnv
{
    net::Fabric *fabric = nullptr;
    TemplateRegistry *registry = nullptr;
    net::NodeId self = 0;
    std::function<std::optional<core::RemoteForkSource>(
        const std::string &function_name, net::NodeId peer)>
        forkSource;
};

} // namespace catalyzer::remote

#endif // CATALYZER_REMOTE_TEMPLATE_REGISTRY_H
