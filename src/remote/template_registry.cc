#include "remote/template_registry.h"

namespace catalyzer::remote {

void
TemplateRegistry::setTemplate(net::NodeId node,
                              const std::string &function_name,
                              bool present)
{
    if (present)
        holders_[function_name].insert(node);
    else {
        auto it = holders_.find(function_name);
        if (it != holders_.end()) {
            it->second.erase(node);
            if (it->second.empty())
                holders_.erase(it);
        }
    }
}

bool
TemplateRegistry::hasTemplate(net::NodeId node,
                              const std::string &function_name) const
{
    auto it = holders_.find(function_name);
    return it != holders_.end() && it->second.contains(node);
}

std::vector<net::NodeId>
TemplateRegistry::templateHolders(
    const std::string &function_name) const
{
    auto it = holders_.find(function_name);
    if (it == holders_.end())
        return {};
    return {it->second.begin(), it->second.end()};
}

std::optional<net::NodeId>
TemplateRegistry::nearest(const std::set<net::NodeId> &nodes,
                          net::NodeId from) const
{
    // std::set iterates ascending, so the first hit in each preference
    // class is the lowest node id — the deterministic tie-break.
    std::optional<net::NodeId> fallback;
    for (net::NodeId node : nodes) {
        if (node == from)
            continue;
        if (fabric_ != nullptr && fabric_->sameRack(node, from))
            return node;
        if (!fallback)
            fallback = node;
    }
    return fallback;
}

std::optional<net::NodeId>
TemplateRegistry::nearestTemplateHolder(
    const std::string &function_name, net::NodeId from) const
{
    auto it = holders_.find(function_name);
    if (it == holders_.end())
        return std::nullopt;
    return nearest(it->second, from);
}

std::optional<net::NodeId>
TemplateRegistry::nearestReplica(const std::string &key,
                                 net::NodeId from) const
{
    auto it = replicas_.find(key);
    if (it == replicas_.end())
        return std::nullopt;
    return nearest(it->second, from);
}

void
TemplateRegistry::addReplica(const std::string &key, net::NodeId node)
{
    replicas_[key].insert(node);
}

void
TemplateRegistry::dropReplica(const std::string &key, net::NodeId node)
{
    auto it = replicas_.find(key);
    if (it != replicas_.end()) {
        it->second.erase(node);
        if (it->second.empty())
            replicas_.erase(it);
    }
}

std::size_t
TemplateRegistry::replicaCount(const std::string &key) const
{
    auto it = replicas_.find(key);
    return it == replicas_.end() ? 0 : it->second.size();
}

std::uint64_t
TemplateRegistry::recordPublish(const std::string &key, net::NodeId node,
                                std::uint64_t generation)
{
    KeyPublishState &state = publishes_[key];
    auto it = state.generations.find(node);
    // Only a *republish* from the same node with a new generation bumps
    // the version: that is a rebuild replacing the stored bytes, and
    // copies cached under the old stamp are now stale. Every machine
    // announcing its own first build of a function does not.
    if (it != state.generations.end() && it->second != generation)
        ++state.version;
    state.generations[node] = generation;
    return state.version;
}

std::uint64_t
TemplateRegistry::keyVersion(const std::string &key) const
{
    auto it = publishes_.find(key);
    return it == publishes_.end() ? 0 : it->second.version;
}

std::optional<net::NodeId>
TemplateRegistry::nearestChunkHolder(net::ChunkId chunk,
                                     net::NodeId from) const
{
    auto it = chunks_.find(chunk);
    if (it == chunks_.end())
        return std::nullopt;
    return nearest(it->second, from);
}

void
TemplateRegistry::addChunkHolder(net::ChunkId chunk, net::NodeId node)
{
    chunks_[chunk].insert(node);
}

void
TemplateRegistry::dropChunkHolder(net::ChunkId chunk, net::NodeId node)
{
    auto it = chunks_.find(chunk);
    if (it != chunks_.end()) {
        it->second.erase(node);
        if (it->second.empty())
            chunks_.erase(it);
    }
}

std::size_t
TemplateRegistry::chunkHolderCount(net::ChunkId chunk) const
{
    auto it = chunks_.find(chunk);
    return it == chunks_.end() ? 0 : it->second.size();
}

} // namespace catalyzer::remote
