#include "state/state_region.h"

#include "mem/types.h"
#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::state {

bool
RegionAttachment::stale() const
{
    return store_ != nullptr && store_->version(region_) != version_;
}

void
RegionFaultStats::onFaultRange(mem::PageIndex, std::size_t npages,
                               bool, mem::FaultResult result)
{
    switch (result) {
      case mem::FaultResult::Cow:
      case mem::FaultResult::CowReuse:
      case mem::FaultResult::BaseCow:
        cow_faults_ += npages;
        stats_.incr(metrics::kStateCowFaults,
                    static_cast<std::int64_t>(npages));
        break;
      case mem::FaultResult::BaseFill:
      case mem::FaultResult::MinorFile:
        read_faults_ += npages;
        stats_.incr(metrics::kStateReadFaults,
                    static_cast<std::int64_t>(npages));
        break;
      default:
        break;
    }
}

void
StateRegionStore::addNode(net::NodeId node, mem::FrameStore &frames,
                          sim::SimContext &ctx)
{
    Node &slot = nodes_[node];
    slot.frames = &frames;
    slot.ctx = &ctx;
}

StateRegionStore::Region &
StateRegionStore::regionOrDie(const std::string &name)
{
    auto it = regions_.find(name);
    if (it == regions_.end())
        sim::fatal("StateRegionStore: unknown region %s", name.c_str());
    return it->second;
}

const StateRegionStore::Region &
StateRegionStore::regionOrDie(const std::string &name) const
{
    auto it = regions_.find(name);
    if (it == regions_.end())
        sim::fatal("StateRegionStore: unknown region %s", name.c_str());
    return it->second;
}

StateRegionStore::Node &
StateRegionStore::nodeOrDie(net::NodeId node)
{
    auto it = nodes_.find(node);
    if (it == nodes_.end())
        sim::fatal("StateRegionStore: node %u not registered",
                   static_cast<unsigned>(node));
    return it->second;
}

StateRegionStore::Replica
StateRegionStore::makeReplica(const std::string &name,
                              const Region &region, net::NodeId node,
                              std::uint64_t version)
{
    Node &slot = nodeOrDie(node);
    Replica replica;
    replica.version = version;
    const std::string label =
        "state/" + name + "@v" + std::to_string(version);
    replica.file = std::make_shared<mem::BackingFile>(
        *slot.frames, label, region.npages);
    replica.base = std::make_shared<mem::BaseMapping>(
        *slot.frames, *replica.file, 0, region.npages, label);
    return replica;
}

void
StateRegionStore::create(const std::string &name, std::size_t npages,
                         net::NodeId home)
{
    if (npages == 0)
        sim::fatal("StateRegionStore: region %s needs pages",
                   name.c_str());
    if (regions_.count(name) != 0)
        sim::fatal("StateRegionStore: region %s already exists",
                   name.c_str());
    Node &slot = nodeOrDie(home);
    Region region;
    region.npages = npages;
    region.home = home;
    region.version = 1; // sealed as version 1; not attachable yet
    region.replicas.emplace(home, makeReplica(name, region, home, 1));
    regions_.emplace(name, std::move(region));
    slot.ctx->chargeCounted(metrics::kStateCreates,
                            slot.ctx->costs().stateCreateFixed);
    slot.ctx->stats().incr(metrics::kStateRegionsResident);
}

void
StateRegionStore::seal(const std::string &name)
{
    Region &region = regionOrDie(name);
    if (region.sealed)
        sim::fatal("StateRegionStore: region %s already sealed",
                   name.c_str());
    region.sealed = true;
}

void
StateRegionStore::ensure(const std::string &name, std::size_t npages,
                         net::NodeId home)
{
    if (regions_.count(name) != 0)
        return;
    create(name, npages, home);
    seal(name);
}

bool
StateRegionStore::exists(const std::string &name) const
{
    return regions_.count(name) != 0;
}

net::NodeId
StateRegionStore::nearestHolder(const Region &region,
                                net::NodeId to) const
{
    bool have = false;
    net::NodeId best = 0;
    bool best_same_rack = false;
    for (const auto &[node, replica] : region.replicas) {
        if (replica.version != region.version)
            continue;
        const bool same_rack =
            fabric_ != nullptr && fabric_->sameRack(node, to);
        if (!have || (same_rack && !best_same_rack)) {
            have = true;
            best = node;
            best_same_rack = same_rack;
        }
    }
    if (!have)
        sim::panic("StateRegionStore: region lost its last replica");
    return best;
}

RegionAttachment
StateRegionStore::attach(const std::string &name, net::NodeId node,
                         trace::TraceContext trace)
{
    Region &region = regionOrDie(name);
    if (!region.sealed)
        sim::fatal("StateRegionStore: attach to unsealed region %s",
                   name.c_str());
    Node &slot = nodeOrDie(node);
    sim::SimContext &ctx = *slot.ctx;

    auto it = region.replicas.find(node);
    if (it != region.replicas.end() &&
        it->second.version != region.version) {
        // Stale local replica: drop it (readers attached to the old
        // version keep it alive through their handles) and stream the
        // current one below.
        region.replicas.erase(it);
        it = region.replicas.end();
        ctx.stats().incr(metrics::kStateRegionsResident, -1);
    }
    if (it == region.replicas.end()) {
        const net::NodeId src = nearestHolder(region, node);
        const std::size_t bytes = mem::bytesForPages(region.npages);
        if (fabric_ != nullptr) {
            fabric_->transfer(ctx, src, node, bytes, "state-region",
                              trace);
        } else {
            // No fabric registered (standalone store): legacy flat
            // per-MiB charge, same as compat-mode transfers.
            ctx.charge(ctx.costs().networkFetchPerMiB *
                       (static_cast<double>(bytes) / (1024.0 * 1024.0)));
        }
        ctx.stats().incr(metrics::kStateTransfers);
        ctx.stats().incr(metrics::kStateTransferBytes,
                         static_cast<std::int64_t>(bytes));
        it = region.replicas
                 .emplace(node,
                          makeReplica(name, region, node, region.version))
                 .first;
        ctx.stats().incr(metrics::kStateRegionsResident);
    }

    ctx.chargeCounted(metrics::kStateAttaches, ctx.costs().stateAttachFixed);
    it->second.base->attach();

    RegionAttachment out;
    out.store_ = this;
    out.region_ = name;
    out.version_ = it->second.version;
    out.node_ = node;
    out.file_ = it->second.file;
    out.base_ = it->second.base;
    return out;
}

void
StateRegionStore::detach(RegionAttachment &attachment)
{
    if (!attachment.valid())
        return;
    attachment.base_->detach();
    attachment.base_.reset();
    attachment.file_.reset();
    attachment.store_ = nullptr;
}

std::uint64_t
StateRegionStore::publish(const std::string &name, net::NodeId node,
                          std::size_t dirty_pages,
                          trace::TraceContext trace)
{
    Region &region = regionOrDie(name);
    if (!region.sealed)
        sim::fatal("StateRegionStore: publish on unsealed region %s",
                   name.c_str());
    auto it = region.replicas.find(node);
    if (it == region.replicas.end() ||
        it->second.version != region.version)
        sim::fatal("StateRegionStore: publish of %s from node %u "
                   "without a current replica (writers attach first)",
                   name.c_str(), static_cast<unsigned>(node));
    Node &slot = nodeOrDie(node);
    sim::SimContext &ctx = *slot.ctx;

    // Fold the writer's private dirty pages into a new arena
    // generation: version bump + directory update, then one fold
    // charge per COW'd page.
    trace::ScopedSpan span(trace, "state-publish");
    span.attr("region", name);
    span.attr("dirty_pages", static_cast<std::int64_t>(dirty_pages));
    ctx.chargeCounted(
        metrics::kStatePublishes,
        ctx.costs().statePublishFixed +
            ctx.costs().statePublishPerPage *
                static_cast<std::int64_t>(dirty_pages));
    ctx.stats().incr(metrics::kStatePublishedPages,
                     static_cast<std::int64_t>(dirty_pages));

    ++region.version;
    // Every other machine's replica is now stale: drop it from the
    // directory (attached readers keep their snapshot through the
    // shared_ptrs in their handles).
    for (auto replica_it = region.replicas.begin();
         replica_it != region.replicas.end();) {
        if (replica_it->first == node) {
            ++replica_it;
            continue;
        }
        nodeOrDie(replica_it->first)
            .ctx->stats()
            .incr(metrics::kStateRegionsResident, -1);
        replica_it = region.replicas.erase(replica_it);
    }
    it->second = makeReplica(name, region, node, region.version);
    return region.version;
}

void
StateRegionStore::pin(const std::string &name, net::NodeId node)
{
    Region &region = regionOrDie(name);
    auto it = region.replicas.find(node);
    if (it == region.replicas.end())
        sim::fatal("StateRegionStore: pin of %s on node %u without a "
                   "replica",
                   name.c_str(), static_cast<unsigned>(node));
    ++it->second.pins;
}

void
StateRegionStore::unpin(const std::string &name, net::NodeId node)
{
    Region &region = regionOrDie(name);
    auto it = region.replicas.find(node);
    if (it == region.replicas.end() || it->second.pins == 0)
        sim::fatal("StateRegionStore: unbalanced unpin of %s on node %u",
                   name.c_str(), static_cast<unsigned>(node));
    --it->second.pins;
}

bool
StateRegionStore::evict(const std::string &name, net::NodeId node)
{
    Region &region = regionOrDie(name);
    auto it = region.replicas.find(node);
    if (it == region.replicas.end())
        return false;
    Replica &replica = it->second;
    if (replica.pins > 0 || replica.base->attachCount() > 0)
        return false;
    if (replica.version == region.version) {
        // Refuse to drop the last current copy: that would lose the
        // region's contents.
        std::size_t current = 0;
        for (const auto &[n, r] : region.replicas)
            current += r.version == region.version ? 1 : 0;
        if (current <= 1)
            return false;
    }
    nodeOrDie(node).ctx->stats().incr(metrics::kStateRegionsResident, -1);
    nodeOrDie(node).ctx->stats().incr(metrics::kStateEvictions);
    region.replicas.erase(it);
    return true;
}

std::uint64_t
StateRegionStore::version(const std::string &name) const
{
    return regionOrDie(name).version;
}

std::size_t
StateRegionStore::regionPages(const std::string &name) const
{
    return regionOrDie(name).npages;
}

std::vector<net::NodeId>
StateRegionStore::holders(const std::string &name) const
{
    const Region &region = regionOrDie(name);
    std::vector<net::NodeId> out;
    for (const auto &[node, replica] : region.replicas) {
        if (replica.version == region.version)
            out.push_back(node);
    }
    return out;
}

std::size_t
StateRegionStore::residentBytesOn(net::NodeId node) const
{
    std::size_t bytes = 0;
    for (const auto &[name, region] : regions_) {
        auto it = region.replicas.find(node);
        if (it != region.replicas.end() &&
            it->second.version == region.version)
            bytes += mem::bytesForPages(region.npages);
    }
    return bytes;
}

std::vector<std::string>
StateRegionStore::regionNames() const
{
    std::vector<std::string> out;
    out.reserve(regions_.size());
    for (const auto &[name, region] : regions_)
        out.push_back(name);
    return out;
}

} // namespace catalyzer::state
