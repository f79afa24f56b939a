#include "objgraph/object_graph.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"

namespace catalyzer::objgraph {

const char *
objectKindName(ObjectKind kind)
{
    switch (kind) {
      case ObjectKind::Task: return "task";
      case ObjectKind::ThreadContext: return "thread_context";
      case ObjectKind::Mount: return "mount";
      case ObjectKind::Timer: return "timer";
      case ObjectKind::SessionList: return "session_list";
      case ObjectKind::FdTableEntry: return "fdtable_entry";
      case ObjectKind::MemoryRegion: return "memory_region";
      case ObjectKind::Misc: return "misc";
    }
    return "unknown";
}

GraphSpec
GraphSpec::scaledTo(std::size_t objects)
{
    GraphSpec base;
    const double factor = static_cast<double>(objects) /
                          static_cast<double>(base.totalObjects());
    auto scale = [factor](std::size_t v) {
        return static_cast<std::size_t>(std::llround(
            std::max(1.0, static_cast<double>(v) * factor)));
    };
    GraphSpec out;
    out.tasks = scale(base.tasks);
    out.threadContexts = scale(base.threadContexts);
    out.mounts = scale(base.mounts);
    out.timers = scale(base.timers);
    out.sessionLists = scale(base.sessionLists);
    out.fdTableEntries = scale(base.fdTableEntries);
    out.memoryRegions = scale(base.memoryRegions);
    // Put the remainder in misc so totals land close to the request.
    const std::size_t partial = out.tasks + out.threadContexts +
                                out.mounts + out.timers + out.sessionLists +
                                out.fdTableEntries + out.memoryRegions;
    out.miscObjects = objects > partial ? objects - partial : 1;
    return out;
}

namespace {

/** The DAG rule: an object may only reference strictly earlier ids. */
void
checkBackwardRefs(std::uint64_t id, std::span<const std::uint64_t> refs)
{
    for (std::uint64_t ref : refs) {
        if (ref >= id)
            sim::panic("ObjectGraph: object %llu has forward/self ref %llu",
                       static_cast<unsigned long long>(id),
                       static_cast<unsigned long long>(ref));
    }
}

} // namespace

const std::vector<ObjectGraph::Node> &
ObjectGraph::nodes() const
{
    static const std::vector<Node> kEmpty;
    return storage_ ? storage_->nodes : kEmpty;
}

const std::vector<std::uint64_t> &
ObjectGraph::refs() const
{
    static const std::vector<std::uint64_t> kEmpty;
    return storage_ ? storage_->refs : kEmpty;
}

void
ObjectGraph::detach()
{
    if (!storage_)
        storage_ = std::make_shared<Storage>();
    else if (storage_.use_count() > 1)
        storage_ = std::make_shared<Storage>(*storage_);
}

std::uint64_t
ObjectGraph::addObject(ObjectKind kind, std::uint32_t payload_bytes,
                       std::span<const std::uint64_t> refs)
{
    const std::uint64_t id = objectCount() + 1;
    checkBackwardRefs(id, refs);
    detach();
    Storage &s = *storage_;
    if (s.refs.size() + refs.size() > UINT32_MAX)
        sim::panic("ObjectGraph: more than 2^32 refs");
    s.nodes.push_back(Node{static_cast<std::uint32_t>(s.refs.size()),
                           static_cast<std::uint32_t>(refs.size()),
                           payload_bytes, kind});
    s.refs.insert(s.refs.end(), refs.begin(), refs.end());
    return id;
}

void
ObjectGraph::badId(std::uint64_t id)
{
    sim::panic("ObjectGraph::object: bad id %llu",
               static_cast<unsigned long long>(id));
}

std::size_t
ObjectGraph::pointerCount() const
{
    return static_cast<std::size_t>(
        std::count_if(refs().begin(), refs().end(),
                      [](std::uint64_t r) { return r != 0; }));
}

std::size_t
ObjectGraph::payloadBytes() const
{
    std::size_t n = 0;
    for (const Node &node : nodes())
        n += node.payloadBytes;
    return n;
}

bool
ObjectGraph::checkIntegrity() const
{
    const std::size_t n = objectCount();
    return std::all_of(refs().begin(), refs().end(),
                       [n](std::uint64_t r) { return r <= n; });
}

bool
ObjectGraph::operator==(const ObjectGraph &other) const
{
    if (storage_ == other.storage_)
        return true; // shared storage, structurally equal by definition
    return nodes() == other.nodes() && refs() == other.refs();
}

ObjectGraph
ObjectGraph::synthesize(sim::Rng &rng, const GraphSpec &spec)
{
    struct Batch
    {
        ObjectKind kind;
        std::size_t count;
    };
    const Batch batches[] = {
        {ObjectKind::Task, spec.tasks},
        {ObjectKind::ThreadContext, spec.threadContexts},
        {ObjectKind::Mount, spec.mounts},
        {ObjectKind::Timer, spec.timers},
        {ObjectKind::SessionList, spec.sessionLists},
        {ObjectKind::FdTableEntry, spec.fdTableEntries},
        {ObjectKind::MemoryRegion, spec.memoryRegions},
        {ObjectKind::Misc, spec.miscObjects},
    };
    Storage storage;
    storage.nodes.reserve(spec.totalObjects());
    for (const auto &batch : batches) {
        for (std::size_t i = 0; i < batch.count; ++i) {
            const auto payload = static_cast<std::uint32_t>(
                std::max(16.0, rng.exponential(spec.meanPayloadBytes)));
            const std::uint64_t next_id = storage.nodes.size() + 1;
            const auto first_ref =
                static_cast<std::uint32_t>(storage.refs.size());
            if (next_id > 1 && rng.chance(spec.pointerBearingFraction)) {
                const auto nrefs = static_cast<std::size_t>(
                    1 + rng.uniformInt(static_cast<std::uint64_t>(
                            std::max(1.0, spec.meanRefsPerObject * 2 - 1))));
                for (std::size_t r = 0; r < nrefs; ++r)
                    storage.refs.push_back(1 + rng.uniformInt(next_id - 1));
            }
            storage.nodes.push_back(Node{
                first_ref,
                static_cast<std::uint32_t>(storage.refs.size() - first_ref),
                payload, batch.kind});
        }
    }
    ObjectGraph graph;
    if (!storage.nodes.empty())
        graph.storage_ = std::make_shared<Storage>(std::move(storage));
    return graph;
}

} // namespace catalyzer::objgraph
