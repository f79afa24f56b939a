/**
 * @file
 * Guest-kernel metadata object graph.
 *
 * A running gVisor-style sandbox holds tens of thousands of interlinked
 * kernel objects (tasks, mounts, timers, session lists, ...). Checkpoint
 * serializes this graph; restore must rebuild it. The paper measures
 * 37,838 objects for the SPECjbb sandbox (Sec. 2.2) and makes their
 * one-by-one deserialization the dominant restore cost that separated
 * state recovery removes.
 */

#ifndef CATALYZER_OBJGRAPH_OBJECT_GRAPH_H
#define CATALYZER_OBJGRAPH_OBJECT_GRAPH_H

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <ranges>
#include <span>
#include <vector>

#include "sim/rng.h"

namespace catalyzer::objgraph {

/** Guest-kernel object categories (the paper's examples, Sec. 2.2). */
enum class ObjectKind : std::uint8_t
{
    Task,
    ThreadContext,
    Mount,
    Timer,
    SessionList,
    FdTableEntry,
    MemoryRegion,
    Misc,
};

const char *objectKindName(ObjectKind kind);

/**
 * One metadata object, as a view into its graph's flat storage. id is
 * 1-based; 0 means "null pointer".
 */
struct MetaObject
{
    std::uint64_t id = 0;
    ObjectKind kind = ObjectKind::Misc;
    /** Serialized payload size excluding pointer slots. */
    std::uint32_t payloadBytes = 0;
    /**
     * Outgoing references (object ids; 0 entries are null slots). Points
     * into the graph's shared ref array: valid while that storage lives
     * and until the next addObject() on the graph it came from.
     */
    std::span<const std::uint64_t> refs;
};

/** Shape parameters for synthesizing a sandbox's kernel state. */
struct GraphSpec
{
    std::size_t tasks = 8;
    std::size_t threadContexts = 16;
    std::size_t mounts = 24;
    std::size_t timers = 32;
    std::size_t sessionLists = 8;
    std::size_t fdTableEntries = 64;
    std::size_t memoryRegions = 48;
    std::size_t miscObjects = 800;

    /** Mean payload size per object, bytes. */
    double meanPayloadBytes = 96.0;
    /** Fraction of objects that carry outgoing pointers. */
    double pointerBearingFraction = 0.13;
    /** Mean refs per pointer-bearing object. */
    double meanRefsPerObject = 3.0;

    std::size_t
    totalObjects() const
    {
        return tasks + threadContexts + mounts + timers + sessionLists +
               fdTableEntries + memoryRegions + miscObjects;
    }

    /** Scale every category so the total is roughly @p objects. */
    static GraphSpec scaledTo(std::size_t objects);
};

/**
 * The object graph itself. Objects are stored in id order; references
 * always point at already-created objects (the graph is a DAG plus
 * explicit back-links are not needed for the reproduction).
 *
 * Storage is flat: one node array holds each object's kind, payload
 * size and the extent of its refs in one ref array shared by all
 * objects, and an object's id is its node index + 1. Building,
 * copying and dropping a graph therefore touches two arrays, not one
 * heap block per pointer-bearing object.
 *
 * Graphs share that storage copy-on-write: copying a graph (e.g.
 * handing the template's kernel state to every sfork'd instance, or a
 * separated image's restore handing back the graph it checkpointed)
 * aliases one immutable storage block, and the first addObject()
 * detaches a private copy. This mirrors the paper's separated state
 * design, where instances reuse immutable kernel metadata instead of
 * deserializing their own copy.
 */
class ObjectGraph
{
  public:
    ObjectGraph() = default;

    /**
     * Add an object; returns its id. Refs must name existing ids or 0,
     * and must not point into this graph's own storage.
     */
    std::uint64_t addObject(ObjectKind kind, std::uint32_t payload_bytes,
                            std::span<const std::uint64_t> refs);
    std::uint64_t
    addObject(ObjectKind kind, std::uint32_t payload_bytes,
              std::initializer_list<std::uint64_t> refs)
    {
        return addObject(kind, payload_bytes,
                         std::span<const std::uint64_t>(refs.begin(),
                                                        refs.size()));
    }

    /** The object with @p id, in 1..objectCount(); panics otherwise. */
    MetaObject
    object(std::uint64_t id) const
    {
        if (id == 0 || id > objectCount())
            badId(id);
        return view(id);
    }

    std::size_t
    objectCount() const
    {
        return storage_ ? storage_->nodes.size() : 0;
    }

    /** Total non-null outgoing references. */
    std::size_t pointerCount() const;

    /** All objects in id order, as MetaObject views; a view of *this. */
    auto
    objects() const
    {
        return std::views::iota(std::uint64_t{1},
                                std::uint64_t{objectCount() + 1}) |
               std::views::transform(
                   [this](std::uint64_t id) { return view(id); });
    }

    /** Synthesize a graph with the given shape, deterministically. */
    static ObjectGraph synthesize(sim::Rng &rng, const GraphSpec &spec);

  private:
    /** One object of the flat storage; its id is its index + 1. */
    struct Node
    {
        /** Index of the first ref in Storage::refs. */
        std::uint32_t firstRef = 0;
        std::uint32_t refCount = 0;
        std::uint32_t payloadBytes = 0;
        ObjectKind kind = ObjectKind::Misc;
    };

    /**
     * Nodes in id order; each node's refs are the next refCount entries
     * of refs.
     */
    struct Storage
    {
        std::vector<Node> nodes;
        std::vector<std::uint64_t> refs;
    };

    const std::vector<std::uint64_t> &refs() const;

    /** The object at @p id, unchecked. */
    MetaObject
    view(std::uint64_t id) const
    {
        const Node &node = storage_->nodes[id - 1];
        return MetaObject{id, node.kind, node.payloadBytes,
                          std::span<const std::uint64_t>(
                              storage_->refs.data() + node.firstRef,
                              node.refCount)};
    }

    [[noreturn]] static void badId(std::uint64_t id);

    /** Clone the shared storage if any other graph aliases it. */
    void detach();

    /** Shared-immutable object storage; null means empty. */
    std::shared_ptr<Storage> storage_;
};

} // namespace catalyzer::objgraph

#endif // CATALYZER_OBJGRAPH_OBJECT_GRAPH_H
