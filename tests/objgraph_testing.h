/**
 * @file
 * Test helpers for object graphs, read through their public objects()
 * view.
 */

#ifndef CATALYZER_TESTS_OBJGRAPH_TESTING_H
#define CATALYZER_TESTS_OBJGRAPH_TESTING_H

#include <algorithm>

#include "objgraph/object_graph.h"

namespace catalyzer::objgraph {

/**
 * Structural equality: the same objects, in id order, with the same
 * kind, payload size and refs (used to validate restore round trips).
 */
inline bool
sameGraph(const ObjectGraph &a, const ObjectGraph &b)
{
    return std::ranges::equal(
        a.objects(), b.objects(), [](const MetaObject &x, const MetaObject &y) {
            return x.kind == y.kind && x.payloadBytes == y.payloadBytes &&
                   std::ranges::equal(x.refs, y.refs);
        });
}

/**
 * The DAG rule: every ref is 0 (null) or an id below its own object's.
 * addObject() enforces it; synthesize() writes storage directly, so its
 * graphs are checked here.
 */
inline bool
refsPointBackward(const ObjectGraph &graph)
{
    return std::ranges::all_of(graph.objects(), [](const MetaObject &obj) {
        return std::ranges::all_of(obj.refs, [&obj](std::uint64_t ref) {
            return ref == 0 || ref < obj.id;
        });
    });
}

/**
 * A structurally equal graph that shares no storage with @p graph. A
 * round trip that may hand back an alias of its input compares equal
 * to it whatever it did, so compare it with this copy instead.
 */
inline ObjectGraph
deepCopy(const ObjectGraph &graph)
{
    ObjectGraph copy;
    for (const MetaObject &obj : graph.objects())
        copy.addObject(obj.kind, obj.payloadBytes, obj.refs);
    return copy;
}

} // namespace catalyzer::objgraph

#endif // CATALYZER_TESTS_OBJGRAPH_TESTING_H
