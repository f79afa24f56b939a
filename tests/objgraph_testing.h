/**
 * @file
 * Test helpers for object graphs whose storage is shared copy-on-write.
 */

#ifndef CATALYZER_TESTS_OBJGRAPH_TESTING_H
#define CATALYZER_TESTS_OBJGRAPH_TESTING_H

#include "objgraph/object_graph.h"

namespace catalyzer::objgraph {

/**
 * A structurally equal graph that shares no storage with @p graph.
 * ObjectGraph::operator== is true at once for aliases, so a round trip
 * that may hand back an alias must be compared with this copy.
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
