#include "trace/export.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

#include "sim/json.h"

namespace catalyzer::trace {

void
exportChromeTrace(const std::vector<Span> &spans, std::ostream &os)
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    // One labelled process lane per machine that recorded spans, so the
    // viewer shows "machine N" rows instead of anonymous pids.
    std::set<std::uint32_t> machines;
    for (const Span &span : spans)
        machines.insert(span.machine);
    for (std::uint32_t machine : machines) {
        os << (first ? "\n" : ",\n")
           << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << machine
           << ",\"tid\":0,\"args\":{\"name\":\"machine " << machine
           << "\"}}";
        first = false;
    }
    for (const Span &span : spans) {
        if (!first)
            os << ",";
        first = false;
        const double ts = span.start.toUs();
        const double dur = span.finished ? span.duration().toUs() : 0.0;
        os << "\n{\"name\":\"" << sim::jsonEscape(span.name)
           << "\",\"cat\":\"boot\",\"ph\":\"X\",\"pid\":" << span.machine
           << ",\"tid\":" << span.traceId << ",\"ts\":" << ts
           << ",\"dur\":" << dur << ",\"args\":{";
        os << "\"span_id\":\"" << span.id << "\",\"parent_id\":\""
           << span.parent << "\",\"trace_id\":\"" << span.traceId
           << "\"";
        if (!span.finished)
            os << ",\"unfinished\":\"true\"";
        for (const auto &[key, value] : span.attributes)
            os << ",\"" << sim::jsonEscape(key) << "\":\""
               << sim::jsonEscape(value) << "\"";
        os << "}}";
    }
    os << "\n]}\n";
}

void
exportChromeTrace(const Tracer &tracer, std::ostream &os)
{
    exportChromeTrace(tracer.snapshot(), os);
}

namespace {

void
printTree(std::ostream &os, const std::vector<Span> &spans,
          const std::map<SpanId, std::vector<std::size_t>> &children,
          std::size_t index, int depth)
{
    const Span &span = spans[index];
    for (int i = 0; i < depth; ++i)
        os << "  ";
    os << span.name << "  [" << span.start.toString() << " +"
       << span.duration().toString() << "]";
    if (!span.finished)
        os << " (unfinished)";
    for (const auto &[key, value] : span.attributes)
        os << " " << key << "=" << value;
    os << "\n";
    auto it = children.find(span.id);
    if (it == children.end())
        return;
    for (std::size_t child : it->second)
        printTree(os, spans, children, child, depth + 1);
}

} // namespace

void
exportText(const Tracer &tracer, std::ostream &os)
{
    const std::vector<Span> spans = tracer.snapshot();

    // Index children (and orphans whose parent left the buffer) per
    // parent, ordered by start time.
    std::map<SpanId, std::vector<std::size_t>> children;
    std::map<SpanId, std::size_t> by_id;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_id[spans[i].id] = i;
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != 0 && by_id.count(spans[i].parent))
            children[spans[i].parent].push_back(i);
        else
            roots.push_back(i);
    }
    auto by_start = [&spans](std::size_t a, std::size_t b) {
        if (spans[a].start != spans[b].start)
            return spans[a].start < spans[b].start;
        return spans[a].id < spans[b].id;
    };
    std::sort(roots.begin(), roots.end(), by_start);
    for (auto &[id, list] : children)
        std::sort(list.begin(), list.end(), by_start);

    os << "trace: " << spans.size() << " spans, " << roots.size()
       << " roots\n";
    for (std::size_t root : roots)
        printTree(os, spans, children, root, 1);
}

} // namespace catalyzer::trace
