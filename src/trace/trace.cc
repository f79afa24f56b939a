#include "trace/trace.h"

#include <algorithm>
#include <atomic>

namespace catalyzer::trace {

TraceId
nextTraceId()
{
    // Process-wide so trace ids are unique across every machine in a
    // simulated cluster; single-threaded workloads see a deterministic
    // 1, 2, 3, ... sequence.
    static std::atomic<TraceId> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

SpanId
Tracer::begin(std::string name, sim::SimTime start, SpanId parent,
              TraceId trace_id)
{
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.id = next_id_++;
    span.parent = parent;
    span.traceId = trace_id;
    span.machine = machine_;
    span.name = std::move(name);
    span.start = start;
    spans_.push_back(std::move(span));
    const SpanId id = spans_.back().id;
    enforceCapacityLocked();
    return id;
}

void
Tracer::end(SpanId id, sim::SimTime end)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
        if (it->id != id)
            continue;
        if (!it->finished) {
            it->end = end < it->start ? it->start : end;
            it->finished = true;
        }
        return;
    }
}

void
Tracer::attribute(SpanId id, std::string key, std::string value)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
        if (it->id != id)
            continue;
        it->attributes.emplace_back(std::move(key), std::move(value));
        return;
    }
}

std::vector<Span>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return {spans_.begin(), spans_.end()};
}

std::vector<Span>
Tracer::recent(std::size_t n) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t take = std::min(n, spans_.size());
    return {spans_.end() - static_cast<std::ptrdiff_t>(take),
            spans_.end()};
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
}

void
Tracer::setCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity;
    enforceCapacityLocked();
}

std::size_t
Tracer::capacity() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
}

std::uint64_t
Tracer::droppedCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

void
Tracer::setMachine(std::uint32_t machine)
{
    std::lock_guard<std::mutex> lock(mu_);
    machine_ = machine;
}

std::uint32_t
Tracer::machine() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return machine_;
}

void
Tracer::enforceCapacityLocked()
{
    if (capacity_ == 0)
        return;
    while (spans_.size() > capacity_) {
        spans_.pop_front();
        ++dropped_;
    }
}

SpanId
TraceContext::completedSpan(const std::string &name,
                            sim::SimTime duration) const
{
    if (!enabled())
        return 0;
    const sim::SimTime stop = now();
    const SpanId id =
        tracer_->begin(name, stop - duration, parent_, trace_id_);
    tracer_->end(id, stop);
    return id;
}

ScopedSpan::ScopedSpan(TraceContext ctx, std::string name,
                       sim::SimTime start)
    : ctx_(ctx)
{
    if (!ctx_.enabled())
        return;
    // A root span of a not-yet-stitched context starts a new
    // distributed trace; children inherit the id through context().
    if (ctx_.traceId() == 0)
        ctx_ = ctx_.withTrace(nextTraceId());
    id_ = ctx_.tracer()->begin(std::move(name), start, ctx_.parent(),
                               ctx_.traceId());
}

ScopedSpan::~ScopedSpan()
{
    finish();
}

void
ScopedSpan::attr(const std::string &key, std::string value)
{
    if (id_ != 0)
        ctx_.tracer()->attribute(id_, key, std::move(value));
}

void
ScopedSpan::attr(const std::string &key, std::int64_t value)
{
    attr(key, std::to_string(value));
}

void
ScopedSpan::finish()
{
    if (id_ == 0 || finished_)
        return;
    finished_ = true;
    ctx_.tracer()->end(id_, ctx_.now());
}

} // namespace catalyzer::trace
