/**
 * @file
 * Span-based tracing on simulated time.
 *
 * A Span is a named interval of virtual time with an optional parent and
 * key/value attributes; a Tracer buffers finished and in-flight spans
 * thread-safely. TraceContext is the small value handle the boot
 * pipelines thread from request arrival down to function entry: it names
 * the tracer, the virtual clock supplying timestamps, and the span that
 * should adopt whatever the callee records. A default-constructed
 * TraceContext is disabled and turns every operation into a no-op, so
 * instrumented code paths cost nothing when nobody is tracing.
 *
 * Exporters (Chrome trace_event JSON and a hierarchical text dump) live
 * in trace/export.h.
 */

#ifndef CATALYZER_TRACE_TRACE_H
#define CATALYZER_TRACE_TRACE_H

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "sim/time.h"

namespace catalyzer::trace {

/** Identifier of one span; 0 means "no span" (the forest root). */
using SpanId = std::uint64_t;

/**
 * Identifier of one distributed request: every span a request creates —
 * on whichever machine it runs — carries the same trace id, so a
 * remote-sfork boot's lender and borrower spans stitch back into one
 * timeline. 0 means "not part of a stitched trace" (bare Tracer::begin
 * callers and pre-fleet code paths).
 */
using TraceId = std::uint64_t;

/** Allocate a fresh process-unique trace id (monotonic from 1). */
TraceId nextTraceId();

/** One named interval of virtual time. */
struct Span
{
    SpanId id = 0;
    /** Enclosing span, or 0 for a root. */
    SpanId parent = 0;
    /** Distributed request this span belongs to; 0 = unstitched. */
    TraceId traceId = 0;
    /** Machine (cluster node id) that recorded the span. */
    std::uint32_t machine = 0;
    std::string name;
    sim::SimTime start;
    /** Meaningful only when finished is true. */
    sim::SimTime end;
    bool finished = false;
    std::vector<std::pair<std::string, std::string>> attributes;

    sim::SimTime
    duration() const
    {
        return finished ? end - start : sim::SimTime::zero();
    }
};

/**
 * Buffer of spans for one trace. All members are safe to call from
 * multiple threads; span ids are handed out monotonically from 1.
 *
 * Finish order is unconstrained: a parent may finish before its
 * children (the child keeps recording into the buffer), and finishing
 * an already-finished span keeps the first end time.
 *
 * By default the buffer grows without bound (benches snapshot and clear
 * between workloads); setCapacity() turns it into a ring of the most
 * recent spans — the always-on per-machine mode, where the flight
 * recorder wants "what just happened", not full history. Eviction is
 * oldest-first and droppedCount() says how many fell off.
 */
class Tracer
{
  public:
    /** Open a span starting at @p start under @p parent (0 = root),
     *  tagged with @p trace_id and this tracer's machine id. */
    SpanId begin(std::string name, sim::SimTime start, SpanId parent = 0,
                 TraceId trace_id = 0);

    /** Close a span at @p end. Unknown ids and double-ends are no-ops. */
    void end(SpanId id, sim::SimTime end);

    /** Attach (append) a key/value attribute to an open or closed span. */
    void attribute(SpanId id, std::string key, std::string value);

    /** Copy of the buffered spans, in creation (= start-time) order. */
    std::vector<Span> snapshot() const;

    /** Copy of the most recent @p n buffered spans (creation order). */
    std::vector<Span> recent(std::size_t n) const;

    std::size_t spanCount() const;

    /** Drop all buffered spans; ids keep increasing. */
    void clear();

    /**
     * Bound the buffer to the @p capacity most recent spans (0 =
     * unbounded). An over-full buffer evicts oldest-first immediately.
     */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const;

    /** Spans evicted by the capacity ring so far. */
    std::uint64_t droppedCount() const;

    /** Machine (cluster node) id stamped on every span recorded here. */
    void setMachine(std::uint32_t machine);
    std::uint32_t machine() const;

  private:
    /** Evict oldest spans until the buffer fits capacity_ (mu_ held). */
    void enforceCapacityLocked();

    mutable std::mutex mu_;
    std::deque<Span> spans_;
    SpanId next_id_ = 1;
    std::size_t capacity_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint32_t machine_ = 0;
};

/**
 * The handle threaded through instrumented code: tracer + clock +
 * current parent span + the distributed trace id the request belongs
 * to. Copyable and cheap; pass by value.
 *
 * A context created without a trace id gets one lazily: the first
 * ScopedSpan opened on it allocates a fresh cluster-unique id, and
 * every child context (context()/withParent()) inherits it — including
 * contexts rebuilt against a *different* machine's tracer via
 * withTracer(), which is how one request's spans stitch across the
 * remote-sfork handshake, RemotePager pulls and P2P image fetches.
 */
class TraceContext
{
  public:
    /** Disabled context: every operation is a no-op. */
    TraceContext() = default;

    TraceContext(Tracer &tracer, const sim::VirtualClock &clock,
                 SpanId parent = 0, TraceId trace_id = 0)
        : tracer_(&tracer), clock_(&clock), parent_(parent),
          trace_id_(trace_id)
    {}

    bool enabled() const { return tracer_ != nullptr; }

    Tracer *tracer() const { return tracer_; }
    SpanId parent() const { return parent_; }
    TraceId traceId() const { return trace_id_; }

    /** Current virtual time (zero when disabled). */
    sim::SimTime
    now() const
    {
        return clock_ ? clock_->now() : sim::SimTime::zero();
    }

    /** The same tracer/clock with a different parent span. */
    TraceContext
    withParent(SpanId parent) const
    {
        TraceContext child = *this;
        child.parent_ = parent;
        return child;
    }

    /** The same tracer/clock/parent carrying @p trace_id. */
    TraceContext
    withTrace(TraceId trace_id) const
    {
        TraceContext child = *this;
        child.trace_id_ = trace_id;
        return child;
    }

    /**
     * The same trace id re-homed on another machine's tracer and clock,
     * parent reset to root there (the caller's span ids are meaningless
     * in the peer's buffer). This is the cross-machine hop.
     */
    TraceContext
    withTracer(Tracer &tracer, const sim::VirtualClock &clock) const
    {
        return TraceContext(tracer, clock, 0, trace_id_);
    }

    /**
     * Record an already-elapsed interval [now - duration, now] as a
     * completed child span (retroactive measurement of work that ran
     * without a span, e.g. the platform gateway hop).
     */
    SpanId completedSpan(const std::string &name,
                         sim::SimTime duration) const;

  private:
    Tracer *tracer_ = nullptr;
    const sim::VirtualClock *clock_ = nullptr;
    SpanId parent_ = 0;
    TraceId trace_id_ = 0;
};

/**
 * RAII span: opens on construction under the context's parent, closes
 * at destruction (or an earlier finish()) at the clock's then-current
 * time. context() yields the TraceContext to hand to callees so their
 * spans nest under this one.
 */
class ScopedSpan
{
  public:
    ScopedSpan(TraceContext ctx, std::string name)
        : ScopedSpan(ctx, std::move(name), ctx.now())
    {}

    /** Open at @p start (not after now) instead of at now. */
    ScopedSpan(TraceContext ctx, std::string name, sim::SimTime start);

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan();

    /** Attach an attribute to this span. */
    void attr(const std::string &key, std::string value);
    void attr(const std::string &key, std::int64_t value);

    /** Close the span now; later finishes (and the destructor) no-op. */
    void finish();

    /** Context for callees: same tracer/clock, parent = this span. */
    TraceContext
    context() const
    {
        return ctx_.withParent(id_);
    }

    SpanId id() const { return id_; }

  private:
    TraceContext ctx_;
    SpanId id_ = 0;
    bool finished_ = false;
};

} // namespace catalyzer::trace

#endif // CATALYZER_TRACE_TRACE_H
