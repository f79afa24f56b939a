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
 * Recording is built to cost next to nothing per span: a Tracer keeps a
 * ring of compact records whose name and attribute keys are Names
 * (pointers to literals or interned strings, never copied), whose
 * attribute values are typed (integers stay integers), and whose slots
 * are reused in place. Strings are only built when someone reads the
 * buffer back as Spans.
 *
 * Exporters (Chrome trace_event JSON and a hierarchical text dump) live
 * in trace/export.h.
 */

#ifndef CATALYZER_TRACE_TRACE_H
#define CATALYZER_TRACE_TRACE_H

#include <concepts>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
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

/**
 * A span name or attribute key (or a fixed attribute value): the
 * address of a NUL-terminated string that lives as long as the process
 * — a string literal, or the tracer's copy from intern(). The address
 * serves as the interned id: span records store it and never copy the
 * bytes. A literal converts implicitly (checked at compile time); any
 * other string must go through intern(), which takes a process-wide
 * lock, so callers with a run-time name intern it once and keep it.
 */
class Name
{
  public:
    template <std::size_t N>
    consteval Name(const char (&literal)[N]) : str_(literal)
    {}

    /** The one process-lifetime copy of @p s (thread-safe). */
    static Name intern(std::string_view s);

    const char *c_str() const { return str_; }

  private:
    struct Interned
    {};
    Name(Interned, const char *str) : str_(str) {}

    const char *str_;
};

/** "true" / "false" as a Name. */
inline Name
boolName(bool value)
{
    return value ? Name("true") : Name("false");
}

/** A run-time string (not a literal), for the interning overloads. */
template <typename S>
concept RuntimeString = std::convertible_to<const S &, std::string_view> &&
                        !std::is_array_v<S>;

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
 * Storage is a ring of compact records (see Record), grown on demand
 * and reused in place once full, plus one circular attribute log; a
 * span costs no heap allocation in steady state. Live ids are
 * contiguous — eviction is oldest-first — so end() and attribute() find
 * their record at id - first live id. snapshot() and recent() render
 * records as Spans, formatting integer attributes with std::to_string.
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
    SpanId begin(Name name, sim::SimTime start, SpanId parent = 0,
                 TraceId trace_id = 0);

    /** Close a span at @p end. Unknown ids and double-ends are no-ops. */
    void end(SpanId id, sim::SimTime end);

    /**
     * Attach (append) a key/value attribute to an open or closed span.
     * Unknown (evicted) ids are no-ops. A run-time string value is
     * copied into the attribute log, so it need not outlive the call.
     */
    void attribute(SpanId id, Name key, Name value);
    void attribute(SpanId id, Name key, std::int64_t value);
    template <RuntimeString S>
    void
    attribute(SpanId id, Name key, const S &value)
    {
        attributeText(id, key, value);
    }

    /** Copy of the buffered spans, in creation (= start-time) order. */
    std::vector<Span> snapshot() const;

    /** Copy of the most recent @p n buffered spans (creation order). */
    std::vector<Span> recent(std::size_t n) const;

    std::size_t spanCount() const;

    /**
     * Bound the buffer to the @p capacity most recent spans (0 =
     * unbounded). An over-full buffer evicts oldest-first immediately.
     */
    void setCapacity(std::size_t capacity);

    /** Spans evicted by the capacity ring so far. */
    std::uint64_t droppedCount() const;

    /** Machine (cluster node) id stamped on every span recorded here. */
    void setMachine(std::uint32_t machine);

  private:
    /**
     * One typed attribute as logged: a packed 21-byte header (see
     * Attr::kBytes), followed by the value's bytes for a Text entry.
     */
    struct Attr
    {
        enum class Kind : std::uint8_t
        {
            Int,
            Name,
            Text,
        };
        /** Header layout: next (u32), kind (u8), key (ptr), value. */
        static constexpr std::size_t kBytes = 4 + 1 + 8 + 8;

        /** Distance to the span's next attribute; 0 = last one. */
        std::uint32_t next = 0;
        Kind kind = Kind::Int;
        const char *key = nullptr;
        /** Int: the value. Name: its address. Text: the byte length. */
        std::int64_t value = 0;
    };

    /** One ring slot. The id is implicit: slots hold consecutive ids. */
    struct Record
    {
        SpanId parent = 0;
        TraceId traceId = 0;
        sim::SimTime start;
        sim::SimTime end;
        const char *name = nullptr;
        /** Attribute-log head when the span began: nothing this span
         *  (or any later one) wrote lies before it. */
        std::uint64_t logMark = 0;
        /** First and last attribute, as log position - logMark + 1
         *  (0 = no attributes). */
        std::uint32_t firstAttr = 0;
        std::uint32_t lastAttr = 0;
        std::uint32_t machine = 0;
        bool finished = false;
    };

    void attributeText(SpanId id, Name key, std::string_view value);

    /** Live record with @p id, or nullptr (mu_ held). */
    Record *findLocked(SpanId id);
    /** Record at live position @p i, oldest = 0 (mu_ held). */
    const Record &atLocked(std::size_t i) const;
    /** Rotate the ring so the oldest record sits at index 0 (mu_ held). */
    void linearizeLocked();
    /** Append an attribute (+ @p text) to @p r's list (mu_ held). */
    void appendAttrLocked(Record &r, Attr::Kind kind, Name key,
                          std::int64_t value, std::string_view text = {});
    /** Index in log_ of log position @p pos (mu_ held). */
    std::size_t logIndex(std::uint64_t pos) const;
    /** Copy between the circular log and flat memory (mu_ held). */
    void writeLog(std::uint64_t pos, const void *src, std::size_t n);
    void readLog(std::uint64_t pos, void *dst, std::size_t n) const;
    /** Render live records [from, count_) as Spans (mu_ held). */
    std::vector<Span> spansLocked(std::size_t from) const;

    mutable std::mutex mu_;
    /** Slot storage; live records are count_ slots from head_. */
    std::vector<Record> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    SpanId next_id_ = 1;
    std::size_t capacity_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint32_t machine_ = 0;
    /**
     * Attribute log: every span's attributes as linked entries at
     * monotonically increasing positions, stored circularly in log_
     * (log_head_ sits at log_[log_index_]). Bytes before the oldest
     * live span's logMark are dead and get overwritten; log_ grows by
     * half whenever the live tail would not fit, so a bounded ring
     * stops growing it once the ring is full.
     */
    std::vector<char> log_;
    std::uint64_t log_head_ = 0;
    std::size_t log_index_ = 0;
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
    SpanId completedSpan(Name name, sim::SimTime duration) const;

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
    ScopedSpan(TraceContext ctx, Name name)
        : ScopedSpan(ctx, name, ctx.now())
    {}

    /** Open at @p start (not after now) instead of at now. */
    ScopedSpan(TraceContext ctx, Name name, sim::SimTime start);

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan();

    /** Attach an attribute to this span (see Tracer::attribute). */
    void
    attr(Name key, Name value)
    {
        if (id_ != 0)
            ctx_.tracer()->attribute(id_, key, value);
    }
    void
    attr(Name key, std::int64_t value)
    {
        if (id_ != 0)
            ctx_.tracer()->attribute(id_, key, value);
    }
    template <RuntimeString S>
    void
    attr(Name key, const S &value)
    {
        if (id_ != 0)
            ctx_.tracer()->attribute(id_, key, value);
    }

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
