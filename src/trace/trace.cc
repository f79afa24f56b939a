#include "trace/trace.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <deque>
#include <unordered_map>

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

namespace {

/** Process-wide table behind Name::intern. */
class NameTable
{
  public:
    static NameTable &
    instance()
    {
        static NameTable table;
        return table;
    }

    const char *
    intern(std::string_view s)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = index_.find(s);
        if (it != index_.end())
            return it->second;
        const std::string &stored = strings_.emplace_back(s);
        index_.emplace(stored, stored.c_str());
        return stored.c_str();
    }

  private:
    std::mutex mu_;
    /** Never erased; deque growth leaves existing strings in place. */
    std::deque<std::string> strings_;
    std::unordered_map<std::string_view, const char *> index_;
};

} // namespace

Name
Name::intern(std::string_view s)
{
    return Name(Interned{}, NameTable::instance().intern(s));
}

SpanId
Tracer::begin(Name name, sim::SimTime start, SpanId parent,
              TraceId trace_id)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ == ring_.size() &&
        (capacity_ == 0 || ring_.size() < capacity_)) {
        linearizeLocked();
        std::size_t grown = std::max<std::size_t>(16, ring_.size() * 2);
        if (capacity_ != 0)
            grown = std::min(grown, capacity_);
        ring_.resize(grown);
    }
    if (count_ == ring_.size()) {
        // Full at capacity: the oldest slot becomes the newest.
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        --count_;
        ++dropped_;
    }
    std::size_t pos = head_ + count_;
    if (pos >= ring_.size())
        pos -= ring_.size();
    ring_[pos] = Record{parent,       trace_id,  start, sim::SimTime::zero(),
                        name.c_str(), log_head_, 0,     0,
                        machine_,     false};
    ++count_;
    return next_id_++;
}

void
Tracer::end(SpanId id, sim::SimTime end)
{
    std::lock_guard<std::mutex> lock(mu_);
    Record *r = findLocked(id);
    if (r != nullptr && !r->finished) {
        r->end = end < r->start ? r->start : end;
        r->finished = true;
    }
}

void
Tracer::attribute(SpanId id, Name key, Name value)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Record *r = findLocked(id))
        appendAttrLocked(*r, Attr::Kind::Name, key,
                         reinterpret_cast<std::intptr_t>(value.c_str()));
}

void
Tracer::attribute(SpanId id, Name key, std::int64_t value)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Record *r = findLocked(id))
        appendAttrLocked(*r, Attr::Kind::Int, key, value);
}

void
Tracer::attributeText(SpanId id, Name key, std::string_view value)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Record *r = findLocked(id))
        appendAttrLocked(*r, Attr::Kind::Text, key,
                         static_cast<std::int64_t>(value.size()), value);
}

void
Tracer::appendAttrLocked(Record &r, Attr::Kind kind, Name key,
                         std::int64_t value, std::string_view text)
{
    const std::uint64_t n = Attr::kBytes + text.size();
    const std::uint64_t floor = atLocked(0).logMark;
    if (log_head_ + n - floor > log_.size()) {
        // Grow by half until the live tail fits, re-homing it at 0.
        std::size_t size = std::max<std::size_t>(log_.size(), 4096);
        while (size < log_head_ + n - floor)
            size += size / 2;
        std::vector<char> grown(size);
        readLog(floor, grown.data(), log_head_ - floor);
        log_.swap(grown);
        log_index_ = log_head_ - floor;
    }
    const std::uint64_t at = log_head_;
    char header[Attr::kBytes] = {}; // next = 0: the span's last, for now
    const char *key_ptr = key.c_str();
    std::memcpy(header + 4, &kind, 1);
    std::memcpy(header + 5, &key_ptr, 8);
    std::memcpy(header + 13, &value, 8);
    writeLog(at, header, sizeof header);
    writeLog(at + Attr::kBytes, text.data(), text.size());
    log_head_ += n;
    log_index_ += n;
    if (log_index_ >= log_.size())
        log_index_ -= log_.size();
    const auto rel = static_cast<std::uint32_t>(at - r.logMark + 1);
    if (r.lastAttr == 0) {
        r.firstAttr = rel;
    } else {
        const std::uint32_t next = rel - r.lastAttr;
        writeLog(r.logMark + r.lastAttr - 1, &next, 4);
    }
    r.lastAttr = rel;
}

std::size_t
Tracer::logIndex(std::uint64_t pos) const
{
    // pos lies within one log size of log_head_, on either side.
    const auto size = static_cast<std::int64_t>(log_.size());
    std::int64_t i = static_cast<std::int64_t>(log_index_) +
                     static_cast<std::int64_t>(pos - log_head_);
    if (i < 0)
        i += size;
    else if (i >= size)
        i -= size;
    return static_cast<std::size_t>(i);
}

void
Tracer::writeLog(std::uint64_t pos, const void *src, std::size_t n)
{
    if (n == 0)
        return;
    const std::size_t i = logIndex(pos);
    const std::size_t first = std::min(n, log_.size() - i);
    std::memcpy(log_.data() + i, src, first);
    std::memcpy(log_.data(), static_cast<const char *>(src) + first,
                n - first);
}

void
Tracer::readLog(std::uint64_t pos, void *dst, std::size_t n) const
{
    if (n == 0)
        return;
    const std::size_t i = logIndex(pos);
    const std::size_t first = std::min(n, log_.size() - i);
    std::memcpy(dst, log_.data() + i, first);
    std::memcpy(static_cast<char *>(dst) + first, log_.data(), n - first);
}

Tracer::Record *
Tracer::findLocked(SpanId id)
{
    const SpanId first = next_id_ - count_;
    if (id < first || id >= next_id_)
        return nullptr;
    std::size_t pos = head_ + static_cast<std::size_t>(id - first);
    if (pos >= ring_.size())
        pos -= ring_.size();
    return &ring_[pos];
}

const Tracer::Record &
Tracer::atLocked(std::size_t i) const
{
    std::size_t pos = head_ + i;
    if (pos >= ring_.size())
        pos -= ring_.size();
    return ring_[pos];
}

void
Tracer::linearizeLocked()
{
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
}

std::vector<Span>
Tracer::spansLocked(std::size_t from) const
{
    std::vector<Span> out;
    out.reserve(count_ - from);
    const SpanId first = next_id_ - count_;
    for (std::size_t i = from; i < count_; ++i) {
        const Record &r = atLocked(i);
        Span &span = out.emplace_back();
        span.id = first + i;
        span.parent = r.parent;
        span.traceId = r.traceId;
        span.machine = r.machine;
        span.name = r.name;
        span.start = r.start;
        span.end = r.end;
        span.finished = r.finished;
        if (r.firstAttr == 0)
            continue;
        for (std::uint64_t at = r.logMark + r.firstAttr - 1;;) {
            char header[Attr::kBytes];
            readLog(at, header, sizeof header);
            Attr a;
            std::memcpy(&a.next, header, 4);
            std::memcpy(&a.kind, header + 4, 1);
            std::memcpy(&a.key, header + 5, 8);
            std::memcpy(&a.value, header + 13, 8);
            switch (a.kind) {
              case Attr::Kind::Int:
                span.attributes.emplace_back(a.key,
                                             std::to_string(a.value));
                break;
              case Attr::Kind::Name:
                span.attributes.emplace_back(
                    a.key, reinterpret_cast<const char *>(a.value));
                break;
              case Attr::Kind::Text: {
                std::string value(static_cast<std::size_t>(a.value), '\0');
                readLog(at + Attr::kBytes, value.data(), value.size());
                span.attributes.emplace_back(a.key, std::move(value));
                break;
              }
            }
            if (a.next == 0)
                break;
            at += a.next;
        }
    }
    return out;
}

std::vector<Span>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spansLocked(0);
}

std::vector<Span>
Tracer::recent(std::size_t n) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spansLocked(count_ - std::min(n, count_));
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
}

void
Tracer::setCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity;
    if (capacity_ == 0)
        return;
    if (count_ > capacity_) {
        const std::size_t drop = count_ - capacity_;
        head_ = (head_ + drop) % ring_.size();
        count_ = capacity_;
        dropped_ += drop;
    }
    if (ring_.size() > capacity_) {
        linearizeLocked();
        ring_.resize(capacity_);
    }
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

SpanId
TraceContext::completedSpan(Name name, sim::SimTime duration) const
{
    if (!enabled())
        return 0;
    const sim::SimTime stop = now();
    const SpanId id =
        tracer_->begin(name, stop - duration, parent_, trace_id_);
    tracer_->end(id, stop);
    return id;
}

ScopedSpan::ScopedSpan(TraceContext ctx, Name name, sim::SimTime start)
    : ctx_(ctx)
{
    if (!ctx_.enabled())
        return;
    // A root span of a not-yet-stitched context starts a new
    // distributed trace; children inherit the id through context().
    if (ctx_.traceId() == 0)
        ctx_ = ctx_.withTrace(nextTraceId());
    id_ = ctx_.tracer()->begin(name, start, ctx_.parent(), ctx_.traceId());
}

ScopedSpan::~ScopedSpan()
{
    finish();
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
