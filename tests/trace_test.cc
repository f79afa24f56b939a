/**
 * @file
 * Tests for the boot tracing layer: span buffering and nesting,
 * out-of-order finishes, the Chrome trace_event and text exporters
 * (including attribute escaping and JSON well-formedness), log-level
 * parsing, the end-to-end span tree of a Catalyzer cold boot, and, for
 * every boot path, the stage spans against the BootReport stages.
 */

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <deque>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalyzer/runtime.h"
#include "sandbox/pipelines.h"
#include "sim/logging.h"
#include "sim/rng.h"
#include "trace/boot_report.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace catalyzer::trace {
namespace {

using sandbox::FunctionArtifacts;
using sandbox::FunctionRegistry;
using sandbox::Machine;
using sim::SimTime;
using namespace sim::time_literals;

/** "s<i>", built by append: GCC 12 flags `"s" + std::to_string(i)`
 *  with a -Wrestrict false positive at -O2. */
std::string
spanName(int i)
{
    std::string name = "s";
    name += std::to_string(i);
    return name;
}

//
// A deliberately small recursive-descent JSON reader, just enough to
// prove the exporter's output is parseable and to walk its structure.
//
class MiniJson
{
  public:
    struct Value
    {
        enum class Kind { Null, Bool, Number, String, Array, Object };
        Kind kind = Kind::Null;
        double number = 0;
        bool boolean = false;
        std::string string;
        std::vector<Value> array;
        std::vector<std::pair<std::string, Value>> object;

        const Value *
        find(const std::string &key) const
        {
            for (const auto &[k, v] : object) {
                if (k == key)
                    return &v;
            }
            return nullptr;
        }
    };

    static bool
    parse(const std::string &text, Value *out)
    {
        MiniJson p(text);
        if (!p.value(out))
            return false;
        p.ws();
        return p.pos_ == text.size();
    }

  private:
    explicit MiniJson(const std::string &text) : text_(text) {}

    void
    ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    value(Value *out)
    {
        ws();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object(out);
          case '[': return array(out);
          case '"':
            out->kind = Value::Kind::String;
            return string(&out->string);
          case 't':
            out->kind = Value::Kind::Bool;
            out->boolean = true;
            return literal("true");
          case 'f':
            out->kind = Value::Kind::Bool;
            out->boolean = false;
            return literal("false");
          case 'n':
            out->kind = Value::Kind::Null;
            return literal("null");
          default: return number(out);
        }
    }

    bool
    number(Value *out)
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            return false;
        out->kind = Value::Kind::Number;
        out->number = std::stod(text_.substr(start, pos_ - start));
        return true;
    }

    bool
    string(std::string *out)
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_];
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    return false;
                const char esc = text_[pos_ + 1];
                switch (esc) {
                  case '"': out->push_back('"'); break;
                  case '\\': out->push_back('\\'); break;
                  case '/': out->push_back('/'); break;
                  case 'b': out->push_back('\b'); break;
                  case 'f': out->push_back('\f'); break;
                  case 'n': out->push_back('\n'); break;
                  case 'r': out->push_back('\r'); break;
                  case 't': out->push_back('\t'); break;
                  case 'u': {
                    if (pos_ + 5 >= text_.size())
                        return false;
                    const std::string hex = text_.substr(pos_ + 2, 4);
                    out->push_back(static_cast<char>(
                        std::stoi(hex, nullptr, 16) & 0xff));
                    pos_ += 4;
                    break;
                  }
                  default: return false;
                }
                pos_ += 2;
            } else {
                out->push_back(c);
                ++pos_;
            }
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    array(Value *out)
    {
        out->kind = Value::Kind::Array;
        ++pos_; // '['
        ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            Value v;
            if (!value(&v))
                return false;
            out->array.push_back(std::move(v));
            ws();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    object(Value *out)
    {
        out->kind = Value::Kind::Object;
        ++pos_; // '{'
        ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            ws();
            std::string key;
            if (pos_ >= text_.size() || !string(&key))
                return false;
            ws();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            Value v;
            if (!value(&v))
                return false;
            out->object.emplace_back(std::move(key), std::move(v));
            ws();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

const Span *
findSpan(const std::vector<Span> &spans, const std::string &name)
{
    for (const Span &s : spans) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

TEST(TracerTest, NestedScopedSpans)
{
    Tracer tracer;
    sim::VirtualClock clock;
    TraceContext root(tracer, clock);

    {
        ScopedSpan outer(root, "outer");
        clock.advance(2_ms);
        {
            ScopedSpan inner(outer.context(), "inner");
            clock.advance(3_ms);
        }
        clock.advance(1_ms);
    }

    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    const Span *outer = findSpan(spans, "outer");
    const Span *inner = findSpan(spans, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->parent, 0u);
    EXPECT_EQ(inner->parent, outer->id);
    EXPECT_TRUE(outer->finished);
    EXPECT_TRUE(inner->finished);
    EXPECT_EQ(outer->duration(), 6_ms);
    EXPECT_EQ(inner->duration(), 3_ms);
    EXPECT_EQ(inner->start, 2_ms);
}

TEST(TracerTest, OutOfOrderFinishAndDoubleEnd)
{
    Tracer tracer;
    sim::VirtualClock clock;
    const SpanId parent = tracer.begin("parent", clock.now());
    const SpanId child = tracer.begin("child", clock.now(), parent);

    clock.advance(1_ms);
    tracer.end(parent, clock.now()); // parent finishes before child
    clock.advance(1_ms);
    tracer.end(child, clock.now());
    tracer.end(child, clock.now() + 5_ms); // double-end: first wins
    tracer.end(999, clock.now());          // unknown id: no-op

    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(findSpan(spans, "parent")->duration(), 1_ms);
    EXPECT_EQ(findSpan(spans, "child")->duration(), 2_ms);
}

TEST(TracerTest, EndBeforeStartClampsToZeroDuration)
{
    Tracer tracer;
    sim::VirtualClock clock;
    clock.advance(5_ms);
    const SpanId id = tracer.begin("s", clock.now());
    tracer.end(id, 1_ms); // before the span started
    EXPECT_EQ(tracer.snapshot()[0].duration(), SimTime::zero());
}

TEST(TracerTest, DisabledContextIsNoOp)
{
    TraceContext disabled;
    EXPECT_FALSE(disabled.enabled());
    ScopedSpan span(disabled, "nothing");
    span.attr("k", "v");
    span.attr("n", std::int64_t{7});
    EXPECT_EQ(span.id(), 0u);
    EXPECT_EQ(disabled.completedSpan("x", 1_ms), 0u);
    EXPECT_FALSE(span.context().enabled());
}

TEST(TracerTest, CompletedSpanIsRetroactive)
{
    Tracer tracer;
    sim::VirtualClock clock;
    clock.advance(10_ms);
    TraceContext ctx(tracer, clock);
    ctx.completedSpan("stage", 4_ms);
    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].start, 6_ms);
    EXPECT_EQ(spans[0].end, 10_ms);
}

TEST(ChromeExportTest, EscapesAttributesAndRoundTrips)
{
    Tracer tracer;
    sim::VirtualClock clock;
    TraceContext root(tracer, clock);
    {
        ScopedSpan span(root, "na\"me\\with\nnasties");
        span.attr("quote\"key", std::string("va\\lue\twith\x01"
                                            "ctrl"));
        clock.advance(1_ms);
    }
    tracer.begin("unfinished", clock.now()); // stays open

    std::ostringstream os;
    exportChromeTrace(tracer, os);
    const std::string json = os.str();

    // The raw escapes must appear in the byte stream.
    EXPECT_NE(json.find("na\\\"me\\\\with\\nnasties"), std::string::npos);
    EXPECT_NE(json.find("quote\\\"key"), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);

    // And the whole document must parse back.
    MiniJson::Value doc;
    ASSERT_TRUE(MiniJson::parse(json, &doc));
    const MiniJson::Value *all = doc.find("traceEvents");
    ASSERT_NE(all, nullptr);

    // One process_name metadata event for the (single) machine lane,
    // then the real "X" events.
    std::vector<const MiniJson::Value *> meta, xs;
    for (const MiniJson::Value &e : all->array) {
        (e.find("ph")->string == "M" ? meta : xs).push_back(&e);
    }
    ASSERT_EQ(meta.size(), 1u);
    EXPECT_EQ(meta[0]->find("name")->string, "process_name");
    EXPECT_DOUBLE_EQ(meta[0]->find("pid")->number, 0.0);
    ASSERT_EQ(xs.size(), 2u);

    const MiniJson::Value &ev = *xs[0];
    EXPECT_EQ(ev.find("name")->string, "na\"me\\with\nnasties");
    EXPECT_EQ(ev.find("ph")->string, "X");
    EXPECT_DOUBLE_EQ(ev.find("dur")->number, 1000.0); // µs
    const MiniJson::Value *args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("quote\"key")->string,
              "va\\lue\twith\x01"
              "ctrl");

    const MiniJson::Value &open = *xs[1];
    EXPECT_EQ(open.find("name")->string, "unfinished");
    EXPECT_EQ(open.find("args")->find("unfinished")->string, "true");
}

TEST(ChromeExportTest, PidIsMachineAndTidIsTraceId)
{
    Tracer a, b;
    a.setMachine(3);
    b.setMachine(7);
    sim::VirtualClock clock;
    const TraceId tid = nextTraceId();
    a.begin("borrow", clock.now(), 0, tid);
    b.begin("lend", clock.now(), 0, tid);

    std::vector<Span> spans = a.snapshot();
    const std::vector<Span> lent = b.snapshot();
    spans.insert(spans.end(), lent.begin(), lent.end());

    std::ostringstream os;
    exportChromeTrace(spans, os);
    MiniJson::Value doc;
    ASSERT_TRUE(MiniJson::parse(os.str(), &doc));
    const MiniJson::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::size_t meta = 0, xs = 0;
    for (const MiniJson::Value &e : events->array) {
        if (e.find("ph")->string == "M") {
            ++meta;
            continue;
        }
        ++xs;
        // Same trace id lane in two distinct machine lanes.
        EXPECT_DOUBLE_EQ(e.find("tid")->number,
                         static_cast<double>(tid));
        const double pid = e.find("pid")->number;
        EXPECT_TRUE(pid == 3.0 || pid == 7.0);
        EXPECT_EQ(e.find("args")->find("trace_id")->string,
                  std::to_string(tid));
    }
    EXPECT_EQ(meta, 2u); // one process_name per machine
    EXPECT_EQ(xs, 2u);
}

TEST(TracerTest, CapacityRingEvictsOldestFirst)
{
    Tracer tracer;
    sim::VirtualClock clock;
    tracer.setCapacity(3);
    for (int i = 0; i < 5; ++i) {
        tracer.begin(Name::intern(spanName(i)), clock.now());
        clock.advance(1_ms);
    }
    EXPECT_EQ(tracer.spanCount(), 3u);
    EXPECT_EQ(tracer.droppedCount(), 2u);
    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "s2");
    EXPECT_EQ(spans[1].name, "s3");
    EXPECT_EQ(spans[2].name, "s4");
    // Ending an evicted span is a harmless no-op.
    tracer.end(1, clock.now());

    // Shrinking an over-full buffer evicts immediately.
    tracer.setCapacity(1);
    EXPECT_EQ(tracer.spanCount(), 1u);
    EXPECT_EQ(tracer.droppedCount(), 4u);
    EXPECT_EQ(tracer.snapshot()[0].name, "s4");
}

TEST(TracerTest, SpanCountAndRecentUnderWraparound)
{
    Tracer tracer;
    sim::VirtualClock clock;
    tracer.setCapacity(4);
    for (int i = 0; i < 10; ++i)
        tracer.begin(Name::intern(spanName(i)), clock.now());
    EXPECT_EQ(tracer.spanCount(), 4u);
    const auto tail = tracer.recent(2);
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].name, "s8");
    EXPECT_EQ(tail[1].name, "s9");
    // Asking for more than buffered returns everything.
    EXPECT_EQ(tracer.recent(100).size(), 4u);
}

TEST(TracerTest, IdsStayMonotonicAcrossEviction)
{
    Tracer tracer;
    sim::VirtualClock clock;
    tracer.setCapacity(2);
    SpanId last = 0;
    for (int i = 0; i < 6; ++i) {
        const SpanId id = tracer.begin("s", clock.now());
        EXPECT_GT(id, last);
        last = id;
    }
    // Four spans were evicted; ids never restart.
    EXPECT_EQ(tracer.spanCount(), 2u);
    EXPECT_EQ(last, 6u);
}

/**
 * Reference model for the differential test: the tracer as it was
 * before the compact ring, a deque of fully materialized Spans searched
 * backwards by id.
 */
class DequeTracer
{
  public:
    SpanId
    begin(std::string name, SimTime start, SpanId parent, TraceId trace_id)
    {
        Span span;
        span.id = next_id_++;
        span.parent = parent;
        span.traceId = trace_id;
        span.machine = machine_;
        span.name = std::move(name);
        span.start = start;
        spans_.push_back(std::move(span));
        const SpanId id = spans_.back().id;
        enforceCapacity();
        return id;
    }

    void
    end(SpanId id, SimTime end)
    {
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
    attribute(SpanId id, std::string key, std::string value)
    {
        for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
            if (it->id == id) {
                it->attributes.emplace_back(std::move(key),
                                            std::move(value));
                return;
            }
        }
    }

    std::vector<Span>
    snapshot() const
    {
        return {spans_.begin(), spans_.end()};
    }

    std::vector<Span>
    recent(std::size_t n) const
    {
        const std::size_t take = std::min(n, spans_.size());
        return {spans_.end() - static_cast<std::ptrdiff_t>(take),
                spans_.end()};
    }

    std::size_t spanCount() const { return spans_.size(); }

    void
    setCapacity(std::size_t capacity)
    {
        capacity_ = capacity;
        enforceCapacity();
    }

    std::uint64_t droppedCount() const { return dropped_; }
    void setMachine(std::uint32_t machine) { machine_ = machine; }

  private:
    void
    enforceCapacity()
    {
        while (capacity_ != 0 && spans_.size() > capacity_) {
            spans_.pop_front();
            ++dropped_;
        }
    }

    std::deque<Span> spans_;
    SpanId next_id_ = 1;
    std::size_t capacity_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint32_t machine_ = 0;
};

void
expectSameSpans(const std::vector<Span> &got, const std::vector<Span> &want,
                const std::string &at)
{
    ASSERT_EQ(got.size(), want.size()) << at;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const Span &g = got[i];
        const Span &w = want[i];
        EXPECT_EQ(g.id, w.id) << at;
        EXPECT_EQ(g.parent, w.parent) << at;
        EXPECT_EQ(g.traceId, w.traceId) << at;
        EXPECT_EQ(g.machine, w.machine) << at;
        EXPECT_EQ(g.name, w.name) << at;
        EXPECT_EQ(g.start, w.start) << at;
        EXPECT_EQ(g.end, w.end) << at;
        EXPECT_EQ(g.finished, w.finished) << at;
        EXPECT_EQ(g.attributes, w.attributes) << at << " span " << g.id;
    }
}

TEST(TracerDifferentialTest, RingMatchesDequeModel)
{
    // Literal names and keys, plus run-time strings from empty to
    // kilobytes, so the attribute log wraps and grows with live spans.
    const Name kNames[] = {"boot", "stage", "invoke/fn", "gateway"};
    const Name kKeys[] = {"tier", "pages", "function", "k"};
    const Name kValues[] = {"true", "false", "sfork"};
    const std::size_t kCapacities[] = {0, 0, 1, 2, 3, 5, 8, 16, 64, 256};
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        sim::Rng rng(seed);
        Tracer ring;
        DequeTracer model;
        auto pick = [&](std::uint64_t n) { return rng.uniformInt(n); };
        SpanId issued = 0;
        for (int step = 0; step < 600; ++step) {
            const std::string at =
                "seed " + std::to_string(seed) + " step " +
                std::to_string(step);
            const std::uint64_t op = pick(100);
            // Any id up to two past the last issued: live, evicted or
            // never issued.
            const SpanId id = pick(issued + 3);
            if (op < 40) {
                const SimTime start = SimTime::microseconds(
                    static_cast<double>(pick(1000)));
                const SpanId parent = pick(issued + 1);
                const TraceId trace_id = pick(4);
                SpanId got = 0;
                std::string name;
                if (pick(4) == 0) {
                    name = spanName(static_cast<int>(pick(50)));
                    got = ring.begin(Name::intern(name), start, parent,
                                     trace_id);
                } else {
                    const Name n = kNames[pick(std::size(kNames))];
                    name = n.c_str();
                    got = ring.begin(n, start, parent, trace_id);
                }
                EXPECT_EQ(got, model.begin(name, start, parent, trace_id))
                    << at;
                issued = got;
            } else if (op < 60) {
                // Ends before the start are clamped; double ends no-op.
                const SimTime end = SimTime::microseconds(
                    static_cast<double>(pick(1000)));
                ring.end(id, end);
                model.end(id, end);
            } else if (op < 90) {
                const Name key = kKeys[pick(std::size(kKeys))];
                switch (pick(3)) {
                  case 0: {
                    const auto v = static_cast<std::int64_t>(pick(1u << 20)) -
                                   (1 << 19);
                    ring.attribute(id, key, v);
                    model.attribute(id, key.c_str(), std::to_string(v));
                    break;
                  }
                  case 1: {
                    const Name v = kValues[pick(std::size(kValues))];
                    ring.attribute(id, key, v);
                    model.attribute(id, key.c_str(), v.c_str());
                    break;
                  }
                  default: {
                    std::string v(pick(3) == 0 ? 200 + pick(1800)
                                               : pick(24),
                                  'a');
                    for (char &c : v)
                        c = static_cast<char>('a' + pick(26));
                    ring.attribute(id, key, v);
                    model.attribute(id, key.c_str(), v);
                    break;
                  }
                }
            } else if (op < 94) {
                const std::size_t cap =
                    kCapacities[pick(std::size(kCapacities))];
                ring.setCapacity(cap);
                model.setCapacity(cap);
            } else {
                const auto machine = static_cast<std::uint32_t>(pick(3));
                ring.setMachine(machine);
                model.setMachine(machine);
            }
            ASSERT_EQ(ring.spanCount(), model.spanCount()) << at;
            ASSERT_EQ(ring.droppedCount(), model.droppedCount()) << at;
            expectSameSpans(ring.snapshot(), model.snapshot(), at);
            const std::size_t n = pick(model.spanCount() + 3);
            expectSameSpans(ring.recent(n), model.recent(n), at);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(TracerConcurrencyTest, ThreadsShareInternTableAndPeerTracer)
{
    // Each thread records into its own ring and, like a remote-sfork
    // lender span, into one shared peer ring, interning run-time names
    // that the other threads intern concurrently.
    constexpr int kThreads = 8;
    constexpr int kSpans = 200;
    Tracer peer;
    peer.setCapacity(64);
    std::vector<Tracer> own(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kSpans; ++i) {
                const std::string name = spanName((i + t) % 17);
                const SpanId a =
                    own[t].begin(Name::intern(name), SimTime::zero());
                own[t].attribute(a, "i", std::int64_t{i});
                own[t].end(a, SimTime::zero());
                const SpanId b = peer.begin("lend", SimTime::zero());
                peer.attribute(b, "name", name);
                peer.end(b, SimTime::zero());
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(peer.spanCount(), 64u);
    EXPECT_EQ(peer.droppedCount(), kThreads * kSpans - 64u);
    for (const Span &span : peer.snapshot())
        EXPECT_EQ(span.attributes.size(), 1u);
    for (int t = 0; t < kThreads; ++t) {
        const auto spans = own[t].snapshot();
        ASSERT_EQ(spans.size(), static_cast<std::size_t>(kSpans));
        for (int i = 0; i < kSpans; ++i)
            EXPECT_EQ(spans[i].name, spanName((i + t) % 17));
    }
    EXPECT_EQ(Name::intern("s3").c_str(), Name::intern(spanName(3)).c_str());
}

TEST(TraceIdTest, RootSpanAllocatesAndChildrenInherit)
{
    Tracer tracer;
    sim::VirtualClock clock;
    TraceContext root(tracer, clock);
    EXPECT_EQ(root.traceId(), 0u);
    {
        ScopedSpan outer(root, "outer");
        const TraceId id = outer.context().traceId();
        EXPECT_NE(id, 0u);
        ScopedSpan inner(outer.context(), "inner");
        EXPECT_EQ(inner.context().traceId(), id);
    }
    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_NE(spans[0].traceId, 0u);
    EXPECT_EQ(spans[0].traceId, spans[1].traceId);

    // A second root span starts a distinct trace.
    ScopedSpan other(root, "other-request");
    EXPECT_NE(other.context().traceId(), spans[0].traceId);
}

TEST(TraceIdTest, WithTracerRehomesTraceAcrossMachines)
{
    Tracer borrower, lender;
    borrower.setMachine(1);
    lender.setMachine(2);
    sim::VirtualClock bclock, lclock;
    TraceContext root(borrower, bclock);

    ScopedSpan boot(root, "boot/remote-sfork");
    const TraceContext peer =
        boot.context().withTracer(lender, lclock);
    EXPECT_EQ(peer.tracer(), &lender);
    EXPECT_EQ(peer.parent(), 0u); // span ids don't cross machines
    EXPECT_EQ(peer.traceId(), boot.context().traceId());
    ScopedSpan lend(peer, "lend-template");
    boot.finish();
    lend.finish();

    const auto bs = borrower.snapshot();
    const auto ls = lender.snapshot();
    ASSERT_EQ(bs.size(), 1u);
    ASSERT_EQ(ls.size(), 1u);
    EXPECT_EQ(bs[0].traceId, ls[0].traceId);
    EXPECT_EQ(bs[0].machine, 1u);
    EXPECT_EQ(ls[0].machine, 2u);
}

TEST(TextExportTest, RendersHierarchy)
{
    Tracer tracer;
    sim::VirtualClock clock;
    TraceContext root(tracer, clock);
    {
        ScopedSpan outer(root, "boot");
        clock.advance(1_ms);
        ScopedSpan inner(outer.context(), "stage");
        inner.attr("pages", std::int64_t{4});
        clock.advance(1_ms);
    }
    std::ostringstream os;
    exportText(tracer, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("2 spans"), std::string::npos);
    EXPECT_NE(text.find("boot"), std::string::npos);
    // The child is indented under its parent.
    EXPECT_NE(text.find("  stage"), std::string::npos);
    EXPECT_NE(text.find("pages=4"), std::string::npos);
}

TEST(LogLevelTest, ParseLogLevel)
{
    using sim::LogLevel;
    using sim::parseLogLevel;
    EXPECT_EQ(parseLogLevel("silent", LogLevel::Warn), LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("WARN", LogLevel::Silent), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("Inform", LogLevel::Warn), LogLevel::Inform);
    EXPECT_EQ(parseLogLevel("debug", LogLevel::Warn), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("3", LogLevel::Warn), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("0", LogLevel::Warn), LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("bogus", LogLevel::Inform), LogLevel::Inform);
    EXPECT_EQ(parseLogLevel(nullptr, LogLevel::Debug), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("", LogLevel::Warn), LogLevel::Warn);
}

TEST(TraceIntegrationTest, CatalyzerColdBootSpanTree)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    FunctionArtifacts &fn =
        registry.artifactsFor(apps::appByName("python-hello"));

    Tracer tracer;
    TraceContext root(tracer, machine.ctx().clock());
    runtime.bootCold(fn, root);

    const auto spans = tracer.snapshot();
    const Span *boot = findSpan(spans, "boot/Catalyzer-cold");
    ASSERT_NE(boot, nullptr);
    EXPECT_TRUE(boot->finished);

    // The acceptance stages are distinct children of the boot span.
    for (const char *stage : {"map-image", "recover-kernel",
                              "reconnect-io", "construct-sandbox",
                              "specialize"}) {
        const Span *s = findSpan(spans, stage);
        ASSERT_NE(s, nullptr) << "missing span " << stage;
        EXPECT_EQ(s->parent, boot->id) << stage;
        EXPECT_TRUE(s->finished) << stage;
    }
    // The separated-state fix-up has its own structure below it.
    const Span *fixup = findSpan(spans, "recover-kernel");
    const Span *relation = findSpan(spans, "relation-fixup");
    ASSERT_NE(relation, nullptr);
    EXPECT_EQ(relation->parent, fixup->id);
    const Span *arena = findSpan(spans, "arena-map");
    ASSERT_NE(arena, nullptr);
    EXPECT_EQ(arena->parent, fixup->id);

    // Every span is finished, and all within the boot interval.
    for (const Span &s : spans) {
        EXPECT_TRUE(s.finished) << s.name;
        EXPECT_GE(s.start, boot->start) << s.name;
        EXPECT_LE(s.end, boot->end) << s.name;
    }

    // The boot latency landed in the per-system histogram.
    const sim::LatencySeries *h =
        machine.ctx().stats().findHistogram("boot.latency.Catalyzer-cold");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);

    // The whole trace exports to parseable Chrome JSON.
    std::ostringstream os;
    exportChromeTrace(tracer, os);
    MiniJson::Value doc;
    EXPECT_TRUE(MiniJson::parse(os.str(), &doc));
}

TEST(TraceIntegrationTest, FreshBootPipelineSpanTree)
{
    Machine machine(7);
    FunctionRegistry registry(machine);
    FunctionArtifacts &fn =
        registry.artifactsFor(apps::appByName("python-hello"));

    Tracer tracer;
    TraceContext root(tracer, machine.ctx().clock());
    sandbox::bootSandbox(sandbox::SandboxSystem::GVisor, fn, root);

    const auto spans = tracer.snapshot();
    const Span *boot = findSpan(spans, "boot/gVisor");
    ASSERT_NE(boot, nullptr);
    const Span *create = findSpan(spans, "create-kernel-platform");
    ASSERT_NE(create, nullptr);
    EXPECT_EQ(create->parent, boot->id);
    const Span *kvm = findSpan(spans, "kvm-setup");
    ASSERT_NE(kvm, nullptr);
    EXPECT_EQ(kvm->parent, create->id);
    // Application initialization is its app-init stages, directly under
    // the boot span.
    const Span *app = findSpan(spans, "load-binary");
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->parent, boot->id);
    ASSERT_FALSE(app->attributes.empty());
    EXPECT_EQ(app->attributes.back().first, "phase");
    EXPECT_EQ(app->attributes.back().second, "app-init");

    const sim::LatencySeries *h =
        machine.ctx().stats().findHistogram("boot.latency.gVisor");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
}

TEST(TraceIntegrationTest, UntracedBootStillObservesHistograms)
{
    Machine machine(9);
    FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    FunctionArtifacts &fn =
        registry.artifactsFor(apps::appByName("python-hello"));
    runtime.bootWarm(fn); // no trace argument anywhere
    const sim::LatencySeries *h =
        machine.ctx().stats().findHistogram("boot.latency.Catalyzer-warm");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
}

//
// Every boot path books each stage exactly once: the phase-tagged
// children of its boot span are its BootReport stages.
//

enum class BootPath { Sandbox, Cold, Warm, Sfork, LangTemplate, RemoteSfork };

struct BootCase
{
    const char *name;
    BootPath path;
    sandbox::SandboxSystem system = sandbox::SandboxSystem::Native;
    core::CatalyzerOptions options = {};
    /** Untraced cold boots (each invoked once) before the traced one. */
    int primingBoots = 0;
    /** Fail the first sfork attempt, so the boot pays one retry. */
    bool failSforkOnce = false;
};

void
PrintTo(const BootCase &c, std::ostream *os)
{
    *os << c.name;
}

core::CatalyzerOptions
withOptions(void (*set)(core::CatalyzerOptions &))
{
    core::CatalyzerOptions options;
    set(options);
    return options;
}

/** A peer machine holding the template a remote-sfork boot borrows. */
struct Lender
{
    explicit Lender(const core::CatalyzerOptions &options)
        : machine(43), registry(machine), runtime(machine, options),
          fabric([] {
              net::FabricConfig config;
              config.modelTransfers = true;
              config.remoteFork = true;
              return config;
          }())
    {}

    core::RemoteForkSource
    source(const apps::AppProfile &app)
    {
        FunctionArtifacts &fn = registry.artifactsFor(app);
        runtime.prepareTemplate(fn);
        core::RemoteForkSource src;
        src.templateInstance = fn.templateSandbox.get();
        src.image = fn.separatedImage;
        src.manifest = fn.workingSet;
        src.fabric = &fabric;
        src.self = 1;
        src.peer = 0;
        return src;
    }

    Machine machine;
    FunctionRegistry registry;
    core::CatalyzerRuntime runtime;
    net::Fabric fabric;
};

class BootStageSpansTest : public ::testing::TestWithParam<BootCase>
{};

TEST_P(BootStageSpansTest, PhaseChildrenAreTheReportStages)
{
    const BootCase &c = GetParam();
    const apps::AppProfile &app = apps::appByName("python-django");
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine, c.options);
    FunctionArtifacts &fn = registry.artifactsFor(app);
    std::unique_ptr<Lender> lender;
    for (int i = 0; i < c.primingBoots; ++i)
        runtime.bootCold(fn).instance->invoke();
    if (c.failSforkOnce)
        runtime.faults().failNext(faults::FaultSite::Sfork);

    Tracer tracer;
    const TraceContext root(tracer, machine.ctx().clock());
    sandbox::BootResult boot;
    switch (c.path) {
      case BootPath::Sandbox:
        boot = sandbox::bootSandbox(c.system, fn, root);
        break;
      case BootPath::Cold:
        boot = runtime.bootCold(fn, root);
        break;
      case BootPath::Warm:
        boot = runtime.bootWarm(fn, root);
        break;
      case BootPath::Sfork:
        boot = runtime.bootFork(fn, root);
        break;
      case BootPath::LangTemplate:
        boot = runtime.bootFromLanguageTemplate(fn, root);
        break;
      case BootPath::RemoteSfork:
        lender = std::make_unique<Lender>(c.options);
        boot = runtime.bootRemoteFork(fn, lender->source(app), root);
        break;
    }
    if (c.failSforkOnce) {
        EXPECT_EQ(machine.ctx().stats().value("faults.injected.sfork"), 1);
    }

    const std::vector<Span> spans = tracer.snapshot();
    const Span *root_span = nullptr;
    for (const Span &s : spans) {
        if (s.parent == 0 && s.name.rfind("boot/", 0) == 0)
            root_span = &s;
    }
    ASSERT_NE(root_span, nullptr);
    std::vector<const Span *> stage_spans;
    for (const Span &s : spans) {
        for (const auto &[key, value] : s.attributes) {
            if (key != "phase")
                continue;
            EXPECT_EQ(s.parent, root_span->id) << s.name;
            stage_spans.push_back(&s);
        }
    }

    const std::vector<BootStage> &stages = boot.report.stages();
    ASSERT_FALSE(stages.empty());
    ASSERT_EQ(stage_spans.size(), stages.size());
    SimTime sum;
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const Span &span = *stage_spans[i];
        EXPECT_EQ(span.name, stages[i].name) << i;
        EXPECT_TRUE(span.finished) << span.name;
        EXPECT_EQ(span.duration(), stages[i].time) << span.name;
        EXPECT_EQ(span.attributes.back().second,
                  bootPhaseName(stages[i].phase))
            << span.name;
        if (i > 0) {
            EXPECT_EQ(span.start, stage_spans[i - 1]->end) << span.name;
        }
        EXPECT_GE(span.start, root_span->start) << span.name;
        EXPECT_LE(span.end, root_span->end) << span.name;
        sum += span.duration();
    }
    EXPECT_EQ(sum, boot.report.total());
}

INSTANTIATE_TEST_SUITE_P(
    BootPaths, BootStageSpansTest,
    ::testing::Values(
        BootCase{"Native", BootPath::Sandbox,
                 sandbox::SandboxSystem::Native},
        BootCase{"Docker", BootPath::Sandbox,
                 sandbox::SandboxSystem::Docker},
        BootCase{"HyperContainer", BootPath::Sandbox,
                 sandbox::SandboxSystem::HyperContainer},
        BootCase{"FireCracker", BootPath::Sandbox,
                 sandbox::SandboxSystem::FireCracker},
        BootCase{"GVisor", BootPath::Sandbox,
                 sandbox::SandboxSystem::GVisor},
        BootCase{"GVisorPtrace", BootPath::Sandbox,
                 sandbox::SandboxSystem::GVisorPtrace},
        BootCase{"GVisorRestore", BootPath::Sandbox,
                 sandbox::SandboxSystem::GVisorRestore},
        BootCase{"CatalyzerCold", BootPath::Cold},
        BootCase{"CatalyzerWarm", BootPath::Warm},
        BootCase{"CatalyzerSfork", BootPath::Sfork},
        BootCase{"CatalyzerSforkRetry", BootPath::Sfork,
                 sandbox::SandboxSystem::Native, {}, 0,
                 /*failSforkOnce=*/true},
        BootCase{"CatalyzerLangTemplate", BootPath::LangTemplate},
        BootCase{"CatalyzerRemoteSfork", BootPath::RemoteSfork},
        BootCase{"NoOverlayMemory", BootPath::Cold,
                 sandbox::SandboxSystem::Native,
                 withOptions([](core::CatalyzerOptions &o) {
                     o.overlayMemory = false;
                 })},
        BootCase{"NoSeparatedState", BootPath::Cold,
                 sandbox::SandboxSystem::Native,
                 withOptions([](core::CatalyzerOptions &o) {
                     o.separatedState = false;
                 })},
        BootCase{"EagerIoReconnection", BootPath::Cold,
                 sandbox::SandboxSystem::Native,
                 withOptions([](core::CatalyzerOptions &o) {
                     o.lazyIoReconnection = false;
                 })},
        BootCase{"PrefetchWorkingSet", BootPath::Cold,
                 sandbox::SandboxSystem::Native,
                 withOptions([](core::CatalyzerOptions &o) {
                     o.prefetchWorkingSet = true;
                 }),
                 /*primingBoots=*/3}),
    [](const ::testing::TestParamInfo<BootCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace catalyzer::trace
