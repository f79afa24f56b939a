/**
 * @file
 * Unit tests for counters, latency series and table rendering.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/metric_catalog.h"
#include "sim/stats.h"
#include "sim/table.h"

namespace catalyzer::sim {
namespace {

using namespace time_literals;

TEST(StatRegistryTest, IncrementAndRead)
{
    StatRegistry stats;
    EXPECT_EQ(stats.value("x"), 0);
    stats.incr("x");
    stats.incr("x", 4);
    EXPECT_EQ(stats.value("x"), 5);
    stats.incr("y", -2);
    EXPECT_EQ(stats.value("y"), -2);
    EXPECT_EQ(stats.all().size(), 2u);
}

TEST(LatencySeriesTest, BasicStatistics)
{
    LatencySeries s;
    for (double v : {4.0, 1.0, 3.0, 2.0})
        s.addMs(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(LatencySeriesTest, AddSimTime)
{
    LatencySeries s;
    s.add(2_ms);
    EXPECT_DOUBLE_EQ(s.max(), 2.0);
}

TEST(LatencySeriesTest, Percentiles)
{
    LatencySeries s;
    for (int i = 1; i <= 100; ++i)
        s.addMs(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 0.01);
    EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
}

TEST(LatencySeriesTest, PercentileEdgeCases)
{
    LatencySeries s;
    EXPECT_TRUE(std::isnan(s.percentile(50))); // empty
    s.addMs(7.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 7.0); // single sample
    EXPECT_DEATH(s.percentile(101), "out of range");
}

TEST(LatencySeriesTest, EmptySeriesStatisticsAreNaN)
{
    LatencySeries s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_TRUE(std::isnan(s.mean()));
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
    EXPECT_TRUE(std::isnan(s.percentile(0)));
    EXPECT_TRUE(std::isnan(s.percentile(100)));
    // Out-of-range percentiles still panic, even on an empty series.
    EXPECT_DEATH(s.percentile(-1), "out of range");
}

TEST(LatencySeriesTest, SortedCacheInvalidatedByMutation)
{
    // Regression test for the percentile sorted-cache: queries after
    // further adds (or a clear) must see the new samples, not a stale
    // sorted snapshot.
    LatencySeries s;
    s.addMs(10.0);
    s.addMs(20.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 20.0); // populates the cache
    s.addMs(1.0); // mutation must invalidate the cache
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
    s.clear();
    EXPECT_TRUE(std::isnan(s.percentile(50)));
    s.add(2_ms); // add(SimTime) must invalidate too
    EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);
    // Repeated queries on an unchanged series stay consistent.
    for (int i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(s.percentile(100), 2.0);
}

TEST(StatRegistryTest, HistogramsObserveAndSnapshot)
{
    StatRegistry stats;
    EXPECT_EQ(stats.findHistogram("boot"), nullptr);
    stats.observe("boot", 2_ms);
    stats.observeMs("boot", 4.0);
    const LatencySeries *h = stats.findHistogram("boot");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 2u);
    EXPECT_DOUBLE_EQ(h->mean(), 3.0);
}

TEST(StatRegistryTest, WriteJsonShape)
{
    StatRegistry stats;
    stats.incr("boots", 3);
    stats.observeMs("lat", 1.0);
    stats.observeMs("lat", 3.0);
    std::ostringstream os;
    stats.writeJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"counters\""), std::string::npos);
    EXPECT_NE(out.find("\"boots\": 3"), std::string::npos);
    EXPECT_NE(out.find("\"histograms\""), std::string::npos);
    EXPECT_NE(out.find("\"lat\""), std::string::npos);
    EXPECT_NE(out.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(out.find("\"p50\""), std::string::npos);
    EXPECT_NE(out.find("\"p99\""), std::string::npos);
    // NaN must never leak into the JSON output.
    EXPECT_EQ(out.find("nan"), std::string::npos);
}

TEST(StatRegistryTest, WriteJsonEscapesNames)
{
    // Regression: metric names flow from function names and fault-site
    // labels; a quote or backslash in one must not corrupt the JSON.
    StatRegistry stats;
    stats.incr("boots\"evil", 1);
    stats.observeMs("lat\\slash\nline", 2.0);
    std::ostringstream os;
    stats.writeJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"boots\\\"evil\": 1"), std::string::npos);
    EXPECT_NE(out.find("\"lat\\\\slash\\nline\""), std::string::npos);
    // No raw quote survives inside a name.
    EXPECT_EQ(out.find("boots\"evil"), std::string::npos);
}

TEST(WindowedHistogramTest, BucketsByVirtualTime)
{
    WindowedHistogram h(SimTime::milliseconds(100.0));
    h.record(SimTime::milliseconds(10.0), 1.0);  // window 0
    h.record(SimTime::milliseconds(99.0), 3.0);  // window 0
    h.record(SimTime::milliseconds(100.0), 5.0); // window 1
    h.record(SimTime::milliseconds(350.0), 7.0); // window 3 (gap at 2)
    EXPECT_EQ(h.totalCount(), 4u);
    const auto &ws = h.windows();
    ASSERT_EQ(ws.size(), 3u); // sparse: empty window 2 absent
    EXPECT_EQ(ws[0].index, 0);
    EXPECT_EQ(ws[0].series.count(), 2u);
    EXPECT_DOUBLE_EQ(ws[0].sum, 4.0);
    EXPECT_EQ(ws[1].index, 1);
    EXPECT_EQ(ws[2].index, 3);
    EXPECT_EQ(h.windowStart(3), SimTime::milliseconds(300.0));
}

TEST(WindowedHistogramTest, OutOfOrderRecordsLandInTheirWindow)
{
    WindowedHistogram h(SimTime::milliseconds(100.0));
    h.record(SimTime::milliseconds(250.0), 9.0); // window 2 first
    h.record(SimTime::milliseconds(50.0), 1.0);  // then window 0
    const auto &ws = h.windows();
    ASSERT_EQ(ws.size(), 2u);
    EXPECT_EQ(ws[0].index, 0); // windows() is sorted by index
    EXPECT_EQ(ws[1].index, 2);
    EXPECT_DOUBLE_EQ(ws[0].series.max(), 1.0);
}

TEST(WindowedHistogramTest, InOrderSampleAfterOutOfOrderReusesNewestWindow)
{
    // 5.5 ms opens window 5, 3.5 ms inserts window 3 behind it; 5.7 ms
    // belongs to window 5 again and must not open a second window 5.
    WindowedHistogram h(SimTime::milliseconds(1.0));
    h.record(SimTime::milliseconds(5.5), 1.0);
    h.record(SimTime::milliseconds(3.5), 2.0);
    h.record(SimTime::milliseconds(5.7), 3.0);
    const auto &ws = h.windows();
    ASSERT_EQ(ws.size(), 2u);
    EXPECT_EQ(ws[0].index, 3);
    EXPECT_EQ(ws[1].index, 5);
    EXPECT_EQ(ws[1].series.count(), 2u);
    EXPECT_DOUBLE_EQ(ws[1].sum, 4.0);
    EXPECT_EQ(h.totalCount(), 3u);
    // Sorted again, the newest window is back at the tail.
    h.record(SimTime::milliseconds(5.9), 4.0);
    h.record(SimTime::milliseconds(6.1), 5.0);
    ASSERT_EQ(h.windows().size(), 3u);
    EXPECT_EQ(h.windows()[1].series.count(), 3u);
    EXPECT_EQ(h.windows()[2].index, 6);
}

TEST(WindowedHistogramTest, MergeFoldsPerWindow)
{
    WindowedHistogram a(SimTime::milliseconds(100.0));
    WindowedHistogram b(SimTime::milliseconds(100.0));
    a.record(SimTime::milliseconds(10.0), 1.0);
    b.record(SimTime::milliseconds(20.0), 3.0);  // same window 0
    b.record(SimTime::milliseconds(150.0), 5.0); // window 1
    a.merge(b);
    EXPECT_EQ(a.totalCount(), 3u);
    const auto &ws = a.windows();
    ASSERT_EQ(ws.size(), 2u);
    EXPECT_EQ(ws[0].series.count(), 2u);
    EXPECT_DOUBLE_EQ(ws[0].sum, 4.0);
    EXPECT_EQ(ws[1].series.count(), 1u);

    // An empty histogram adopts the source's window length on merge.
    WindowedHistogram fresh(SimTime::milliseconds(250.0));
    fresh.merge(a);
    EXPECT_EQ(fresh.windowLength(), SimTime::milliseconds(100.0));
    EXPECT_EQ(fresh.totalCount(), 3u);

    // A populated one with a different length refuses.
    WindowedHistogram clash(SimTime::milliseconds(250.0));
    clash.record(SimTime::milliseconds(1.0), 1.0);
    EXPECT_DEATH(clash.merge(a), "window length");
}

TEST(WindowedHistogramTest, OriginMakesWindowsRunRelative)
{
    // Two machines whose clocks diverged during priming: with origins
    // declared at each machine's run start, the same run-relative
    // instant lands in the same window index on both.
    WindowedHistogram m0(SimTime::milliseconds(100.0));
    WindowedHistogram m1(SimTime::milliseconds(100.0));
    m0.setOrigin(SimTime::milliseconds(730.0));
    m1.setOrigin(SimTime::milliseconds(112.0));
    EXPECT_TRUE(m0.originAligned());
    m0.record(SimTime::milliseconds(730.0 + 150.0), 1.0);
    m1.record(SimTime::milliseconds(112.0 + 150.0), 2.0);
    m0.merge(m1);
    const auto &ws = m0.windows();
    ASSERT_EQ(ws.size(), 1u);
    EXPECT_EQ(ws[0].index, 1);
    EXPECT_EQ(ws[0].series.count(), 2u);
}

TEST(WindowedHistogramDeathTest, OriginMisuse)
{
    // Mixing an aligned series with an unaligned one would silently
    // misalign every window: refuse.
    WindowedHistogram aligned(SimTime::milliseconds(100.0));
    aligned.setOrigin(SimTime::milliseconds(500.0));
    aligned.record(SimTime::milliseconds(510.0), 1.0);
    WindowedHistogram unaligned(SimTime::milliseconds(100.0));
    unaligned.record(SimTime::milliseconds(10.0), 1.0);
    EXPECT_DEATH(aligned.merge(unaligned), "unaligned");
    EXPECT_DEATH(unaligned.merge(aligned), "unaligned");

    // Declaring an origin under recorded samples would reinterpret
    // their indices.
    WindowedHistogram late(SimTime::milliseconds(100.0));
    late.record(SimTime::milliseconds(10.0), 1.0);
    EXPECT_DEATH(late.setOrigin(SimTime::milliseconds(5.0)),
                 "already recorded");

    // Samples from before the declared origin have no window.
    WindowedHistogram fresh(SimTime::milliseconds(100.0));
    fresh.setOrigin(SimTime::milliseconds(500.0));
    EXPECT_DEATH(fresh.record(SimTime::milliseconds(499.0), 1.0),
                 "predates");
}

TEST(WindowedHistogramTest, EmptyDestinationAdoptsAlignment)
{
    WindowedHistogram aligned(SimTime::milliseconds(100.0));
    aligned.setOrigin(SimTime::milliseconds(500.0));
    aligned.record(SimTime::milliseconds(510.0), 1.0);
    // A fleet-aggregation destination starts fresh and unaligned; the
    // first aligned source switches it over wholesale.
    WindowedHistogram fleet;
    fleet.merge(aligned);
    EXPECT_TRUE(fleet.originAligned());
    EXPECT_EQ(fleet.totalCount(), 1u);
    // An explicitly aligned (still empty) destination does NOT adopt
    // unaligned semantics from its source.
    WindowedHistogram pinned(SimTime::milliseconds(100.0));
    pinned.setOrigin(SimTime::zero());
    WindowedHistogram unaligned(SimTime::milliseconds(100.0));
    unaligned.record(SimTime::milliseconds(10.0), 1.0);
    EXPECT_DEATH(pinned.merge(unaligned), "unaligned");
}

TEST(StatRegistryTest, WindowOriginAppliesToNewSeriesAndDropsOld)
{
    StatRegistry stats;
    stats.setWindowLength(SimTime::milliseconds(100.0));
    // Priming samples land before the measurement frame opens...
    stats.observeWindowed("w", SimTime::milliseconds(50.0), 1.0);
    EXPECT_FALSE(stats.windowOriginAligned());
    // ...and are dropped when the origin is declared: the origin marks
    // the start of the measurement frame.
    stats.setWindowOrigin(SimTime::milliseconds(300.0));
    EXPECT_TRUE(stats.windowOriginAligned());
    EXPECT_EQ(stats.findWindowed("w"), nullptr);
    stats.observeWindowed("w", SimTime::milliseconds(450.0), 2.0);
    const WindowedHistogram *w = stats.findWindowed("w");
    ASSERT_NE(w, nullptr);
    EXPECT_TRUE(w->originAligned());
    ASSERT_EQ(w->windows().size(), 1u);
    EXPECT_EQ(w->windows()[0].index, 1); // (450 - 300) / 100
}

TEST(StatRegistryTest, WindowedSeriesAndTimeSeriesJson)
{
    StatRegistry stats;
    stats.setWindowLength(SimTime::milliseconds(50.0));
    EXPECT_EQ(stats.findWindowed("w"), nullptr);
    stats.observeWindowed("w", SimTime::milliseconds(10.0), 2.0);
    stats.observeWindowed("w", SimTime::milliseconds(60.0), 4.0);
    stats.observeWindowed("quote\"w", SimTime::zero(), 1.0);
    const WindowedHistogram *w = stats.findWindowed("w");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->windowLength(), SimTime::milliseconds(50.0));
    EXPECT_EQ(w->totalCount(), 2u);

    // writeJson stays windowed-free: the legacy metrics JSON is
    // byte-identical whether or not windowed series exist.
    std::ostringstream legacy;
    stats.writeJson(legacy);
    EXPECT_EQ(legacy.str().find("\"w\""), std::string::npos);

    std::ostringstream os;
    stats.writeTimeSeriesJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"default_window_ms\": 50"), std::string::npos);
    EXPECT_NE(out.find("\"series\""), std::string::npos);
    EXPECT_NE(out.find("\"window_ms\""), std::string::npos);
    EXPECT_NE(out.find("\"start_ms\": 50"), std::string::npos);
    EXPECT_NE(out.find("\"p99\""), std::string::npos);
    EXPECT_NE(out.find("\"quote\\\"w\""), std::string::npos);
    EXPECT_EQ(out.find("nan"), std::string::npos);
}

TEST(MetricCatalogTest, NamesAreUniqueAndFullyDeclared)
{
    std::set<std::string_view> names;
    for (const MetricDef &def : metrics::catalog()) {
        EXPECT_TRUE(names.insert(def.name).second) << def.name;
        EXPECT_FALSE(def.unit.empty()) << def.name;
        EXPECT_FALSE(def.layer.empty()) << def.name;
        EXPECT_FALSE(def.help.empty()) << def.name;
        EXPECT_EQ(def.family, def.name.back() == '.') << def.name;
        const std::string kind = metricKindName(def.kind);
        EXPECT_TRUE(kind == "counter" || kind == "histogram" ||
                    kind == "windowed")
            << def.name;
    }
    EXPECT_EQ(names.size(), metrics::detail::kCatalogSize);
}

TEST(MetricCatalogTest, ChainArtifactCountersAreDumpedInOrder)
{
    std::set<std::uint32_t> slots;
    std::string expected = "\"chain_artifact_counters\": [";
    for (CounterHandle counter : metrics::kChainArtifactCounters) {
        EXPECT_TRUE(slots.insert(counter.slot).second);
        const MetricDef &def = metrics::catalog()[counter.slot];
        EXPECT_EQ(def.kind, MetricKind::Counter) << def.name;
        EXPECT_FALSE(def.family) << def.name;
        if (slots.size() > 1)
            expected += ", ";
        expected += "\"";
        expected += def.name;
        expected += "\"";
    }
    EXPECT_EQ(slots.size(), 10u);
    std::ostringstream os;
    metrics::writeCatalogJson(os);
    EXPECT_NE(os.str().find(expected + "]}"), std::string::npos)
        << os.str().substr(os.str().size() - 400);
}

TEST(MetricCatalogTest, HandleAndNameShareOneSlot)
{
    StatRegistry stats;
    stats.incr(metrics::kHostSpawns, 3);
    EXPECT_EQ(stats.value("host.spawns"), 3);
    stats.incr("host.spawns");
    EXPECT_EQ(stats.value(metrics::kHostSpawns), 4);
    EXPECT_EQ(stats.all().size(), 1u);

    stats.observeMs(metrics::kInvokeLatency, 2.0);
    stats.observeMs("invoke.latency", 4.0);
    const LatencySeries *h = stats.findHistogram("invoke.latency");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h, &stats.histogram(metrics::kInvokeLatency));
    EXPECT_EQ(h->count(), 2u);

    stats.observeWindowed(metrics::kWinE2eMs, 1_ms, 1.0);
    stats.observeWindowed("win.e2e_ms", 2_ms, 1.0);
    ASSERT_NE(stats.findWindowed("win.e2e_ms"), nullptr);
    EXPECT_EQ(stats.findWindowed("win.e2e_ms")->totalCount(), 2u);

    // A family member is the same slot as its full name.
    const CounterHandle fallback =
        metrics::kBootFallback.member("sfork_warm");
    EXPECT_EQ(fallback.slot, metricSlot("boot.fallback.sfork_warm"));
    stats.incr(fallback);
    EXPECT_EQ(stats.value("boot.fallback.sfork_warm"), 1);
    EXPECT_EQ(metricName(fallback.slot), "boot.fallback.sfork_warm");
}

TEST(MetricCatalogTest, UndeclaredNamesStillCount)
{
    StatRegistry stats;
    EXPECT_EQ(stats.value("test.undeclared.never"), 0);
    stats.incr("test.undeclared.count", 2);
    stats.incr("test.undeclared.count");
    stats.incr("test.undeclared.zero", 0);
    EXPECT_EQ(stats.value("test.undeclared.count"), 3);
    const auto all = stats.all();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all.at("test.undeclared.zero"), 0); // touched, so listed
    std::ostringstream os;
    stats.writeJson(os);
    EXPECT_NE(os.str().find("\"test.undeclared.count\": 3"),
              std::string::npos);
}

/** writeJson of a registry that touched @p names, in that order: one
 *  counter and one histogram sample per name, both derived from it. */
std::string
touchedJson(const std::vector<std::string> &names)
{
    StatRegistry stats;
    for (const std::string &name : names) {
        stats.incr(name, static_cast<std::int64_t>(name.size()));
        stats.observeMs(name + ".h", static_cast<double>(name.back() % 7));
    }
    std::ostringstream os;
    stats.writeJson(os);
    return os.str();
}

TEST(MetricCatalogTest, WriteJsonIgnoresInternOrder)
{
    // Intern one name set backwards and another forwards, then touch
    // both in each order: the snapshot follows names, never slots.
    std::vector<std::string> rev, fwd;
    for (int i = 0; i < 12; ++i) {
        std::string r = "order.rev.";
        r += static_cast<char>('a' + i);
        rev.push_back(r);
        std::string f = "order.fwd.";
        f += static_cast<char>('a' + i);
        fwd.push_back(f);
    }
    for (auto it = rev.rbegin(); it != rev.rend(); ++it)
        metricSlot(*it);
    for (const std::string &name : fwd)
        metricSlot(name);
    for (const auto *set : {&rev, &fwd}) {
        std::vector<std::string> backwards(set->rbegin(), set->rend());
        const std::string a = touchedJson(*set);
        EXPECT_EQ(a, touchedJson(backwards));
        std::size_t last = 0;
        for (const std::string &name : *set) {
            const std::size_t at = a.find("\"" + name + "\"");
            ASSERT_NE(at, std::string::npos) << name;
            EXPECT_GT(at, last) << name; // sorted
            last = at;
        }
    }
}

TEST(MetricCatalogTest, WriteJsonIdenticalAcrossThreads)
{
    // Eight threads race to intern fresh names, each starting at a
    // different rotation; every registry still renders identically.
    std::vector<std::string> names;
    for (int i = 0; i < 40; ++i) {
        std::string name = "race.m";
        name += std::to_string(i);
        names.push_back(name);
    }
    constexpr int kThreads = 8;
    std::vector<std::string> out(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::vector<std::string> mine = names;
            std::rotate(mine.begin(), mine.begin() + t * 5, mine.end());
            out[static_cast<std::size_t>(t)] = touchedJson(mine);
        });
    }
    for (auto &th : threads)
        th.join();
    const std::string single = touchedJson(names);
    for (const std::string &json : out)
        EXPECT_EQ(json, single);
}

TEST(MetricCatalogTest, MergeFoldsRegistriesWithDifferentSubsets)
{
    StatRegistry a, b, direct;
    for (StatRegistry *r : {&a, &direct}) {
        r->incr(metrics::kHostSpawns, 2);
        r->incr("merge.only_a", 0);
        r->observeMs(metrics::kInvokeLatency, 1.0);
        r->observeWindowed(metrics::kWinE2eMs, 10_ms, 3.0);
    }
    for (StatRegistry *r : {&b, &direct}) {
        r->incr(metrics::kHostSpawns, 5);
        r->incr("merge.only_b", 7);
        r->observeMs(metrics::kInvokeLatency, 2.0);
        r->observeMs("merge.only_b.h", 9.0);
        r->observeWindowed("merge.only_b.w", 20_ms, 1.0);
    }
    StatRegistry merged;
    merged.merge(a);
    merged.merge(b);
    std::ostringstream m, d;
    merged.writeJson(m);
    direct.writeJson(d);
    EXPECT_EQ(m.str(), d.str());
    std::ostringstream mt, dt;
    merged.writeTimeSeriesJson(mt);
    direct.writeTimeSeriesJson(dt);
    EXPECT_EQ(mt.str(), dt.str());
    EXPECT_EQ(merged.value("host.spawns"), 7);
    EXPECT_EQ(merged.all().count("merge.only_a"), 1u);
    EXPECT_EQ(merged.findHistogram("invoke.latency")->count(), 2u);
}

TEST(TableFormatTest, FmtHelpers)
{
    EXPECT_EQ(fmtMs(123.456), "123.5");
    EXPECT_EQ(fmtMs(12.345), "12.35");
    EXPECT_EQ(fmtMs(0.97), "0.970");
    EXPECT_EQ(fmtBytes(512), "512B");
    EXPECT_EQ(fmtBytes(2048), "2.0KB");
    EXPECT_EQ(fmtBytes(3.5 * 1024 * 1024), "3.5MB");
    EXPECT_EQ(fmtSpeedup(35.21), "35.2x");
}

TEST(TextTableTest, RendersAlignedColumns)
{
    TextTable table("Demo");
    table.setHeader({"name", "ms"});
    table.addRow({"alpha", "1.0"});
    table.addSeparator();
    table.addRow({"b", "20.5"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("Demo"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("20.5"), std::string::npos);
}

TEST(TextTableTest, ArityMismatchPanics)
{
    TextTable table;
    table.setHeader({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "cells");
}

TEST(CdfPrintTest, EmitsMonotoneFractions)
{
    std::ostringstream os;
    printCdf(os, "test", {1.0, 2.0, 4.0});
    const std::string out = os.str();
    EXPECT_NE(out.find("n=3"), std::string::npos);
    EXPECT_NE(out.find("1.0000"), std::string::npos);
}

} // namespace
} // namespace catalyzer::sim
