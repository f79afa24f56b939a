/**
 * @file
 * Tests for the fleet observability layer: merged cross-machine Chrome
 * traces (remote-sfork lender + borrower sharing one distributed trace
 * id, including the peer-death reroute path), the black-box flight
 * recorder (incident capture, counter deltas, span-ring tail, bounded
 * memory, postmortem dumps) and windowed SLO evaluation with burn-rate
 * accounting.
 */

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_injector.h"
#include "net/remote_pager.h"
#include "obs/fleet_trace.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "platform/cluster.h"

namespace catalyzer::obs {
namespace {

using platform::BootStrategy;
using platform::Cluster;
using platform::PlacementPolicy;
using platform::PlatformConfig;
using sim::SimTime;
using namespace sim::time_literals;

net::FabricConfig
remoteForkFabric()
{
    net::FabricConfig config;
    config.modelTransfers = true;
    config.remoteFork = true;
    return config;
}

const trace::Span *
findSpan(const std::vector<trace::Span> &spans, const std::string &name)
{
    for (const trace::Span &s : spans) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

TEST(FleetTraceTest, MergeOrdersByMachineAndSkipsNulls)
{
    trace::Tracer a, b;
    a.setMachine(2);
    b.setMachine(0);
    sim::VirtualClock clock;
    a.begin("on-two", clock.now());
    clock.advance(1_ms);
    b.begin("late-on-zero", clock.now());
    b.begin("later-on-zero", clock.now());

    const auto merged = mergeFleetSpans({&a, nullptr, &b});
    ASSERT_EQ(merged.size(), 3u);
    // Machine order first (0 before 2), then creation order within.
    EXPECT_EQ(merged[0].name, "late-on-zero");
    EXPECT_EQ(merged[1].name, "later-on-zero");
    EXPECT_EQ(merged[2].name, "on-two");

    std::ostringstream os;
    exportFleetChromeTrace({&a, &b}, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("machine 0"), std::string::npos);
    EXPECT_NE(json.find("machine 2"), std::string::npos);
}

TEST(FlightRecorderTest, CapturesDeltasAndSpanTail)
{
    trace::Tracer tracer;
    sim::VirtualClock clock;
    sim::StatRegistry stats;
    FlightRecorder rec(3, tracer, clock, stats);

    stats.incr("boots", 5);
    tracer.begin("older", clock.now());
    clock.advance(2_ms);
    tracer.begin("newer", clock.now());

    const auto seq1 = rec.record("fault-injected", "remote_peer_death",
                                 "handshake", /*trace_id=*/77);
    EXPECT_EQ(seq1, 1u);
    ASSERT_EQ(rec.incidents().size(), 1u);
    const Incident &first = rec.incidents().front();
    EXPECT_EQ(first.kind, "fault-injected");
    EXPECT_EQ(first.site, "remote_peer_death");
    EXPECT_EQ(first.traceId, 77u);
    EXPECT_EQ(first.at, 2_ms);
    ASSERT_EQ(first.counterDeltas.size(), 1u);
    EXPECT_EQ(first.counterDeltas[0].first, "boots");
    EXPECT_EQ(first.counterDeltas[0].second, 5);
    ASSERT_EQ(first.recentSpans.size(), 2u);
    EXPECT_EQ(first.recentSpans[1].name, "newer");

    // The next incident sees only the changes since the last one.
    stats.incr("boots", 2);
    stats.incr("fallbacks", 1);
    rec.record("tier-fallback", "remote_peer_death", "sfork -> warm", 0);
    const Incident &second = rec.incidents().back();
    ASSERT_EQ(second.counterDeltas.size(), 2u);
    EXPECT_EQ(second.counterDeltas[0].first, "boots");
    EXPECT_EQ(second.counterDeltas[0].second, 2);
    EXPECT_EQ(second.counterDeltas[1].first, "fallbacks");
    EXPECT_EQ(second.counterDeltas[1].second, 1);
}

TEST(FlightRecorderTest, RingBoundsMemoryAndJsonDumps)
{
    trace::Tracer tracer;
    sim::VirtualClock clock;
    sim::StatRegistry stats;
    FlightRecorder rec(1, tracer, clock, stats);

    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "flightrec-test")
            .string();
    std::filesystem::remove_all(dir);
    rec.setDumpDirectory(dir);

    const std::size_t total = FlightRecorder::kMaxIncidents + 2;
    for (std::size_t i = 0; i < total; ++i)
        rec.record("fault-injected", "net_link", "", 0);
    EXPECT_EQ(rec.incidents().size(), FlightRecorder::kMaxIncidents);
    EXPECT_EQ(rec.incidentCount(), total);
    EXPECT_EQ(rec.droppedCount(), 2u);
    // The in-memory ring evicted seq 1 and 2 but their dumps remain.
    EXPECT_EQ(rec.incidents().front().seq, 3u);
    EXPECT_EQ(rec.dumpsWritten(), total);
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) / "flightrec-m1-1.json"));

    std::ifstream in(std::filesystem::path(dir) / "flightrec-m1-66.json");
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("\"kind\": \"fault-injected\""),
              std::string::npos);
    EXPECT_NE(content.str().find("\"site\": \"net_link\""),
              std::string::npos);

    std::ostringstream os;
    rec.writeJson(os);
    EXPECT_NE(os.str().find("\"machine\": 1"), std::string::npos);
    EXPECT_NE(os.str().find("\"incidents\""), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(SloTest, EvaluatesBurnRatePerWindow)
{
    sim::WindowedHistogram series(SimTime::milliseconds(100.0));
    // Window 0: one of four events over threshold.
    for (double v : {1.0, 2.0, 3.0, 10.0})
        series.record(SimTime::milliseconds(10.0), v);
    // Window 1: all good.
    series.record(SimTime::milliseconds(150.0), 1.0);
    series.record(SimTime::milliseconds(160.0), 1.0);

    SloTarget target;
    target.metric = "win.boot_ms";
    target.thresholdMs = 5.0;
    target.objective = 0.9;
    const SloReport report = evaluateSlo(series, target);

    EXPECT_EQ(report.totalEvents, 6u);
    EXPECT_EQ(report.badEvents, 1u);
    EXPECT_NEAR(report.attainment(), 5.0 / 6.0, 1e-9);
    EXPECT_FALSE(report.objectiveMet()); // 0.833 < 0.9
    ASSERT_EQ(report.windows.size(), 2u);
    const SloWindow &w0 = report.windows[0];
    EXPECT_EQ(w0.index, 0);
    EXPECT_EQ(w0.count, 4u);
    EXPECT_EQ(w0.badEvents, 1u);
    EXPECT_DOUBLE_EQ(w0.badFraction, 0.25);
    // budget = 1 - 0.9 = 0.1, so burn rate 2.5.
    EXPECT_NEAR(w0.burnRate, 2.5, 1e-9);
    EXPECT_FALSE(w0.met);
    const SloWindow &w1 = report.windows[1];
    EXPECT_EQ(w1.badEvents, 0u);
    EXPECT_TRUE(w1.met);
    EXPECT_EQ(report.windowsMet, 1u);
    EXPECT_NEAR(report.worstBurnRate, 2.5, 1e-9);

    std::ostringstream os;
    writeSloJson(os, {report});
    const std::string json = os.str();
    EXPECT_NE(json.find("\"metric\": \"win.boot_ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"worst_burn_rate\""), std::string::npos);
    EXPECT_NE(json.find("\"objective_met\": false"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(SloTest, EmptySeriesTriviallyMeets)
{
    sim::WindowedHistogram series(SimTime::milliseconds(100.0));
    const SloReport report = evaluateSlo(series, SloTarget{});
    EXPECT_EQ(report.totalEvents, 0u);
    EXPECT_DOUBLE_EQ(report.attainment(), 1.0);
    EXPECT_TRUE(report.objectiveMet());
    EXPECT_TRUE(report.windows.empty());
}

TEST(FleetStitchTest, RemoteSforkSharesOneTraceId)
{
    Cluster cluster(2, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerAuto}, {},
                    sim::CostModel{}, 42, remoteForkFabric());
    const apps::AppProfile &app = apps::appByName("python-django");
    cluster.deploy(app);
    cluster.platform(0).prepare(app);

    // An untraced invoke self-traces into machine 1's always-on ring.
    auto record = cluster.platform(1).invoke("python-django");
    ASSERT_EQ(record.tierServed, "remote-sfork");

    const auto borrower = cluster.machine(1).tracer().snapshot();
    const trace::Span *boot =
        findSpan(borrower, "boot/Catalyzer-remote-sfork");
    ASSERT_NE(boot, nullptr);
    EXPECT_NE(boot->traceId, 0u);
    EXPECT_EQ(boot->machine, 1u);
    // Every borrower span of the request carries the same trace id.
    const trace::Span *invoke_span =
        findSpan(borrower, "invoke/python-django");
    ASSERT_NE(invoke_span, nullptr);
    EXPECT_EQ(invoke_span->traceId, boot->traceId);
    const trace::Span *pull = findSpan(borrower, "remote-pull-batch");
    ASSERT_NE(pull, nullptr);
    EXPECT_EQ(pull->traceId, boot->traceId);

    // The lender's half of the handshake landed in machine 0's ring
    // under the *same* distributed trace id, tagged with its machine.
    const auto lender = cluster.machine(0).tracer().snapshot();
    const trace::Span *lend = findSpan(lender, "lend-template");
    ASSERT_NE(lend, nullptr);
    EXPECT_EQ(lend->traceId, boot->traceId);
    EXPECT_EQ(lend->machine, 0u);
    EXPECT_EQ(lend->parent, 0u); // span ids don't cross machines
    const trace::Span *serve = findSpan(lender, "serve-pull-batch");
    ASSERT_NE(serve, nullptr);
    EXPECT_EQ(serve->traceId, boot->traceId);

    // The fleet export renders both halves in one document, in two
    // distinct machine lanes.
    std::ostringstream os;
    cluster.exportFleetTrace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"lend-template\""), std::string::npos);
    EXPECT_NE(json.find("\"boot/Catalyzer-remote-sfork\""),
              std::string::npos);
    EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST(FleetStitchTest, PeerDeathReroutePullsKeepTheTraceId)
{
    net::FabricConfig config;
    config.modelTransfers = true;
    net::Fabric fabric(config);
    sim::SimContext ctx;
    faults::FaultInjector injector;

    trace::Tracer borrower, lender;
    borrower.setMachine(0);
    lender.setMachine(1);
    sim::VirtualClock lender_clock;
    trace::TraceContext borrow(borrower, ctx.clock());
    trace::ScopedSpan boot(borrow, "boot/Catalyzer-remote-sfork");
    const trace::TraceContext lend =
        boot.context().withTracer(lender, lender_clock);

    net::RemotePager pager(ctx, fabric, 0, 1, 0, 1000, &injector, 4,
                           boot.context(), lend);
    pager.onFaultRange(0, 1, false, mem::FaultResult::BaseFill);
    // Batch served by the living lender: a marker span on its side.
    ASSERT_EQ(lender.spanCount(), 1u);
    EXPECT_EQ(lender.snapshot()[0].name, "serve-pull-batch");
    EXPECT_EQ(lender.snapshot()[0].traceId, boot.context().traceId());

    // The lender dies; the pager reroutes to origin. Later pulls still
    // carry the boot's trace id, but the dead lender records nothing.
    injector.failNext(faults::FaultSite::RemotePeerDeath);
    pager.onFaultRange(4, 8, false, mem::FaultResult::BaseFill);
    EXPECT_EQ(pager.source(), net::kOriginStorage);
    EXPECT_EQ(lender.spanCount(), 1u);
    boot.finish();

    const auto spans = borrower.snapshot();
    std::size_t origin_batches = 0;
    for (const trace::Span &s : spans) {
        if (s.name != "remote-pull-batch")
            continue;
        EXPECT_EQ(s.traceId, boot.context().traceId());
        for (const auto &[k, v] : s.attributes) {
            if (k == "source" && v == "origin")
                ++origin_batches;
        }
    }
    EXPECT_GE(origin_batches, 1u);
}

TEST(FleetStitchTest, HandshakeFaultIncidentReferencesTheTrace)
{
    Cluster cluster(2, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerAuto}, {},
                    sim::CostModel{}, 42, remoteForkFabric());
    const apps::AppProfile &app = apps::appByName("python-hello");
    cluster.deploy(app);
    cluster.platform(0).prepare(app);

    cluster.platform(1).catalyzer().faults().failNext(
        faults::FaultSite::RemotePeerDeath);
    auto record = cluster.platform(1).invoke("python-hello");
    EXPECT_GE(record.tierFallbacks, 1);

    const FlightRecorder &rec = cluster.platform(1).flightRecorder();
    ASSERT_GE(rec.incidentCount(), 2u); // injection + fallback
    std::set<std::string> kinds;
    for (const Incident &incident : rec.incidents())
        kinds.insert(incident.kind);
    EXPECT_TRUE(kinds.count("fault-injected"));
    EXPECT_TRUE(kinds.count("tier-fallback"));

    // Every incident points at the request's distributed trace — the
    // same id the machine ring recorded for the invoke span.
    const auto spans = cluster.machine(1).tracer().snapshot();
    const trace::Span *invoke_span =
        findSpan(spans, "invoke/python-hello");
    ASSERT_NE(invoke_span, nullptr);
    ASSERT_NE(invoke_span->traceId, 0u);
    for (const Incident &incident : rec.incidents()) {
        EXPECT_EQ(incident.traceId, invoke_span->traceId)
            << incident.kind;
        EXPECT_EQ(incident.site, "remote_peer_death") << incident.kind;
        EXPECT_FALSE(incident.recentSpans.empty()) << incident.kind;
    }
}

TEST(ClusterObsTest, TimeSeriesSnapshotMergesMachines)
{
    Cluster cluster(2, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerAuto});
    const apps::AppProfile &app = apps::appByName("c-hello");
    cluster.deploy(app);
    cluster.platform(0).invoke("c-hello");
    cluster.platform(1).invoke("c-hello");

    std::ostringstream os;
    cluster.writeTimeSeriesJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"series\""), std::string::npos);
    EXPECT_NE(json.find("\"win.e2e_ms\""), std::string::npos);
    EXPECT_NE(json.find("\"win.boot_ms.fn.c-hello\""),
              std::string::npos);
    EXPECT_NE(json.find("\"win.tier_served\""), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);

    // The merged fleet series saw both machines' events.
    sim::StatRegistry fleet;
    cluster.mergeStats(fleet);
    const sim::WindowedHistogram *e2e = fleet.findWindowed("win.e2e_ms");
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->totalCount(), 2u);
}

TEST(ClusterObsTest, LegacyMetricsJsonHasNoWindowedSeries)
{
    // The windowed engine must not leak into the legacy snapshot: the
    // metrics JSON keeps its pre-observability shape byte for byte.
    Cluster cluster(1, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerAuto});
    const apps::AppProfile &app = apps::appByName("c-hello");
    cluster.deploy(app);
    cluster.invoke("c-hello");
    std::ostringstream os;
    cluster.statsSnapshot(os);
    EXPECT_EQ(os.str().find("win."), std::string::npos);
}

} // namespace
} // namespace catalyzer::obs
