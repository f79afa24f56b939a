/**
 * @file
 * Windowed SLO engine demo: tail latency over time on a scripted load.
 *
 * A 4-machine remote-sfork cluster runs three phases separated by idle
 * gaps on every machine's virtual clock:
 *
 *   1. steady   — sfork boots of a template every machine holds
 *   2. burst    — remote-sfork boots of a function only machine 0
 *                 prepared (fabric pulls, cross-machine traces)
 *   3. faults   — the same burst with injected lender deaths, so boots
 *                 degrade tiers and the flight recorder captures them
 *
 * Lifetime aggregates hide exactly this structure: the fault phase's
 * latency spike vanishes into the overall p99. The windowed series
 * (50 ms windows of virtual time) keep it visible, and the SLO engine
 * scores each window's bad-event fraction and burn rate.
 *
 * Outputs:
 *   - fig_slo_window.timeseries.json  fleet-merged windowed series
 *   - fig_slo_window.slo.json         per-window SLO evaluations
 *   - fig_slo_window.flightrec/       postmortem incident dumps
 *
 * FIG_SLO_ASSERT=1 (release CI) turns the scripted expectations into
 * hard failures: the boot-tier SLO must hold, the zero-budget probe
 * must burn, the fault phase must have recorded incidents.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/slo.h"
#include "platform/cluster.h"
#include "sim/table.h"

using namespace catalyzer;
using bench::failures;

namespace {

constexpr std::size_t kMachines = 4;
constexpr const char *kSteadyApp = "python-hello";
constexpr const char *kRemoteApp = "python-django";
const sim::SimTime kWindow = sim::SimTime::milliseconds(50.0);
const sim::SimTime kPhaseGap = sim::SimTime::milliseconds(500.0);

void
idleGap(platform::Cluster &cluster)
{
    // Separate the phases in every machine's windowed series.
    for (std::size_t i = 0; i < cluster.machineCount(); ++i)
        cluster.machine(i).ctx().clock().advance(kPhaseGap);
}

} // namespace

int
main()
{
    bench::banner("fig_slo_window",
                  "Windowed tail latency + SLO burn rate over a "
                  "scripted 3-phase cluster load");

    net::FabricConfig fabric;
    fabric.modelTransfers = true;
    fabric.remoteFork = true;
    platform::Cluster cluster(
        kMachines, platform::PlacementPolicy::RoundRobin,
        platform::PlatformConfig{platform::BootStrategy::CatalyzerAuto},
        {}, sim::CostModel{}, 42, fabric);
    for (std::size_t i = 0; i < kMachines; ++i) {
        cluster.machine(i).ctx().stats().setWindowLength(kWindow);
        cluster.platform(i).flightRecorder().setDumpDirectory(
            "fig_slo_window.flightrec");
    }

    const apps::AppProfile &steady = apps::appByName(kSteadyApp);
    const apps::AppProfile &remote = apps::appByName(kRemoteApp);
    cluster.deploy(steady);
    cluster.deploy(remote);
    cluster.prepareEverywhere(steady);
    cluster.platform(0).prepare(remote); // only machine 0 holds it

    std::size_t invokes = 0;

    // Phase 1: steady sfork traffic spread across the fleet.
    for (int i = 0; i < 24; ++i, ++invokes)
        cluster.invoke(kSteadyApp);
    idleGap(cluster);

    // Phase 2: burst of remote-sforks — machines 1..3 borrow machine
    // 0's template over the fabric.
    for (int round = 0; round < 4; ++round) {
        for (std::size_t m = 1; m < kMachines; ++m, ++invokes)
            cluster.platform(m).invoke(kRemoteApp);
    }
    idleGap(cluster);

    // Phase 3: the same burst under lender deaths. Each injected death
    // degrades the boot one tier (remote-sfork -> warm -> ...) and
    // fires the machine's flight recorder.
    for (std::size_t m = 1; m < kMachines; ++m)
        cluster.platform(m).catalyzer().faults().failNext(
            faults::FaultSite::RemotePeerDeath, 2);
    for (int round = 0; round < 4; ++round) {
        for (std::size_t m = 1; m < kMachines; ++m, ++invokes)
            cluster.platform(m).invoke(kRemoteApp);
    }

    // Fleet-merged windowed view.
    sim::StatRegistry fleet;
    cluster.mergeStats(fleet);

    sim::TextTable tiers(
        "Windowed boot latency per tier (ms, virtual time)");
    tiers.setHeader(
        {"tier", "window", "start_ms", "boots", "p99", "p99.9"});
    for (const auto &[name, series] : fleet.windowedSeries()) {
        const std::string prefix = "win.boot_ms.tier.";
        if (name.rfind(prefix, 0) != 0)
            continue;
        for (const auto &w : series.windows()) {
            tiers.addRow({std::string(name.substr(prefix.size())),
                          std::to_string(w.index),
                          sim::fmtMs(series.windowStart(w.index).toMs()),
                          std::to_string(w.series.count()),
                          sim::fmtMs(w.series.percentile(99)),
                          sim::fmtMs(w.series.percentile(99.9))});
        }
    }
    tiers.print(std::cout);
    std::printf("\n");

    // SLO evaluation: a realistic boot-tier target, plus a zero-budget
    // probe that every event must violate (it proves the bad-event and
    // burn-rate accounting is exact, and release CI asserts on it).
    obs::SloTarget boot_slo;
    boot_slo.metric = "win.boot_ms.tier.sfork";
    boot_slo.thresholdMs = 5.0;
    boot_slo.objective = 0.99;
    obs::SloTarget probe;
    probe.metric = "win.e2e_ms";
    probe.thresholdMs = 0.001; // 1 µs: everything is a bad event
    probe.objective = 0.999;

    std::vector<obs::SloReport> reports;
    for (const obs::SloTarget &target : {boot_slo, probe}) {
        const sim::WindowedHistogram *series =
            fleet.findWindowed(target.metric);
        if (series == nullptr) {
            std::fprintf(stderr, "fig_slo_window: missing series %s\n",
                         target.metric.c_str());
            return 1;
        }
        reports.push_back(obs::evaluateSlo(*series, target));
    }

    sim::TextTable slo_table("SLO evaluation (burn rate 1.0 = budget "
                             "consumed exactly at sustainable pace)");
    slo_table.setHeader({"metric", "thresh_ms", "objective", "events",
                         "bad", "attainment", "worst_burn", "met"});
    for (const obs::SloReport &r : reports) {
        char attainment[32], burn[32];
        std::snprintf(attainment, sizeof attainment, "%.5f",
                      r.attainment());
        std::snprintf(burn, sizeof burn, "%.1f", r.worstBurnRate);
        slo_table.addRow(
            {r.target.metric, sim::fmtMs(r.target.thresholdMs),
             std::to_string(r.target.objective),
             std::to_string(r.totalEvents), std::to_string(r.badEvents),
             attainment, burn, r.objectiveMet() ? "yes" : "NO"});
    }
    slo_table.print(std::cout);

    std::uint64_t incidents = 0, dumps = 0;
    for (std::size_t i = 0; i < kMachines; ++i) {
        incidents += cluster.platform(i).flightRecorder().incidentCount();
        dumps += cluster.platform(i).flightRecorder().dumpsWritten();
    }
    std::printf("\nflight recorder: %llu incidents captured, %llu "
                "postmortem dumps in fig_slo_window.flightrec/\n",
                static_cast<unsigned long long>(incidents),
                static_cast<unsigned long long>(dumps));

    {
        std::ofstream os("fig_slo_window.timeseries.json");
        if (!os) {
            std::fprintf(stderr,
                         "fig_slo_window: cannot write timeseries\n");
            return 1;
        }
        cluster.writeTimeSeriesJson(os);
        std::printf("wrote fig_slo_window.timeseries.json\n");
    }
    {
        std::ofstream os("fig_slo_window.slo.json");
        if (!os) {
            std::fprintf(stderr, "fig_slo_window: cannot write slo\n");
            return 1;
        }
        obs::writeSloJson(os, reports);
        std::printf("wrote fig_slo_window.slo.json\n");
    }

    // Scripted expectations; FIG_SLO_ASSERT=1 makes them hard.
    const char *gate = std::getenv("FIG_SLO_ASSERT");
    const bool assert_mode =
        gate != nullptr && std::string(gate) == "1";
    std::printf("\nscripted expectations%s:\n",
                assert_mode ? " (asserting)" : "");
    int failed = 0;
    failed += failures(assert_mode,
                       reports[0].totalEvents > 0 &&
                           reports[0].objectiveMet(),
                       "sfork boots meet the 5 ms / 99% SLO");
    failed += failures(assert_mode,
                       reports[1].totalEvents == invokes &&
                           reports[1].badEvents == invokes,
                       "zero-budget probe counts every request bad");
    failed += failures(assert_mode, reports[1].worstBurnRate > 1.0,
                       "zero-budget probe burns past sustainable pace");
    failed += failures(assert_mode, incidents > 0 && dumps == incidents,
                       "fault phase captured and dumped incidents");
    failed += failures(
        assert_mode,
        fleet.value("boot.fallback.remote-sfork_warm") > 0,
        "lender deaths degraded boots out of the remote tier");

    bench::footer();
    return failed == 0 ? 0 : 1;
}
