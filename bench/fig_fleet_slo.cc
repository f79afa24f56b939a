/**
 * @file
 * Fleet SLO sweep: production traffic scenarios against policy-driven
 * autoscaling, scored on tail-latency SLO attainment and cost.
 *
 * A synthetic multi-tenant population (Zipf popularity over a seeded
 * rank permutation) drives a multi-rack remote-sfork cluster through
 * four scenarios — steady (Poisson head, MMPP-bursty tail), diurnal
 * (tenant-phase-shifted rate curves), flash-crowd (the coldest
 * functions ramp from silence to a hard plateau) and tenant-churn (the
 * active-tenant set rotates every epoch) — each under two policies at
 * the SAME per-machine resident-memory budget:
 *
 *   keepalive  pure keep-alive: idle instances persist for a TTL,
 *              no templates ever built
 *   prewarm    policy-driven autoscaling: keep-alive plus reactive
 *              per-machine template rebalance, EWMA-triggered
 *              predictive pre-warm, memory-pressure budget breathing
 *              and cross-rack template placement
 *
 * Everything replays on the virtual clock, so every number is exactly
 * reproducible.
 *
 * Outputs:
 *   - fig_fleet_slo.fleet.json       per-run SLO + cost + autoscaler
 *                                    counters + per-tenant attainment
 *   - fig_fleet_slo.timeseries.json  fleet-merged windowed series of
 *                                    the flash-crowd/prewarm run
 *                                    (includes the win.policy.* series)
 *
 * Scale knobs (env): FLEET_FUNCTIONS, FLEET_TENANTS, FLEET_RPS,
 * FLEET_DURATION_SEC, FLEET_MACHINES. CI smoke runs a reduced fleet;
 * the release gate (FIG_FLEET_SLO_ASSERT=1) runs the full defaults and
 * turns the scripted expectations into failures —
 * chiefly that predictive pre-warm beats pure keep-alive on p99.9
 * end-to-end latency in the flash-crowd scenario at equal budget.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "load/driver.h"
#include "obs/slo.h"
#include "sim/json.h"
#include "sim/table.h"

using namespace catalyzer;
using bench::envDouble;
using bench::envSize;
using bench::failures;

namespace {

struct RunResult
{
    load::Scenario scenario = load::Scenario::Steady;
    std::string policy;
    load::FleetReport report;
    obs::SloReport e2eSlo;
    obs::SloReport bootSlo;
    std::vector<obs::TenantSlo> tenants;
};

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

void
writeFleetJson(std::ostream &os, const load::PopulationSpec &pop,
               std::size_t machines, std::size_t racks,
               double duration_sec, double budget_mib,
               const std::vector<RunResult> &runs)
{
    os << "{\n  \"config\": {\"functions\": " << pop.functions
       << ", \"tenants\": " << pop.tenants
       << ", \"machines\": " << machines << ", \"racks\": " << racks
       << ", \"total_rps\": ";
    sim::writeJsonNumber(os, pop.totalRps);
    os << ", \"duration_sec\": ";
    sim::writeJsonNumber(os, duration_sec);
    os << ", \"resident_budget_mib_per_machine\": ";
    sim::writeJsonNumber(os, budget_mib);
    os << "},\n  \"runs\": [";
    bool first = true;
    for (const RunResult &run : runs) {
        const load::FleetReport &r = run.report;
        os << (first ? "\n" : ",\n") << "    {\"scenario\": \""
           << load::scenarioName(run.scenario) << "\", \"policy\": \""
           << run.policy << "\", \"requests\": " << r.requests
           << ", \"boots\": " << r.boots << ", \"reuses\": " << r.reuses
           << ", \"expired\": " << r.expired << ",\n     \"tiers\": {";
        bool tfirst = true;
        for (const auto &[tier, count] : r.tierCounts) {
            os << (tfirst ? "" : ", ") << "\"" << sim::jsonEscape(tier)
               << "\": " << count;
            tfirst = false;
        }
        os << "},\n     \"e2e_ms\": {\"p50\": ";
        sim::writeJsonNumber(os, r.endToEnd.percentile(50));
        os << ", \"p99\": ";
        sim::writeJsonNumber(os, r.endToEnd.percentile(99));
        os << ", \"p999\": ";
        sim::writeJsonNumber(os, r.endToEnd.percentile(99.9));
        os << ", \"max\": ";
        sim::writeJsonNumber(os, r.endToEnd.max());
        os << "},\n     \"queue_ms\": {\"p99\": ";
        sim::writeJsonNumber(os, r.queueWait.percentile(99));
        os << ", \"max\": ";
        sim::writeJsonNumber(os, r.queueWait.max());
        os << "},\n     \"boot_ms\": {\"p50\": ";
        sim::writeJsonNumber(os, r.boot.percentile(50));
        os << ", \"p99\": ";
        sim::writeJsonNumber(os, r.boot.percentile(99));
        os << ", \"p999\": ";
        sim::writeJsonNumber(os, r.boot.percentile(99.9));
        os << "},\n     \"slo\": {";
        bool sfirst = true;
        for (const auto *slo : {&run.e2eSlo, &run.bootSlo}) {
            os << (sfirst ? "" : ", ") << "\""
               << (sfirst ? "e2e" : "boot")
               << "\": {\"metric\": \""
               << sim::jsonEscape(slo->target.metric)
               << "\", \"threshold_ms\": ";
            sim::writeJsonNumber(os, slo->target.thresholdMs);
            os << ", \"objective\": ";
            sim::writeJsonNumber(os, slo->target.objective);
            os << ", \"total_events\": " << slo->totalEvents
               << ", \"bad_events\": " << slo->badEvents
               << ", \"attainment\": ";
            sim::writeJsonNumber(os, slo->attainment());
            os << ", \"objective_met\": "
               << (slo->objectiveMet() ? "true" : "false")
               << ", \"worst_burn_rate\": ";
            sim::writeJsonNumber(os, slo->worstBurnRate);
            os << "}";
            sfirst = false;
        }
        os << "},\n     \"cost\": {\"machine_seconds\": ";
        sim::writeJsonNumber(os, r.machineSeconds);
        os << ", \"busy_seconds\": ";
        sim::writeJsonNumber(os, r.busySeconds);
        os << ", \"avg_resident_mib\": ";
        sim::writeJsonNumber(os, r.avgResidentMiB);
        os << ", \"peak_resident_mib\": ";
        sim::writeJsonNumber(os, r.peakResidentMiB);
        os << ", \"resident_mib_seconds\": ";
        sim::writeJsonNumber(os, r.residentMiBSeconds);
        os << "},\n     \"autoscaler\": {\"ticks\": " << r.policy.ticks
           << ", \"prewarm_triggers\": " << r.policy.prewarmTriggers
           << ", \"prewarm_builds\": " << r.policy.prewarmBuilds
           << ", \"prewarm_false_positives\": "
           << r.policy.prewarmFalsePositives
           << ", \"prewarm_served_sforks\": "
           << r.policy.prewarmServedSforks
           << ", \"rebalance_actions\": " << r.policy.rebalanceActions
           << ", \"keepalive_expired\": " << r.policy.keepAliveExpired
           << ", \"pressure_evictions\": " << r.policy.pressureEvictions
           << ", \"pressure_budget_shrinks\": "
           << r.policy.pressureBudgetShrinks
           << ", \"cross_rack_builds\": " << r.policy.crossRackBuilds
           << "},\n     \"tenants\": [";
        bool tefirst = true;
        for (const obs::TenantSlo &t : run.tenants) {
            os << (tefirst ? "" : ", ") << "{\"tenant\": \""
               << sim::jsonEscape(t.tenant)
               << "\", \"events\": " << t.events << ", \"attainment\": ";
            sim::writeJsonNumber(os, t.report.attainment());
            os << ", \"worst_burn_rate\": ";
            sim::writeJsonNumber(os, t.report.worstBurnRate);
            os << ", \"met\": "
               << (t.report.objectiveMet() ? "true" : "false") << "}";
            tefirst = false;
        }
        os << "]}";
        first = false;
    }
    os << "\n  ]\n}\n";
}

} // namespace

int
main()
{
    bench::banner("fig_fleet_slo",
                  "Fleet traffic scenarios vs autoscaling policy: "
                  "p99/p99.9 SLO attainment and cost at equal "
                  "resident-memory budget");

    load::PopulationSpec pop;
    pop.functions = envSize("FLEET_FUNCTIONS", 1200);
    pop.tenants = envSize("FLEET_TENANTS", 48);
    pop.totalRps = envDouble("FLEET_RPS", 800.0);
    pop.zipfSkew = 1.0;
    pop.seed = 1;
    const double duration = envDouble("FLEET_DURATION_SEC", 15.0);
    const std::size_t machines = envSize("FLEET_MACHINES", 8);
    const double budget_mib = 2048.0;
    const std::size_t per_rack = machines > 4 ? 4 : machines;

    const load::Population population(pop);
    std::printf("population: %zu functions, %zu tenants, %.0f rps, "
                "%.0f s, %zu machines (%zu/rack), %.0f MiB budget "
                "per machine\n\n",
                population.size(), pop.tenants, pop.totalRps, duration,
                machines, per_rack, budget_mib);

    obs::SloTarget e2e_slo;
    e2e_slo.metric = "fleet.e2e_ms";
    e2e_slo.thresholdMs = 10.0;
    e2e_slo.objective = 0.999;
    e2e_slo.percentile = 99.9;
    obs::SloTarget boot_slo;
    boot_slo.metric = "fleet.boot_ms";
    boot_slo.thresholdMs = 5.0;
    boot_slo.objective = 0.99;

    const load::Scenario scenarios[] = {
        load::Scenario::Steady, load::Scenario::Diurnal,
        load::Scenario::FlashCrowd, load::Scenario::TenantChurn};
    const char *policies[] = {"keepalive", "prewarm"};

    std::vector<RunResult> runs;
    std::size_t total_requests = 0;

    for (load::Scenario scenario : scenarios) {
        for (const char *policy : policies) {
            net::FabricConfig fabric;
            fabric.modelTransfers = true;
            fabric.remoteFork = true;
            fabric.machinesPerRack = per_rack;
            platform::PlatformConfig pconf;
            pconf.strategy = platform::BootStrategy::CatalyzerAuto;
            pconf.reuseIdleInstances = true;
            platform::Cluster cluster(
                machines, platform::PlacementPolicy::NetworkAware,
                pconf, {}, sim::CostModel{}, 42, fabric);

            load::TrafficSpec traffic;
            traffic.scenario = scenario;
            traffic.durationSec = duration;
            traffic.seed = 7;
            traffic.diurnalPeriodSec = duration * 0.66;
            traffic.flashAtSec = duration * 0.5;
            traffic.flashRampSec = duration * 0.1;
            traffic.flashHoldSec = duration * 0.25;
            traffic.churnEpochSec = duration * 0.25;
            // Wide, thin flash: a quarter of the catalog — its coldest
            // quarter — lights up at a few requests per second each.
            // Spread across the fleet, each function's per-machine
            // inter-arrival exceeds the keep-alive TTL, so a pure
            // keep-alive fleet pays a boot on nearly every hit; the
            // aggregate boot tax is what saturates it. Templates serve
            // the same stream with ~1 ms sforks.
            traffic.flashFunctions =
                std::max<std::size_t>(32, population.size() / 4);
            traffic.flashRpsPerFunction = 3.0;

            load::FleetRunConfig config;
            config.policy.keepAliveTtl = sim::SimTime::seconds(1.0);
            config.policy.policyTick =
                sim::SimTime::milliseconds(500.0);
            config.policy.prewarmRateRps = 2.0;
            config.policy.machineResidentBudgetBytes =
                static_cast<std::size_t>(budget_mib) * (1u << 20);
            const bool prewarm = std::strcmp(policy, "prewarm") == 0;
            config.policy.reactiveRebalance = prewarm;
            config.policy.predictivePrewarm = prewarm;

            load::FleetDriver driver(cluster, population);
            RunResult run;
            run.scenario = scenario;
            run.policy = policy;
            run.report = driver.run(traffic, config);
            run.e2eSlo =
                obs::evaluateSlo(run.report.e2eMsWindows, e2e_slo);
            run.bootSlo =
                obs::evaluateSlo(run.report.bootMsWindows, boot_slo);
            obs::SloTarget tenant_target = e2e_slo;
            tenant_target.metric = "tenant.e2e_ms";
            run.tenants = obs::evaluatePerTenant(
                run.report.tenantE2eMs, tenant_target);
            total_requests += run.report.requests;

            if (scenario == load::Scenario::FlashCrowd && prewarm) {
                std::ofstream os("fig_fleet_slo.timeseries.json");
                if (!os) {
                    std::fprintf(stderr, "fig_fleet_slo: cannot write "
                                         "timeseries\n");
                    return 1;
                }
                cluster.writeTimeSeriesJson(os);
            }
            runs.push_back(std::move(run));
        }
    }

    sim::TextTable table("Fleet scenarios x policy (e2e latency in ms, "
                         "virtual time)");
    table.setHeader({"scenario", "policy", "requests", "boots", "sfork",
                     "reused", "p99", "p99.9", "queue_p99", "slo_e2e",
                     "avg_mib", "mib_s"});
    for (const RunResult &run : runs) {
        const load::FleetReport &r = run.report;
        std::size_t sforks = 0;
        for (const auto &[tier, count] : r.tierCounts) {
            if (tier == "sfork" || tier == "remote-sfork")
                sforks += count;
        }
        table.addRow({load::scenarioName(run.scenario), run.policy,
                      std::to_string(r.requests),
                      std::to_string(r.boots), std::to_string(sforks),
                      std::to_string(r.reuses),
                      fmt(r.endToEnd.percentile(99)),
                      fmt(r.endToEnd.percentile(99.9)),
                      fmt(r.queueWait.percentile(99)),
                      fmt(run.e2eSlo.attainment()),
                      fmt(r.avgResidentMiB),
                      fmt(r.residentMiBSeconds)});
    }
    table.print(std::cout);

    // The headline A/B: flash-crowd at equal budget.
    const RunResult *flash_ka = nullptr, *flash_pw = nullptr;
    for (const RunResult &run : runs) {
        if (run.scenario != load::Scenario::FlashCrowd)
            continue;
        (run.policy == "prewarm" ? flash_pw : flash_ka) = &run;
    }
    const double ka999 = flash_ka->report.endToEnd.percentile(99.9);
    const double pw999 = flash_pw->report.endToEnd.percentile(99.9);
    std::printf("\nflash-crowd p99.9 e2e: keepalive %.3f ms vs prewarm "
                "%.3f ms (%.1fx)\n",
                ka999, pw999, ka999 / pw999);
    std::printf("prewarm autoscaler: %zu triggers, %zu builds, %zu "
                "served sforks, %zu false positives, %zu cross-rack "
                "builds\n",
                flash_pw->report.policy.prewarmTriggers,
                flash_pw->report.policy.prewarmBuilds,
                flash_pw->report.policy.prewarmServedSforks,
                flash_pw->report.policy.prewarmFalsePositives,
                flash_pw->report.policy.crossRackBuilds);

    {
        std::ofstream os("fig_fleet_slo.fleet.json");
        if (!os) {
            std::fprintf(stderr, "fig_fleet_slo: cannot write fleet\n");
            return 1;
        }
        writeFleetJson(os, pop, machines, (machines + per_rack - 1) /
                                              per_rack,
                       duration, budget_mib, runs);
        std::printf("\nwrote fig_fleet_slo.fleet.json\n");
        std::printf("wrote fig_fleet_slo.timeseries.json\n");
    }

    const char *gate = std::getenv("FIG_FLEET_SLO_ASSERT");
    const bool assert_mode = gate != nullptr && std::string(gate) == "1";
    std::printf("\nscripted expectations%s:\n",
                assert_mode ? " (asserting)" : "");
    int failed = 0;
    const bool at_scale =
        population.size() >= 1000 && total_requests >= 100000;
    if (assert_mode || at_scale)
        failed += failures(assert_mode, at_scale,
                           "fleet scale: >= 1000 functions and >= 100k "
                           "requests across the sweep");
    else
        std::printf("  [reduced] fleet scale check skipped (FLEET_* "
                    "env below the full-scale floor)\n");
    failed += failures(assert_mode, pw999 < ka999,
                       "predictive pre-warm beats pure keep-alive on "
                       "p99.9 e2e in flash-crowd at equal budget");
    failed += failures(assert_mode,
                       flash_pw->e2eSlo.attainment() >=
                           flash_ka->e2eSlo.attainment(),
                       "pre-warm SLO attainment >= keep-alive in "
                       "flash-crowd");
    failed += failures(assert_mode,
                       flash_pw->report.policy.prewarmBuilds > 0 &&
                           flash_pw->report.policy.prewarmServedSforks >
                               0,
                       "prediction contributed: templates built ahead "
                       "and served fork boots");
    const double fleet_budget_mib =
        budget_mib * static_cast<double>(machines);
    failed += failures(assert_mode,
                       flash_ka->report.peakResidentMiB <=
                               fleet_budget_mib &&
                           flash_pw->report.peakResidentMiB <=
                               fleet_budget_mib,
                       "both policies stayed within the shared "
                       "resident-memory budget");

    bench::footer();
    return failed == 0 ? 0 : 1;
}
