/**
 * @file
 * Fault matrix (extension): boot latency under injected boot-path
 * faults, and the graceful-degradation chain that absorbs them.
 *
 * Part 1 sweeps a uniform per-site failure probability across every
 * fault site (remote fetch, image/manifest corruption, I/O reconnect,
 * zygote build, template death, sfork) and reports p50/p99 boot latency
 * plus fallback and injection counts. Failures cost retries, backoff
 * and tier degradation, so the latency tail must grow monotonically
 * with the failure rate — the harness self-checks that.
 *
 * Part 2 scripts deterministic fault bursts to walk one request down
 * each edge of the fallback chain (sfork -> warm -> cold -> fresh) and
 * prints which tier served each request, verifying every degradation
 * edge fires at least once.
 *
 * Part 3 moves the faults onto the network: on a two-machine cluster
 * with the modeled fabric it kills the lending peer at the remote-sfork
 * handshake (degrade to the local chain) and mid-demand-pull (reroute
 * the pager to origin storage), flaps the link under a pull batch and
 * under an image stream, and advertises a replica that is gone by the
 * time it is asked (P2P miss falls back to origin). No scenario may let
 * an exception escape invoke(): every request is still served.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "catalyzer/runtime.h"
#include "net/remote_pager.h"
#include "platform/cluster.h"
#include "platform/platform.h"
#include "sandbox/pipelines.h"
#include "sim/table.h"

using namespace catalyzer;

namespace {

constexpr const char *kApps[] = {"python-hello", "c-nginx"};
constexpr int kRequestsPerApp = 200;

struct SweepRow
{
    double rate = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    std::int64_t fallbacks = 0;
    std::int64_t injected = 0;
    std::int64_t retries = 0;
};

SweepRow
runRate(double rate)
{
    sandbox::Machine machine(42);
    platform::PlatformConfig config;
    config.strategy = platform::BootStrategy::CatalyzerAuto;
    config.retainInstances = false; // every request boots
    core::CatalyzerOptions options;
    options.remoteImages = true;
    options.verifyImages = true;
    options.faults.setAllRates(rate);
    platform::ServerlessPlatform plat(machine, config, options);

    sim::LatencySeries boots;
    SweepRow row;
    row.rate = rate;
    for (const char *app : kApps) {
        plat.prepare(apps::appByName(app));
        for (int i = 0; i < kRequestsPerApp; ++i) {
            const platform::InvocationRecord record = plat.invoke(app);
            boots.add(record.bootLatency);
            row.fallbacks += record.tierFallbacks;
        }
    }
    row.p50Ms = boots.percentile(50.0);
    row.p99Ms = boots.percentile(99.0);

    auto &faults = plat.catalyzer().faults();
    auto &stats = machine.ctx().stats();
    for (std::size_t i = 0; i < faults::kFaultSiteCount; ++i) {
        const auto site = static_cast<faults::FaultSite>(i);
        row.injected +=
            static_cast<std::int64_t>(faults.injected(site));
        row.retries += stats.value(std::string("faults.retries.") +
                                   faults::faultSiteName(site));
    }
    return row;
}

/** Part 2: deterministically force each fallback edge once. */
bool
runScriptedChain()
{
    sandbox::Machine machine(42);
    platform::PlatformConfig config;
    config.strategy = platform::BootStrategy::CatalyzerAuto;
    config.retainInstances = false;
    core::CatalyzerOptions options;
    options.remoteImages = true;
    options.zygotePrewarm = 0; // zygote builds sit on the warm path
    platform::ServerlessPlatform plat(machine, config, options);
    const apps::AppProfile &app = apps::appByName("python-hello");
    plat.prepare(app);
    auto &faults = plat.catalyzer().faults();
    const auto burst = static_cast<std::uint64_t>(faults::kMaxAttempts);

    struct Step
    {
        const char *label;
        const char *app;
        faults::FaultSite site;
        const char *expectTier;
    };
    // The dead template stays dead until re-prepared, so each scenario
    // on the prepared app starts from the degraded entry tier it
    // expects; the fetch outage uses a never-booted app whose first
    // boot must enter at the cold tier and fetch from remote storage.
    const Step steps[] = {
        {"healthy", app.name.c_str(), faults::FaultSite::Sfork,
         "sfork"}, // no burst
        {"template dies", app.name.c_str(),
         faults::FaultSite::TemplateDeath, "warm"},
        {"zygote builds fail", app.name.c_str(),
         faults::FaultSite::ZygoteBuild, "cold"},
        {"image fetch outage", "c-nginx", faults::FaultSite::ImageFetch,
         "fresh"},
    };

    sim::TextTable table("Scripted fault bursts (one request each)");
    table.setHeader({"scenario", "tier served", "fallbacks",
                     "boot ms"});
    bool ok = true;
    for (const Step &step : steps) {
        if (std::string(step.label) != "healthy")
            faults.failNext(step.site, burst);
        const platform::InvocationRecord record = plat.invoke(step.app);
        table.addRow({step.label, record.tierServed,
                      std::to_string(record.tierFallbacks),
                      sim::fmtMs(record.bootLatency.toMs())});
        if (record.tierServed != step.expectTier)
            ok = false;
    }
    table.print();

    // Every degradation edge of the chain must have fired.
    auto &stats = machine.ctx().stats();
    for (const char *edge :
         {"boot.fallback.sfork_warm", "boot.fallback.warm_cold",
          "boot.fallback.cold_fresh"}) {
        if (stats.value(edge) <= 0) {
            std::fprintf(stderr, "FAIL: %s never fired\n", edge);
            ok = false;
        }
    }
    return ok;
}

/**
 * Part 3: network fault sites on a two-machine cluster. Machine 0 lends
 * its template and serves P2P image streams; machine 1 (the borrower)
 * takes every injected hit.
 */
bool
runNetworkFaults()
{
    net::FabricConfig fabric;
    fabric.modelTransfers = true;
    fabric.remoteFork = true;
    fabric.p2pImages = true;
    platform::Cluster cluster(
        2, platform::PlacementPolicy::RoundRobin,
        platform::PlatformConfig{platform::BootStrategy::CatalyzerAuto},
        {}, sim::CostModel{}, 42, fabric);
    const apps::AppProfile &app = apps::appByName("python-hello");
    cluster.deploy(app);
    cluster.platform(0).prepare(app);
    auto &borrower = cluster.platform(1);
    auto &faults = borrower.catalyzer().faults();
    auto &stats = cluster.machine(1).ctx().stats();

    sim::TextTable table(
        "Scripted network faults (borrower = machine 1)");
    table.setHeader({"scenario", "outcome", "check"});
    bool ok = true;
    auto row = [&](const char *label, const std::string &outcome,
                   bool good) {
        table.addRow({label, outcome, good ? "ok" : "FAIL"});
        ok = ok && good;
    };

    // Lender dies at the remote-sfork handshake: the borrower degrades
    // to its local chain and still serves the request.
    faults.failNext(faults::FaultSite::RemotePeerDeath);
    auto record = borrower.invoke(app.name);
    row("peer death at handshake",
        "served by " + record.tierServed + " tier",
        record.tierServed != "remote-sfork" &&
            stats.value("boot.fallback.remote-sfork_warm") == 1);
    borrower.teardown(app.name);

    // Healthy remote-sfork to get a borrowed instance whose lifetime
    // pager still owes most of the heap.
    record = borrower.invoke(app.name);
    if (record.tierServed != "remote-sfork") {
        std::fprintf(stderr, "FAIL: expected a remote-sfork boot, got "
                             "%s\n",
                     record.tierServed.c_str());
        return false;
    }
    auto instances = borrower.instancesOf(app.name);
    sandbox::SandboxInstance *inst = instances.front();
    const auto *pager = dynamic_cast<const net::RemotePager *>(
        inst->lifetimePager());
    const std::size_t half = inst->heapPages() / 2;

    // Link flap under a demand-pull batch: one attempt timeout, then
    // the retry succeeds against the same lender.
    faults.failNext(faults::FaultSite::NetLink);
    const auto pulls0 = stats.value("remote.page_pulls");
    inst->space().touchRange(inst->heapVa(), half, /*write=*/false);
    row("link flap during pull",
        std::to_string(stats.value("net.link_retries")) +
            " retry, still on the lender",
        stats.value("net.link_retries") == 1 && pager != nullptr &&
            pager->source() != net::kOriginStorage &&
            stats.value("remote.page_pulls") > pulls0);

    // Lender dies mid-pull: the pager reroutes the remaining window to
    // origin storage instead of throwing inside invoke().
    faults.failNext(faults::FaultSite::RemotePeerDeath);
    const auto lost0 = stats.value("remote.peer_lost");
    const auto pulls1 = stats.value("remote.page_pulls");
    inst->space().touchRange(inst->heapVa() + half, half,
                             /*write=*/false);
    row("peer death mid-pull", "pager rerouted to origin",
        stats.value("remote.peer_lost") == lost0 + 1 &&
            pager != nullptr &&
            pager->source() == net::kOriginStorage &&
            stats.value("remote.page_pulls") > pulls1);

    // P2P replica miss: the advertised copy is gone; the fetch drops
    // the stale advertisement and streams from origin.
    const apps::AppProfile &app2 = apps::appByName("c-nginx");
    cluster.deploy(app2);
    for (std::size_t i = 0; i < 2; ++i) {
        auto &plat = cluster.platform(i);
        auto image = sandbox::ensureSeparatedImage(
            plat.registry().artifactsFor(app2));
        plat.catalyzer().images().publish(image);
        plat.catalyzer().images().evictLocal(
            app2.name, snapshot::ImageFormat::SeparatedWellFormed);
    }
    cluster.platform(0).catalyzer().images().fetch(
        app2.name, snapshot::ImageFormat::SeparatedWellFormed);
    faults.failNext(faults::FaultSite::ReplicaMiss);
    auto fetched = borrower.catalyzer().images().fetch(
        app2.name, snapshot::ImageFormat::SeparatedWellFormed);
    row("replica miss on p2p fetch", "streamed from origin",
        fetched != nullptr &&
            stats.value("snapshot.replica_misses") == 1 &&
            stats.value("snapshot.p2p_fetches") == 0);

    // Link drop mid image stream: one chunk retry, the rest of the
    // stream rerouted to origin, fetch still all-or-nothing.
    borrower.catalyzer().images().evictLocal(
        app2.name, snapshot::ImageFormat::SeparatedWellFormed);
    faults.failNext(faults::FaultSite::NetLink);
    fetched = borrower.catalyzer().images().fetch(
        app2.name, snapshot::ImageFormat::SeparatedWellFormed);
    row("link drop mid image stream",
        std::to_string(stats.value("net.link_reroutes")) +
            " chunk rerouted",
        fetched != nullptr && stats.value("net.link_reroutes") == 1);

    table.print();
    return ok;
}

} // namespace

int
main()
{
    bench::banner("Fault matrix (extension)",
                  "Boot latency vs injected boot-path failure rate, and "
                  "the sfork -> warm -> cold -> fresh fallback chain.");

    const double rates[] = {0.0, 0.01, 0.05, 0.10, 0.20};
    std::vector<SweepRow> rows;
    for (double rate : rates)
        rows.push_back(runRate(rate));

    sim::TextTable table(
        std::string("Uniform failure rate at every fault site, ") +
        std::to_string(kRequestsPerApp) + " requests x 2 apps, "
        "Catalyzer-auto with remote verified images");
    table.setHeader({"rate", "boot p50", "boot p99", "fallbacks",
                     "injections", "retries"});
    char buf[32];
    for (const SweepRow &row : rows) {
        std::snprintf(buf, sizeof buf, "%.0f%%", row.rate * 100.0);
        table.addRow({buf, sim::fmtMs(row.p50Ms), sim::fmtMs(row.p99Ms),
                      std::to_string(row.fallbacks),
                      std::to_string(row.injected),
                      std::to_string(row.retries)});
    }
    table.print();
    std::printf("\n");

    bool ok = runScriptedChain();
    std::printf("\n");
    ok = runNetworkFaults() && ok;

    // Self-checks for CI smoke runs.
    if (rows.front().injected != 0 || rows.front().fallbacks != 0) {
        std::fprintf(stderr,
                     "FAIL: rate 0%% must inject nothing (pay-for-use)\n");
        ok = false;
    }
    if (rows.back().injected == 0) {
        std::fprintf(stderr, "FAIL: rate 20%% injected nothing\n");
        ok = false;
    }
    for (std::size_t i = 1; i < rows.size(); ++i) {
        if (rows[i].p99Ms + 1e-9 < rows[i - 1].p99Ms) {
            std::fprintf(stderr,
                         "FAIL: boot p99 not monotone: %.3f ms at "
                         "%.0f%% < %.3f ms at %.0f%%\n",
                         rows[i].p99Ms, rows[i].rate * 100.0,
                         rows[i - 1].p99Ms, rows[i - 1].rate * 100.0);
            ok = false;
        }
    }
    if (!ok)
        return 1;

    std::printf("\nboot p99 grows monotonically with the failure rate; "
                "every fallback edge fired;\nevery network fault "
                "degraded in place without failing the request.\n");
    bench::footer();
    return 0;
}
