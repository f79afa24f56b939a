/**
 * @file
 * Reproduction scorecard: every quantitative anchor the paper states in
 * prose, measured on this build and graded. PASS means within the
 * stated band (or within 2x for absolute latencies, since our substrate
 * is a calibrated simulation); CLOSE means within 3x; DEVIATES
 * otherwise. The binary exits non-zero if any anchor DEVIATES, so it
 * can gate CI.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "catalyzer/runtime.h"
#include "platform/platform.h"
#include "sandbox/pipelines.h"
#include "sim/table.h"

using namespace catalyzer;

namespace {

struct Anchor
{
    std::string claim;
    double paper;
    double measured;
    /** Acceptable ratio band around the paper value. */
    double band;
};

std::vector<Anchor> anchors;

void
check(std::string claim, double paper, double measured, double band = 2.0)
{
    anchors.push_back(Anchor{std::move(claim), paper, measured, band});
}

const char *
grade(const Anchor &anchor)
{
    const double ratio =
        anchor.measured > anchor.paper
            ? anchor.measured / anchor.paper
            : anchor.paper / std::max(anchor.measured, 1e-9);
    if (ratio <= anchor.band)
        return "PASS";
    if (ratio <= anchor.band * 1.5)
        return "CLOSE";
    return "DEVIATES";
}

double
bootMs(sandbox::SandboxSystem system, const char *app)
{
    sandbox::Machine machine(42);
    sandbox::FunctionRegistry registry(machine);
    return sandbox::bootSandbox(system,
                                registry.artifactsFor(
                                    apps::appByName(app)))
        .report.total()
        .toMs();
}

} // namespace

int
main()
{
    const auto wall_start = std::chrono::steady_clock::now();
    bench::banner("Scorecard",
                  "Every prose anchor of the paper, measured and "
                  "graded.");

    //
    // Sec. 2.2: startup facts.
    //
    check("gVisor C startup (ms)", 142.0,
          bootMs(sandbox::SandboxSystem::GVisor, "c-hello"), 1.3);
    check("gVisor-restore SPECjbb (ms)", 400.0,
          bootMs(sandbox::SandboxSystem::GVisorRestore, "java-specjbb"),
          1.3);

    {
        sandbox::Machine machine(42);
        sandbox::FunctionRegistry registry(machine);
        auto &fn = registry.artifactsFor(apps::appByName("java-specjbb"));
        const auto restore = sandbox::bootSandbox(
            sandbox::SandboxSystem::GVisorRestore, fn);
        double app_mem = 0, kernel = 0, io = 0;
        for (const trace::BootStage &stage : restore.report.stages()) {
            if (stage.name == "restore-app-memory")
                app_mem = stage.time.toMs();
            if (stage.name == "restore-kernel")
                kernel = stage.time.toMs();
            if (stage.name == "restore-reconnect-io")
                io = stage.time.toMs();
        }
        check("Fig.2 load app memory (ms)", 128.805, app_mem, 1.3);
        check("Fig.2 recover kernel (ms)", 79.180, kernel, 1.3);
        check("Fig.2 reconnect I/O (ms)", 56.723, io, 1.3);
        check("SPECjbb kernel objects", 37838.0,
              static_cast<double>(
                  restore.instance->guest().state().objectCount()),
              1.001);
    }

    //
    // Sec. 6.2: Catalyzer startup.
    //
    {
        sandbox::Machine machine(42);
        sandbox::FunctionRegistry registry(machine);
        core::CatalyzerRuntime runtime(machine);
        check("C-hello sfork boot (ms)", 0.97,
              runtime.bootFork(registry.artifactsFor(
                                   apps::appByName("c-hello")))
                  .report.total().toMs());
        check("Java sfork boot <2ms", 1.75,
              runtime.bootFork(registry.artifactsFor(
                                   apps::appByName("java-specjbb")))
                  .report.total().toMs());
        check("Zygote warm boot, Java-hello (ms)", 14.0,
              runtime.bootWarm(registry.artifactsFor(
                                   apps::appByName("java-hello")))
                  .report.total().toMs());
        check("Zygote warm boot, Python-hello (ms)", 9.0,
              runtime.bootWarm(registry.artifactsFor(
                                   apps::appByName("python-hello")))
                  .report.total().toMs());
    }

    //
    // Table 2.
    //
    check("Native Java cold boot (ms)", 89.4,
          bootMs(sandbox::SandboxSystem::Native, "java-hello"));
    check("gVisor Java cold boot (ms)", 659.1,
          bootMs(sandbox::SandboxSystem::GVisor, "java-hello"), 1.4);
    {
        sandbox::Machine machine(42);
        sandbox::FunctionRegistry registry(machine);
        core::CatalyzerRuntime runtime(machine);
        check("Java template cold boot (ms)", 29.3,
              runtime
                  .bootFromLanguageTemplate(registry.artifactsFor(
                      apps::appByName("java-hello")))
                  .report.total().toMs());
    }

    //
    // Fig. 12 ratios.
    //
    {
        auto kernel_phase = [](bool separated) {
            sandbox::Machine machine(42);
            sandbox::FunctionRegistry registry(machine);
            core::CatalyzerOptions options;
            options.separatedState = separated;
            core::CatalyzerRuntime runtime(machine, options);
            const auto boot = runtime.bootCold(registry.artifactsFor(
                apps::appByName("java-specjbb")));
            for (const trace::BootStage &stage : boot.report.stages()) {
                if (stage.name == "recover-kernel")
                    return stage.time.toMs();
            }
            return 0.0;
        };
        check("separated-state kernel speedup (x)", 7.0,
              kernel_phase(false) / kernel_phase(true), 1.3);
    }

    //
    // Fig. 16 host numbers.
    //
    {
        sim::SimContext stock(42), tuned(42);
        hostos::KvmVm a(stock, hostos::KvmConfig{true, false});
        hostos::KvmVm b(tuned, hostos::KvmConfig{true, true});
        a.createVm();
        b.createVm();
        const double saved =
            stock.now().toMs() - tuned.now().toMs();
        check("kvcalloc cache saving (ms)", 1.6, saved, 1.3);

        sim::SimContext on(42), off(42);
        hostos::KvmVm pml_on(on, hostos::KvmConfig{true, false});
        hostos::KvmVm pml_off(off, hostos::KvmConfig{false, false});
        pml_on.createVm();
        pml_off.createVm();
        for (int i = 0; i < 4; ++i) { // a sandbox's VCPU count
            pml_on.createVcpu();
            pml_off.createVcpu();
        }
        const auto t0 = on.now();
        const auto t1 = off.now();
        for (int i = 0; i < 11; ++i) {
            pml_on.setUserMemoryRegion();
            pml_off.setUserMemoryRegion();
        }
        check("PML disable saving (ms, 5-8 paper)", 6.5,
              (on.now() - t0).toMs() - (off.now() - t1).toMs(), 1.5);
    }

    //
    // Fig. 1 shape.
    //
    {
        double worst = 0.0;
        for (const apps::AppProfile *app : apps::endToEndApps()) {
            sandbox::Machine machine(42);
            platform::ServerlessPlatform plat(
                machine,
                platform::PlatformConfig{platform::BootStrategy::GVisor});
            plat.deploy(*app);
            const auto rec = plat.invoke(app->name);
            worst = std::max(worst, rec.execLatency.toMs() /
                                        rec.endToEnd().toMs());
        }
        check("gVisor max exec/overall ratio (%)", 65.54, 100.0 * worst,
              1.3);
    }

    //
    // Extension: working-set prefetch (REAP line of work). The recorded
    // restore trace should cover nearly all pages a later cold restore
    // touches before its first response (REAP reports ~97% of the
    // working set captured after one record).
    //
    {
        sandbox::Machine machine(42);
        sandbox::FunctionRegistry registry(machine);
        core::CatalyzerOptions options;
        options.prefetchWorkingSet = true;
        core::CatalyzerRuntime runtime(machine, options);
        auto &fn = registry.artifactsFor(apps::appByName("python-hello"));
        auto recorded = runtime.bootCold(fn);
        recorded.instance->invoke();
        recorded.instance.reset();
        fn.sharedBase.reset();
        fn.separatedImage->file().evict();
        fn.firstRestoreDone = false;
        auto prefetched = runtime.bootCold(fn);
        prefetched.instance->invoke();
        prefetched.instance.reset();
        const auto *rate = machine.ctx().stats().findHistogram(
            "prefetch.manifest_hit_rate");
        check("prefetch working-set hit rate (%)", 97.0,
              rate ? 100.0 * rate->mean() : 0.0, 1.1);
        check("prefetch wasted pages (of ~1.5k set)", 0.0,
              static_cast<double>(machine.ctx().stats().value(
                  "prefetch.wasted_pages")),
              5.0);
    }

    //
    // Render.
    //
    sim::TextTable table("Anchor scorecard");
    table.setHeader({"claim", "paper", "measured", "grade"});
    int deviations = 0;
    for (const Anchor &anchor : anchors) {
        char paper[32], measured[32];
        std::snprintf(paper, sizeof(paper), "%.2f", anchor.paper);
        std::snprintf(measured, sizeof(measured), "%.2f",
                      anchor.measured);
        const char *g = grade(anchor);
        if (std::string(g) == "DEVIATES")
            ++deviations;
        table.addRow({anchor.claim, paper, measured, g});
    }
    table.print();
    std::printf("\n%zu anchors, %d deviations\n", anchors.size(),
                deviations);
    bench::footer();

    // Simulator wall-clock cost (host time, not virtual time): how
    // long the whole scorecard took.
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    std::printf("\nwall-clock: %.2f s total\n", wall_s);
    return deviations == 0 ? 0 : 1;
}
