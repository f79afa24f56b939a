/**
 * @file
 * Figure 12: cold-boot improvement breakdown on gVisor — starting from
 * the gVisor-restore baseline, then adding overlay memory, separated
 * state loading and lazy I/O reconnection, for Python Django and Java
 * SPECjbb.
 *
 * Paper anchors: overlay memory saves 261 ms on SPECjbb; separated
 * loading cuts kernel recovery 6.3x (Django) / 7.0x (SPECjbb); lazy
 * reconnection removes >57 ms (≈18x) of I/O work.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "catalyzer/runtime.h"
#include "sandbox/pipelines.h"
#include "sim/table.h"

using namespace catalyzer;

namespace {

struct Phases
{
    double memory = 0;
    double kernel = 0;
    double io = 0;
    double total = 0;
};

/** Cold-boot phase latencies under a given feature set. */
Phases
coldBoot(const char *app_name, bool overlay, bool separated, bool lazy)
{
    sandbox::Machine machine(42);
    sandbox::FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.overlayMemory = overlay;
    options.separatedState = separated;
    options.lazyIoReconnection = lazy;
    core::CatalyzerRuntime runtime(machine, options);

    auto &fn = registry.artifactsFor(apps::appByName(app_name));
    const auto boot = runtime.bootCold(fn);
    Phases phases;
    for (const trace::BootStage &stage : boot.report.stages()) {
        if (stage.name == "map-image" || stage.name == "share-mapping")
            phases.memory += stage.time.toMs();
        else if (stage.name == "recover-kernel")
            phases.kernel += stage.time.toMs();
        else if (stage.name == "reconnect-io")
            phases.io += stage.time.toMs();
    }
    phases.total = boot.report.total().toMs();
    return phases;
}

/** gVisor-restore per-phase baseline. */
Phases
baseline(const char *app_name)
{
    sandbox::Machine machine(42);
    sandbox::FunctionRegistry registry(machine);
    auto &fn = registry.artifactsFor(apps::appByName(app_name));
    const auto boot =
        sandbox::bootSandbox(sandbox::SandboxSystem::GVisorRestore, fn);
    Phases phases;
    for (const trace::BootStage &stage : boot.report.stages()) {
        if (stage.name == "restore-app-memory")
            phases.memory += stage.time.toMs();
        else if (stage.name == "restore-kernel")
            phases.kernel += stage.time.toMs();
        else if (stage.name == "restore-reconnect-io")
            phases.io += stage.time.toMs();
    }
    phases.total = boot.report.total().toMs();
    return phases;
}

void
printApp(const char *app_name)
{
    const Phases rows[] = {
        baseline(app_name),
        coldBoot(app_name, true, false, false), // +OverlayMem
        coldBoot(app_name, true, true, false),  // +SeparatedLoad
        coldBoot(app_name, true, true, true),   // +LazyReconnection
    };
    const char *labels[] = {"Baseline (gVisor-restore)", "OverlayMem",
                            "+SeparatedLoad", "+LazyReconnection"};

    sim::TextTable table(std::string("Cold boot phases (ms) — ") +
                         apps::appByName(app_name).displayName);
    table.setHeader({"configuration", "Memory", "Kernel", "I/O",
                     "total"});
    for (int i = 0; i < 4; ++i) {
        table.addRow({labels[i], sim::fmtMs(rows[i].memory),
                      sim::fmtMs(rows[i].kernel), sim::fmtMs(rows[i].io),
                      sim::fmtMs(rows[i].total)});
    }
    table.print();
    std::printf("kernel-load reduction (separated vs one-by-one): %s\n",
                sim::fmtSpeedup(rows[1].kernel / rows[2].kernel).c_str());
    std::printf("I/O reduction (lazy vs eager): %s\n\n",
                sim::fmtSpeedup(rows[2].io /
                                std::max(rows[3].io, 1e-3)).c_str());
}

} // namespace

int
main()
{
    bench::banner("Figure 12",
                  "Improvement breakdown of Catalyzer cold boot on "
                  "gVisor (Django, SPECjbb).");
    printApp("python-django");
    printApp("java-specjbb");
    std::printf("paper anchors: overlay memory -261 ms on SPECjbb; "
                "separated load 6.3x/7.0x;\nlazy reconnection >57 ms "
                "(~18x).\n");
    bench::footer();
    return 0;
}
