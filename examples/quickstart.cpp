/**
 * @file
 * Quickstart: deploy one serverless function and boot it every way
 * Catalyzer knows — fresh gVisor boot, gVisor-restore, Catalyzer cold
 * restore, warm restore, and sfork fork boot — then handle a request
 * on each instance.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "catalyzer/runtime.h"
#include "sandbox/pipelines.h"
#include "sim/table.h"

using namespace catalyzer;

int
main()
{
    // One simulated machine: virtual clock + host kernel.
    sandbox::Machine machine(/*seed=*/42);
    sandbox::FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);

    // Pick a function from the catalog (a Python hello handler) and
    // materialize its artifacts: binary, rootfs, FS server.
    const apps::AppProfile &app = apps::appByName("python-hello");
    sandbox::FunctionArtifacts &fn = registry.artifactsFor(app);
    std::printf("deployed %s: %zu-page binary, %zu-page heap, %zu kernel "
                "objects, %zu connections\n\n",
                app.displayName.c_str(), app.binaryPages,
                app.heapPages(), app.kernelObjects, app.ioConnections);

    sim::TextTable table("Boot paths for " + app.displayName);
    table.setHeader({"path", "boot", "1st request", "2nd request"});

    auto add_row = [&table](const char *label,
                            sandbox::BootResult result) {
        auto &inst = *result.instance;
        const auto first = inst.invoke();
        const auto second = inst.invoke();
        table.addRow({label,
                      result.report.total().toString(),
                      first.toString(), second.toString()});
    };

    // The stock paths the paper compares against.
    add_row("gVisor (fresh boot)",
            sandbox::bootSandbox(sandbox::SandboxSystem::GVisor, fn));
    add_row("gVisor-restore (stock C/R)",
            sandbox::bootSandbox(sandbox::SandboxSystem::GVisorRestore,
                                 fn));

    // Catalyzer's init-less paths.
    add_row("Catalyzer cold restore", runtime.bootCold(fn));
    add_row("Catalyzer warm (Zygote)", runtime.bootWarm(fn));
    add_row("Catalyzer fork boot (sfork)", runtime.bootFork(fn));

    table.print();

    std::printf("\nstage breakdown of one warm boot:\n");
    const auto warm = runtime.bootWarm(fn);
    for (const trace::BootStage &stage : warm.report.stages())
        std::printf("  %-18s %s\n", stage.name.c_str(),
                    stage.time.toString().c_str());

    std::printf("\nvirtual time elapsed on this machine: %s\n",
                machine.ctx().now().toString().c_str());
    return 0;
}
