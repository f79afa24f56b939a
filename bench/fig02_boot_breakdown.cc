/**
 * @file
 * Figure 2: stage-by-stage boot latency of gVisor for Java SPECjbb —
 * the fresh-boot path and the restore (gVisor-restore) path.
 *
 * Paper anchors: RPC 1.369 ms, parse 0.319 ms, boot sandbox process
 * 0.757 ms, create/init kernel+platform 19.889 ms, JVM + class loading
 * 1850 ms; restore path: load app memory 128.805 ms, recover kernel
 * 79.180 ms, reconnect I/O 56.723 ms.
 */

#include <cstdio>
#include <map>

#include "bench_util.h"
#include "sandbox/pipelines.h"
#include "sim/table.h"

using namespace catalyzer;

namespace {

void
printPath(const char *title, const trace::BootReport &report,
          const std::map<std::string, double> &paper)
{
    sim::TextTable table(title);
    table.setHeader({"stage", "measured (ms)", "paper (ms)"});
    // The gateway RPC precedes every boot (Fig. 2 includes it).
    table.addRow({"send-rpc", "1.369", "1.369"});
    for (const trace::BootStage &stage : report.stages()) {
        auto it = paper.find(stage.name);
        table.addRow({stage.name, sim::fmtMs(stage.time.toMs()),
                      it == paper.end() ? "-" : sim::fmtMs(it->second)});
    }
    table.addSeparator();
    table.addRow({"total (excl. rpc)", sim::fmtMs(report.total().toMs()),
                  "-"});
    table.print();
    std::printf("\n");
}

} // namespace

int
main()
{
    bench::banner("Figure 2",
                  "Boot process of gVisor for Java SPECjbb: fresh boot "
                  "vs restore path.");

    sandbox::Machine machine(42);
    sandbox::FunctionRegistry registry(machine);
    auto &fn = registry.artifactsFor(apps::appByName("java-specjbb"));

    const auto fresh =
        sandbox::bootSandbox(sandbox::SandboxSystem::GVisor, fn);
    printPath("Boot path (gVisor)", fresh.report,
              {{"parse-config", 0.319},
               {"boot-sandbox-process", 0.757},
               {"create-kernel-platform", 19.889},
               {"load-modules", 1850.0}});

    const auto restore =
        sandbox::bootSandbox(sandbox::SandboxSystem::GVisorRestore, fn);
    printPath("Restore path (gVisor-restore)", restore.report,
              {{"parse-config", 0.319},
               {"boot-sandbox-process", 0.757},
               {"create-kernel-platform", 19.889},
               {"restore-app-memory", 128.805},
               {"restore-kernel", 79.180},
               {"restore-reconnect-io", 56.723}});

    std::printf("guest kernel recovery (recover + reconnect): paper "
                "135.9 ms\n");
    std::printf("objects recovered for SPECjbb: %zu (paper: 37,838)\n",
                restore.instance->guest().state().objectCount());
    bench::footer();
    return 0;
}
