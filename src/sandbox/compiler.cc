#include "sandbox/compiler.h"

#include "sandbox/pipelines.h"
#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::sandbox {

std::shared_ptr<snapshot::FuncImage>
FuncImageCompiler::compile(FunctionArtifacts &fn,
                           snapshot::ImageFormat format,
                           FuncEntryConfig entry)
{
    if (entry.prepFraction < 0.0 || entry.prepFraction >= 1.0)
        sim::fatal("FuncImageCompiler: prepFraction %f out of [0,1)",
                   entry.prepFraction);

    // Steps 1-3: the wrapper (with the annotation translated into the
    // Gen-Func-Image syscall) runs inside a sandbox until it traps at
    // the func-entry point. runApplicationInit ends exactly there.
    BootResult boot = bootSandbox(SandboxSystem::GVisor, fn);
    SandboxInstance &inst = *boot.instance;
    if (!inst.guest().atFuncEntryPoint())
        sim::panic("FuncImageCompiler: wrapper did not reach the "
                   "func-entry point");

    // A moved entry point executes part of the handler's preparation
    // (optionally trained with user requests) before the trap.
    if (entry.prepFraction > 0.0) {
        inst.setPrepFraction(entry.prepFraction);
        for (int i = 0; i < entry.trainingRequests; ++i)
            inst.invoke();
        inst.pretouchWorkingSet();
    }

    // Step 4: save memory, system metadata and I/O information.
    snapshot::GuestState state = inst.captureState();
    state.warmedPrepFraction = entry.prepFraction;
    snapshot::CheckpointEngine engine(machine_.ctx());
    auto image = engine.capture(machine_.frames(), fn.app().name, format,
                                std::move(state));
    if (format == snapshot::ImageFormat::CompressedProto)
        fn.protoImage = image;
    else
        fn.separatedImage = image;
    machine_.ctx().stats().incr(metrics::kSnapshotImagesCompiled);
    return image;
}

} // namespace catalyzer::sandbox
