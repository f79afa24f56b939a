/**
 * @file
 * Boot pipelines for the compared sandbox systems (paper Sec. 2 / 6.2):
 * Docker, HyperContainer, FireCracker, stock gVisor, gVisor-restore
 * (the C/R baseline), and a native process (Table 2's baseline).
 *
 * Catalyzer's own boot paths (cold/warm on-demand restore, fork boot)
 * live in src/catalyzer/.
 */

#ifndef CATALYZER_SANDBOX_PIPELINES_H
#define CATALYZER_SANDBOX_PIPELINES_H

#include <memory>

#include "hostos/kvm.h"
#include "sandbox/function_artifacts.h"
#include "sandbox/instance.h"
#include "trace/boot_report.h"

namespace catalyzer::sandbox {

/** The systems compared against Catalyzer. */
enum class SandboxSystem
{
    Native,
    Docker,
    HyperContainer,
    FireCracker,
    GVisor,
    /** gVisor on the ptrace platform (no hardware virtualization). */
    GVisorPtrace,
    GVisorRestore,
};

const char *sandboxSystemName(SandboxSystem system);

/** Result of one boot. */
struct BootResult
{
    std::unique_ptr<SandboxInstance> instance;
    trace::BootReport report;
};

/**
 * Boot one instance of @p fn under @p system. For GVisorRestore the
 * func-image is built offline on first use (including one throwaway
 * fresh boot to capture the state); that preparation is not part of the
 * report.
 *
 * With an enabled @p trace the boot emits a "boot/<system>" span whose
 * phase-tagged children are the report's stages, and the boot latency
 * is observed into the machine's "boot.latency.<system>" histogram
 * either way.
 */
BootResult bootSandbox(SandboxSystem system, FunctionArtifacts &fn,
                       trace::TraceContext trace = {});

/**
 * Shared application-initialization phase: map and fault the binary,
 * boot the language runtime, load classes/modules, build the heap, open
 * the function's I/O connections and synthesize its kernel state. Books
 * one app-init stage per step, their spans under @p trace.
 *
 * @param slowdown  per-system app-init factor (CostModel).
 */
void runApplicationInit(SandboxInstance &inst, trace::BootReport &report,
                        trace::TraceContext trace, double slowdown);

/**
 * Build (once) the stock compressed func-image for @p fn by booting a
 * throwaway instance to its entry point and checkpointing it.
 */
std::shared_ptr<snapshot::FuncImage>
ensureProtoImage(FunctionArtifacts &fn);

/**
 * Build (once) the Catalyzer well-formed func-image for @p fn.
 */
std::shared_ptr<snapshot::FuncImage>
ensureSeparatedImage(FunctionArtifacts &fn);

/**
 * Create a bare instance (spawned sandbox process + empty guest kernel).
 * Exposed for the Catalyzer boot paths.
 */
std::unique_ptr<SandboxInstance>
makeBareInstance(FunctionArtifacts &fn, const char *tag);

/**
 * gVisor's "create and initialize kernel/platform" step: KVM VM + VCPUs
 * + memory regions, Sentry structures, guest mounts and the Go runtime.
 * Exposed so Catalyzer's Zygote construction can reuse it with its own
 * KVM configuration (PML off, kvcalloc cache on). Emits "kvm-setup" and
 * "sentry-init" child spans under @p trace.
 */
void constructGVisorSandbox(SandboxInstance &inst,
                            const hostos::KvmConfig &kvm_config,
                            trace::TraceContext trace = {});

} // namespace catalyzer::sandbox

#endif // CATALYZER_SANDBOX_PIPELINES_H
