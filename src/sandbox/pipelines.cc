#include "sandbox/pipelines.h"

#include <algorithm>
#include <cmath>

#include "sandbox/compiler.h"

#include "sim/logging.h"
#include "sim/metric_catalog.h"
#include "snapshot/restore_baseline.h"

namespace catalyzer::sandbox {

const char *
sandboxSystemName(SandboxSystem system)
{
    switch (system) {
      case SandboxSystem::Native: return "Native";
      case SandboxSystem::Docker: return "Docker";
      case SandboxSystem::HyperContainer: return "HyperContainer";
      case SandboxSystem::FireCracker: return "FireCracker";
      case SandboxSystem::GVisor: return "gVisor";
      case SandboxSystem::GVisorPtrace: return "gVisor-ptrace";
      case SandboxSystem::GVisorRestore: return "gVisor-restore";
    }
    return "?";
}

std::unique_ptr<SandboxInstance>
makeBareInstance(FunctionArtifacts &fn, const char *tag)
{
    Machine &m = fn.machine();
    auto &proc = m.host().spawnProcess(fn.app().name + "-" + tag);
    auto inst = std::make_unique<SandboxInstance>(
        m, fn, fn.app().name + "-" + tag, proc);
    inst->setGuest(std::make_unique<guest::GuestKernel>(
        m.ctx(), inst->name() + "-kernel"));
    return inst;
}

namespace {

/** Names resolved once per sandbox system. */
struct SystemKeys
{
    /** boot.latency.<system> */
    sim::HistogramHandle latency;
    /** "boot/<system>": the fresh-boot root span. */
    trace::Name span;
};

const SystemKeys &
systemKeys(SandboxSystem system)
{
    static const std::vector<SystemKeys> keys = [] {
        std::vector<SystemKeys> out;
        for (int s = 0; s <= static_cast<int>(SandboxSystem::GVisorRestore);
             ++s) {
            const char *name =
                sandboxSystemName(static_cast<SandboxSystem>(s));
            std::string span = "boot/";
            span += name;
            out.push_back({metrics::kBootLatency.member(name),
                           trace::Name::intern(span)});
        }
        return out;
    }();
    return keys[static_cast<std::size_t>(system)];
}

/** Bring up the Sentry: the guest kernel, its mounts, the Go runtime and
 *  its own working memory. */
void
initSentry(SandboxInstance &inst)
{
    const auto &costs = inst.machine().ctx().costs();
    inst.guest().initializeFresh();
    inst.guest().mountRootfs(costs.guestMounts);
    inst.guest().startGoRuntime();
    const auto self_pages = static_cast<std::size_t>(costs.sentrySelfPages);
    const mem::PageIndex va =
        inst.space().mapAnon(self_pages, true, "sentry-self");
    inst.space().touchRange(va, self_pages, /*write=*/true);
}

} // namespace

void
constructGVisorSandbox(SandboxInstance &inst,
                       const hostos::KvmConfig &kvm_config,
                       trace::TraceContext trace)
{
    Machine &m = inst.machine();
    auto &ctx = m.ctx();
    const auto &costs = ctx.costs();

    {
        trace::ScopedSpan kvm_span(trace, "kvm-setup");
        kvm_span.attr("pml", kvm_config.pmlEnabled ? trace::Name("on")
                                                     : trace::Name("off"));
        hostos::KvmVm vm(ctx, kvm_config);
        vm.createVm();
        for (int i = 0; i < 4; ++i)
            vm.createVcpu();
        vm.setUserMemoryRegions(costs.kvmMemoryRegions);
    }

    trace::ScopedSpan sentry_span(trace, "sentry-init");
    initSentry(inst);
}

void
runApplicationInit(SandboxInstance &inst, trace::BootReport &report,
                   trace::TraceContext trace, double slowdown)
{
    Machine &m = inst.machine();
    auto &ctx = m.ctx();
    FunctionArtifacts &fn = inst.artifacts();
    const apps::AppProfile &app = fn.app();
    const bool cold = !fn.firstBootDone;

    mem::PageIndex binary_va = 0;
    {
        // Map and fault in the program text and libraries.
        auto stage = report.appStage(trace, "load-binary");
        binary_va = inst.space().mapFile(fn.binary(), 0, app.binaryPages,
                                         mem::MapKind::FilePrivate, false,
                                         "binary");
        inst.space().touchRange(binary_va, app.binaryPages,
                                /*write=*/false, cold);
    }
    {
        // Language runtime boot (JVM / CPython / V8 / loader).
        auto stage = report.appStage(trace, "runtime-boot");
        ctx.charge(app.runtimeBootCost * slowdown);
    }
    {
        // Class / module loading.
        auto stage = report.appStage(trace, "load-modules");
        ctx.charge(app.perModuleCost *
                   static_cast<std::int64_t>(app.modulesLoaded) * slowdown);
    }
    const std::size_t heap_pages = app.heapPages();
    mem::PageIndex heap_va = 0;
    {
        // Build the runtime + application heap.
        auto stage = report.appStage(trace, "build-heap");
        heap_va = inst.space().mapAnon(heap_pages, true, "heap");
        inst.space().touchRange(heap_va, heap_pages, /*write=*/true);
    }

    // Application-specific setup.
    auto stage = report.appStage(trace, "app-setup");
    ctx.charge(app.appSetupCost * slowdown);

    // Open the function's I/O connections.
    for (std::size_t i = 0; i < app.ioConnections; ++i) {
        vfs::ConnKind kind;
        std::string path;
        if (i % 20 == 19) {
            kind = vfs::ConnKind::LogFile;
            path = "/var/log/" + app.name + std::to_string(i) + ".log";
            fn.fsServer().grantLogFile(path);
            inst.guest().syscall("openat");
        } else if (i % 4 == 1) {
            kind = vfs::ConnKind::Socket;
            path = "tcp://backend:" + std::to_string(7000 + i);
            ctx.charge(ctx.costs().openSocket);
            inst.guest().syscall("getsockopt");
        } else {
            kind = vfs::ConnKind::File;
            path = "/app/data/conn" + std::to_string(i);
            vfs::FdEntry entry;
            if (!fn.fsServer().openReadOnly(path, &entry))
                sim::panic("app init: missing %s", path.c_str());
            inst.guest().syscall("openat");
        }
        const bool at_startup = i < static_cast<std::size_t>(std::ceil(
            static_cast<double>(app.ioConnections) *
            app.ioStartupFraction));
        inst.guest().io().add(kind, std::move(path), at_startup,
                              /*used_by_requests=*/i % 2 == 0);
    }

    // Kernel metadata created on the way (threads, timers, mounts...).
    inst.guest().setState(objgraph::ObjectGraph::synthesize(
        ctx.rng(), app.graphSpec()));
    if (inst.guest().threads().started()) {
        for (int i = 0; i < app.blockingThreads; ++i)
            inst.guest().threads().addBlockingThread();
    }
    inst.proc().setThreadCount(inst.guest().threads().totalThreads());

    // The wrapper reaches the func-entry point.
    inst.guest().reachFuncEntryPoint();

    inst.setMemoryLayout(binary_va, heap_va, heap_pages,
                         /*heap_on_base=*/false);
    fn.firstBootDone = true;
}

namespace {

/**
 * The runsc sandbox bring-up shared by the gVisor boots: parse the
 * config, start the sandbox process, create the kernel (on KVM, or on
 * ptrace with no KVM setup at all) and finish runc's bookkeeping.
 */
std::unique_ptr<SandboxInstance>
bootRunsc(SandboxSystem system, FunctionArtifacts &fn,
          trace::BootReport &report, trace::TraceContext trace)
{
    auto &ctx = fn.machine().ctx();
    const auto &costs = ctx.costs();
    const bool ptrace = system == SandboxSystem::GVisorPtrace;
    const bool restore = system == SandboxSystem::GVisorRestore;

    {
        auto stage = report.sandboxStage(trace, "parse-config");
        ctx.charge(costs.parseConfig);
    }
    std::unique_ptr<SandboxInstance> inst;
    {
        auto stage = report.sandboxStage(trace, "boot-sandbox-process");
        inst = makeBareInstance(
            fn, restore ? "gvr" : ptrace ? "gvpt" : "gvisor");
    }
    if (ptrace) {
        auto stage = report.sandboxStage(trace, "create-kernel");
        initSentry(*inst);
    } else {
        auto stage = report.sandboxStage(trace, "create-kernel-platform");
        constructGVisorSandbox(*inst, hostos::KvmConfig{}, stage.context());
    }
    auto stage = report.sandboxStage(trace, "runc-misc");
    ctx.charge(costs.gvisorRuncMisc);
    return inst;
}

/** Boot pipelines for the fresh-boot systems. */
BootResult
bootFresh(SandboxSystem system, FunctionArtifacts &fn,
          trace::TraceContext trace)
{
    Machine &m = fn.machine();
    auto &ctx = m.ctx();
    const auto &costs = ctx.costs();
    BootResult result;
    trace::BootReport &report = result.report;
    trace::ScopedSpan boot_span(trace, systemKeys(system).span);
    boot_span.attr("function", fn.app().name);
    const trace::TraceContext tctx = boot_span.context();
    report.start(ctx.clock());

    double app_factor = 1.0;
    switch (system) {
      case SandboxSystem::Native: {
        auto stage = report.sandboxStage(tctx, "spawn-process");
        result.instance = makeBareInstance(fn, "native");
        break;
      }
      case SandboxSystem::Docker: {
        auto stage = report.sandboxStage(tctx, "container-setup");
        ctx.charge(costs.parseConfig);
        result.instance = makeBareInstance(fn, "docker");
        ctx.charge(costs.dockerSetupFixed);
        app_factor = costs.dockerAppInitFactor;
        break;
      }
      case SandboxSystem::HyperContainer: {
        auto stage = report.sandboxStage(tctx, "hypervm-setup");
        ctx.charge(costs.parseConfig);
        result.instance = makeBareInstance(fn, "hyper");
        ctx.charge(costs.hyperSetupFixed);
        hostos::KvmVm vm(ctx, hostos::KvmConfig{});
        vm.createVm();
        vm.createVcpu();
        vm.setUserMemoryRegions(8);
        app_factor = costs.hyperAppInitFactor;
        break;
      }
      case SandboxSystem::FireCracker: {
        {
            auto stage = report.sandboxStage(tctx, "vmm-init");
            ctx.charge(costs.parseConfig);
            result.instance = makeBareInstance(fn, "fc");
            ctx.charge(costs.firecrackerVmmInit);
            hostos::KvmVm vm(ctx, hostos::KvmConfig{});
            vm.createVm();
            vm.createVcpu();
            vm.setUserMemoryRegions(6);
        }
        auto stage = report.sandboxStage(tctx, "guest-kernel-boot");
        ctx.charge(costs.firecrackerKernelBoot);
        app_factor = costs.firecrackerAppInitFactor;
        break;
      }
      case SandboxSystem::GVisor:
        result.instance = bootRunsc(system, fn, report, tctx);
        app_factor = costs.gvisorAppInitFactor;
        break;
      case SandboxSystem::GVisorPtrace:
        // The ptrace platform skips all KVM setup but pays heavier
        // syscall interception during application init.
        result.instance = bootRunsc(system, fn, report, tctx);
        app_factor = costs.gvisorPtraceAppInitFactor;
        break;
      case SandboxSystem::GVisorRestore:
        sim::panic("bootFresh called for GVisorRestore");
    }

    runApplicationInit(*result.instance, report, tctx, app_factor);
    result.instance->setBootLatency(report.total());
    return result;
}

BootResult
bootGVisorRestoreImpl(FunctionArtifacts &fn, trace::TraceContext trace)
{
    auto &ctx = fn.machine().ctx();

    // Offline: make sure the compressed checkpoint exists.
    auto image = ensureProtoImage(fn);

    BootResult result;
    trace::BootReport &report = result.report;
    trace::ScopedSpan boot_span(trace, "boot/gVisor-restore");
    boot_span.attr("function", fn.app().name);
    const trace::TraceContext tctx = boot_span.context();
    report.start(ctx.clock());
    std::unique_ptr<SandboxInstance> inst =
        bootRunsc(SandboxSystem::GVisorRestore, fn, report, tctx);

    snapshot::EagerRestoreEngine engine(ctx);
    const mem::PageIndex heap_va = engine.restore(
        *image, inst->guest(), inst->space(), &fn.fsServer(), report, tctx);

    inst->setMemoryLayout(0, heap_va, image->state().memoryPages,
                          /*heap_on_base=*/false);
    inst->proc().setThreadCount(inst->guest().threads().totalThreads());
    inst->setBootLatency(report.total());
    result.instance = std::move(inst);
    return result;
}

} // namespace

BootResult
bootSandbox(SandboxSystem system, FunctionArtifacts &fn,
            trace::TraceContext trace)
{
    BootResult result = system == SandboxSystem::GVisorRestore
                            ? bootGVisorRestoreImpl(fn, trace)
                            : bootFresh(system, fn, trace);
    fn.machine().ctx().stats().observe(
        systemKeys(system).latency, result.report.total());
    sim::debugLog("boot %s/%s: %.3f ms", sandboxSystemName(system),
                  fn.app().name.c_str(), result.report.total().toMs());
    return result;
}

std::shared_ptr<snapshot::FuncImage>
ensureProtoImage(FunctionArtifacts &fn)
{
    if (fn.protoImage)
        return fn.protoImage;
    // Offline: run the Sec. 5 compilation pipeline with the stock
    // compressed codec.
    FuncImageCompiler compiler(fn.machine());
    return compiler.compile(fn, snapshot::ImageFormat::CompressedProto);
}

std::shared_ptr<snapshot::FuncImage>
ensureSeparatedImage(FunctionArtifacts &fn)
{
    if (fn.separatedImage)
        return fn.separatedImage;
    FuncImageCompiler compiler(fn.machine());
    return compiler.compile(fn,
                            snapshot::ImageFormat::SeparatedWellFormed);
}

} // namespace catalyzer::sandbox
