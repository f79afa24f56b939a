/**
 * @file
 * Per-function shared artifacts: binary, rootfs, FS server, func-images,
 * warm-boot base mapping, the I/O cache and the template sandbox.
 *
 * These are shared by every instance of a function on a machine — the
 * page cache behind the binary and func-image is what makes second boots
 * warm, and the BaseMapping is Catalyzer's shared Base-EPT. They are the
 * one per-machine record of a function: the platform resolves a name to
 * them once per request, and everything after that reads them.
 */

#ifndef CATALYZER_SANDBOX_FUNCTION_ARTIFACTS_H
#define CATALYZER_SANDBOX_FUNCTION_ARTIFACTS_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_profile.h"
#include "mem/backing_file.h"
#include "mem/base_mapping.h"
#include "prefetch/working_set_manifest.h"
#include "sandbox/machine.h"
#include "sim/stats.h"
#include "snapshot/func_image.h"
#include "trace/trace.h"
#include "vfs/fs_server.h"
#include "vfs/io_connection.h"

namespace catalyzer::sandbox {

class SandboxInstance;

/** Shared, per-function state on one machine. */
class FunctionArtifacts
{
  public:
    FunctionArtifacts(Machine &machine, const apps::AppProfile &app);
    ~FunctionArtifacts();

    const apps::AppProfile &app() const { return app_; }
    mem::BackingFile &binary() { return *binary_; }
    vfs::FsServer &fsServer() { return *fs_server_; }

    /** Path of the i-th app-layer file (I/O connection targets). */
    std::string appFilePath(std::size_t i) const;

    /** The overlay file every request appends its log line to. */
    const std::string &requestLogPath() const { return request_log_path_; }

    /** "invoke/<fn>": the root span of each request to this function. */
    const trace::Name invokeSpan;
    /** win.boot_ms.fn.<fn>: boot latency of each request, windowed. */
    const sim::WindowedHandle bootWindow;

    /** Stock compressed checkpoint (gVisor-restore), built on demand. */
    std::shared_ptr<snapshot::FuncImage> protoImage;
    /** Catalyzer well-formed func-image, built on demand. */
    std::shared_ptr<snapshot::FuncImage> separatedImage;

    /** Shared Base-EPT over the separated image's memory section. */
    std::shared_ptr<mem::BaseMapping> sharedBase;

    /**
     * Remote-sfork state (MITOSIS-style, src/remote/): a local mirror
     * of the *lender machine's* func-image, filled lazily by on-demand
     * network page pulls, and the Base-EPT over it shared by every
     * borrowed instance on this machine. Bound to the lender image's
     * generation; a generation change invalidates both.
     */
    std::unique_ptr<mem::BackingFile> remoteMirror;
    std::shared_ptr<mem::BaseMapping> remoteBase;
    std::uint64_t remoteGeneration = 0;

    /**
     * Catalyzer's I/O cache: connection descriptors observed to be used
     * right after boot (recorded by the first cold boot, Sec. 3.3).
     */
    std::vector<vfs::IoConnection> ioCache;

    /**
     * Working-set manifest for REAP-style prefetch: the merged restore
     * fault traces of this function, bound to the func-image generation
     * they were recorded against (null until the first restore records
     * one). Its only home: remote-fork borrowers receive it by pointer.
     */
    std::shared_ptr<prefetch::WorkingSetManifest> workingSet;

    /** Page-cache warmth: false until something booted this function. */
    bool firstBootDone = false;
    /** False until the func-image was restored once on this machine. */
    bool firstRestoreDone = false;

    Machine &machine() { return machine_; }

  private:
    Machine &machine_;
    const apps::AppProfile &app_;
    std::unique_ptr<mem::BackingFile> binary_;
    std::unique_ptr<vfs::FsServer> fs_server_;
    std::string request_log_path_;

  public:
    /**
     * The function's template sandbox, the parent of every sfork boot
     * (Sec. 4.2): built offline by CatalyzerRuntime, null until then and
     * after it is dropped or dies. Declared last so that it is destroyed
     * first: its process maps the binary, rootfs and Base-EPT above.
     */
    std::unique_ptr<SandboxInstance> templateSandbox;
};

/** Registry of per-function artifacts on one machine. */
class FunctionRegistry
{
  public:
    explicit FunctionRegistry(Machine &machine) : machine_(machine) {}

    /** Get (building on first use) the artifacts for @p app. */
    FunctionArtifacts &artifactsFor(const apps::AppProfile &app);

    /** Look up deployed artifacts by name; nullptr if unknown. */
    FunctionArtifacts *find(const std::string &function_name);

    std::size_t size() const { return functions_.size(); }

    /** Resident memory of every template sandbox in the registry. */
    std::size_t templateBytes() const;

  private:
    Machine &machine_;
    std::map<std::string, std::unique_ptr<FunctionArtifacts>> functions_;
};

} // namespace catalyzer::sandbox

#endif // CATALYZER_SANDBOX_FUNCTION_ARTIFACTS_H
