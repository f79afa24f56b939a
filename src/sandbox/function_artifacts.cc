#include "sandbox/function_artifacts.h"

#include <cstdio>

#include "sandbox/instance.h"
#include "sim/metric_catalog.h"

namespace catalyzer::sandbox {

FunctionArtifacts::FunctionArtifacts(Machine &machine,
                                     const apps::AppProfile &app)
    : invokeSpan(trace::Name::intern("invoke/" + app.name)),
      bootWindow(metrics::kWinBootMsFn.member(app.name)),
      machine_(machine), app_(app),
      request_log_path_("/var/log/" + app.name + ".request.log")
{
    binary_ = std::make_unique<mem::BackingFile>(
        machine.frames(), "/func/" + app.name + "/bin", app.binaryPages);

    // Merged rootfs: distribution base plus the app layer, including the
    // files the function's I/O connections will open.
    vfs::InodeTree rootfs = Machine::baseRootfs();
    vfs::InodeTree app_layer;
    app_layer.addDir("/app");
    const std::size_t per_file =
        app.rootfsBytes / std::max<std::size_t>(app.rootfsFiles, 1);
    for (std::size_t i = 0; i < app.rootfsFiles; ++i)
        app_layer.addFile(appFilePath(i), per_file);
    for (std::size_t i = 0; i < app.ioConnections; ++i)
        app_layer.addFile("/app/data/conn" + std::to_string(i), 8 << 10);
    rootfs.unionWith(app_layer);

    fs_server_ = std::make_unique<vfs::FsServer>(
        machine.ctx(), std::move(rootfs), app.name + "-gofer");
}

FunctionArtifacts::~FunctionArtifacts() = default;

std::string
FunctionArtifacts::appFilePath(std::size_t i) const
{
    return "/app/files/f" + std::to_string(i);
}

FunctionArtifacts &
FunctionRegistry::artifactsFor(const apps::AppProfile &app)
{
    auto it = functions_.find(app.name);
    if (it == functions_.end()) {
        it = functions_.emplace(
            app.name,
            std::make_unique<FunctionArtifacts>(machine_, app)).first;
    }
    return *it->second;
}

FunctionArtifacts *
FunctionRegistry::find(const std::string &function_name)
{
    auto it = functions_.find(function_name);
    return it == functions_.end() ? nullptr : it->second.get();
}

std::size_t
FunctionRegistry::templateBytes() const
{
    std::size_t bytes = 0;
    for (const auto &[name, fn] : functions_) {
        if (fn->templateSandbox)
            bytes += fn->templateSandbox->rssBytes();
    }
    return bytes;
}

} // namespace catalyzer::sandbox
