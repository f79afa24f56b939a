#include "snapshot/func_image.h"

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::snapshot {

const char *
imageFormatName(ImageFormat format)
{
    switch (format) {
      case ImageFormat::CompressedProto: return "compressed-proto";
      case ImageFormat::SeparatedWellFormed: return "separated-well-formed";
    }
    return "?";
}

FuncImage::FuncImage(mem::FrameStore &frames, std::string function_name,
                     ImageFormat format, GuestState state)
    : function_name_(std::move(function_name)), format_(format),
      state_(std::move(state))
{
    if (!state_.app)
        sim::panic("FuncImage: null app profile");

    std::size_t file_pages = 0;
    if (format_ == ImageFormat::CompressedProto) {
        proto_ = std::make_unique<objgraph::ProtoImage>(
            objgraph::ProtoImage::build(state_.kernelGraph));
        // Memory is compressed alongside the metadata stream.
        memory_start_ = 0;
        memory_pages_ = static_cast<std::size_t>(
            static_cast<double>(state_.memoryPages) *
            objgraph::ProtoImage::kCompressionRatio) + 1;
        metadata_start_ = memory_pages_;
        metadata_pages_ =
            mem::pagesForBytes(proto_->compressedBytes()) + 1;
        file_pages = memory_pages_ + metadata_pages_;
    } else {
        separated_ = std::make_unique<objgraph::SeparatedImage>(
            objgraph::SeparatedImage::build(state_.kernelGraph));
        // Page-aligned, uncompressed memory for direct mapping.
        memory_start_ = 0;
        memory_pages_ = state_.memoryPages;
        metadata_start_ = memory_pages_;
        metadata_pages_ = separated_->arenaPages() +
                          mem::pagesForBytes(
                              separated_->relocTableBytes()) + 1;
        file_pages = memory_pages_ + metadata_pages_;
    }
    // Manifest page at the end.
    file_pages += 1;
    file_ = std::make_unique<mem::BackingFile>(
        frames, function_name_ + ".img", file_pages);
}

const objgraph::ProtoImage &
FuncImage::proto() const
{
    if (!proto_)
        sim::panic("FuncImage %s: no proto payload (format %s)",
                   function_name_.c_str(), imageFormatName(format_));
    return *proto_;
}

const objgraph::SeparatedImage &
FuncImage::separated() const
{
    if (!separated_)
        sim::panic("FuncImage %s: no separated payload (format %s)",
                   function_name_.c_str(), imageFormatName(format_));
    return *separated_;
}

std::shared_ptr<FuncImage>
CheckpointEngine::capture(mem::FrameStore &frames,
                          const std::string &function_name,
                          ImageFormat format, GuestState state,
                          trace::TraceContext trace)
{
    const auto &costs = ctx_.costs();
    trace::ScopedSpan span(trace, "checkpoint-capture");
    span.attr("function", function_name);
    span.attr("format", imageFormatName(format));
    const auto nobjects =
        static_cast<std::int64_t>(state.kernelGraph.objectCount());
    const auto npages = static_cast<std::int64_t>(state.memoryPages);

    // Offline preparation (checkpoint side).
    if (format == ImageFormat::CompressedProto) {
        ctx_.chargeCounted(metrics::kSnapshotSerializedObjects,
                           costs.serializeObject * nobjects, nobjects);
        ctx_.chargeCounted(metrics::kSnapshotCompressedPages,
                           costs.compressPerPage * npages, npages);
    } else {
        // Re-organize objects into the contiguous arena, zero pointers,
        // emit the relation table, and write out page-aligned memory.
        ctx_.chargeCounted(metrics::kSnapshotArenaObjects,
                           costs.serializeObject * nobjects, nobjects);
        ctx_.chargeCounted(metrics::kSnapshotImagePagesWritten,
                           costs.memcpyPerPage * npages, npages);
    }
    ctx_.charge(costs.imageManifestParse); // manifest write

    auto image = std::shared_ptr<FuncImage>(new FuncImage(
        frames, function_name, format, std::move(state)));
    ctx_.stats().incr(metrics::kSnapshotImagesBuilt);
    image->generation_ = static_cast<std::uint64_t>(
        ctx_.stats().value(metrics::kSnapshotImagesBuilt));
    return image;
}

} // namespace catalyzer::snapshot
