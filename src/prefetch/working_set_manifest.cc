#include "prefetch/working_set_manifest.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "sim/logging.h"

namespace catalyzer::prefetch {

WorkingSetManifest::WorkingSetManifest(std::string function_name,
                                       std::uint64_t image_generation,
                                       std::size_t max_traces,
                                       double min_fraction)
    : function_name_(std::move(function_name)),
      image_generation_(image_generation), max_traces_(max_traces),
      min_fraction_(min_fraction)
{
    if (max_traces_ == 0)
        sim::panic("WorkingSetManifest %s: max_traces must be positive",
                   function_name_.c_str());
    min_fraction_ = std::clamp(min_fraction_, 0.0, 1.0);
}

void
WorkingSetManifest::addTrace(const std::vector<mem::PageIndex> &ordered_pages)
{
    if (frozen())
        return;
    std::set<mem::PageIndex> in_this_trace;
    for (mem::PageIndex page : ordered_pages) {
        if (!in_this_trace.insert(page).second)
            continue; // duplicate within the trace
        auto [it, inserted] = pages_.try_emplace(page);
        if (inserted)
            it->second.firstSeen = next_seen_++;
        ++it->second.hits;
    }
    ++traces_;
    dirty_ = true;
}

std::vector<mem::PageIndex>
WorkingSetManifest::stableSet() const
{
    if (traces_ == 0)
        return {};
    const auto threshold = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(min_fraction_ * static_cast<double>(traces_))));
    std::vector<const std::pair<const mem::PageIndex, PageStat> *> kept;
    kept.reserve(pages_.size());
    for (const auto &entry : pages_) {
        if (entry.second.hits >= threshold)
            kept.push_back(&entry);
    }
    // Batched reads follow the recorded access order, not address order.
    std::sort(kept.begin(), kept.end(),
              [](const auto *a, const auto *b) {
                  return a->second.firstSeen < b->second.firstSeen;
              });
    std::vector<mem::PageIndex> result;
    result.reserve(kept.size());
    for (const auto *entry : kept)
        result.push_back(entry->first);
    return result;
}

} // namespace catalyzer::prefetch
