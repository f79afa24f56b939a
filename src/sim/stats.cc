#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <mutex>
#include <numeric>
#include <ostream>

#include "sim/json.h"
#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::sim {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

#define CATALYZER_METRIC_DEF(id, kind, name, unit, layer, help)              \
    {name, MetricKind::kind, unit, layer, help, false},
#define CATALYZER_METRIC_FAMILY_DEF(id, kind, name, unit, layer, help)       \
    {name, MetricKind::kind, unit, layer, help, true},
constexpr MetricDef kCatalog[] = {
    CATALYZER_METRICS(CATALYZER_METRIC_DEF, CATALYZER_METRIC_FAMILY_DEF)};
#undef CATALYZER_METRIC_DEF
#undef CATALYZER_METRIC_FAMILY_DEF
static_assert(std::size(kCatalog) == metrics::detail::kCatalogSize);

/**
 * The process-wide metric name table: catalog names hold slots
 * 0..kCatalogSize-1, names first seen at run time (undeclared front-door
 * names, family members) take the next free slot. Keys view storage
 * that never moves: catalog literals and the deque of run-time names.
 */
class MetricNames
{
  public:
    static MetricNames &
    instance()
    {
        static MetricNames names;
        return names;
    }

    std::uint32_t
    intern(std::string_view name)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = slots_.find(name);
        if (it != slots_.end())
            return it->second;
        const std::string &stored = extra_.emplace_back(name);
        const auto slot = static_cast<std::uint32_t>(
            metrics::detail::kCatalogSize + extra_.size() - 1);
        slots_.emplace(stored, slot);
        return slot;
    }

    std::optional<std::uint32_t>
    find(std::string_view name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = slots_.find(name);
        if (it == slots_.end())
            return std::nullopt;
        return it->second;
    }

    std::string_view
    name(std::uint32_t slot) const
    {
        if (slot < metrics::detail::kCatalogSize)
            return kCatalog[slot].name;
        std::lock_guard<std::mutex> lock(mu_);
        return extra_.at(slot - metrics::detail::kCatalogSize);
    }

  private:
    MetricNames()
    {
        for (std::uint32_t slot = 0; slot < std::size(kCatalog); ++slot) {
            if (!slots_.emplace(kCatalog[slot].name, slot).second)
                panic("metric catalog: %s declared twice",
                      std::string(kCatalog[slot].name).c_str());
        }
    }

    mutable std::mutex mu_;
    std::unordered_map<std::string_view, std::uint32_t> slots_;
    std::deque<std::string> extra_;
};

/** (name, slot) of every slot @p touched accepts, in name order. */
template <typename Touched>
std::vector<std::pair<std::string_view, std::uint32_t>>
sortedSlots(std::size_t nslots, Touched touched)
{
    std::vector<std::pair<std::string_view, std::uint32_t>> out;
    for (std::uint32_t slot = 0; slot < nslots; ++slot) {
        if (touched(slot))
            out.emplace_back(metricName(slot), slot);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Histogram: return "histogram";
      case MetricKind::Windowed: return "windowed";
    }
    return "?";
}

std::uint32_t
metricSlot(std::string_view name)
{
    return MetricNames::instance().intern(name);
}

std::string_view
metricName(std::uint32_t slot)
{
    return MetricNames::instance().name(slot);
}

std::uint32_t
metricFamilyMember(std::uint32_t family, std::string_view suffix)
{
    const MetricDef &def = kCatalog[family];
    if (!def.family)
        panic("metric %s is not a family",
              std::string(def.name).c_str());
    std::string name(def.name);
    name += suffix;
    return metricSlot(name);
}

std::uint32_t
StatRegistry::slotFor(std::string_view name)
{
    auto it = slots_.find(name);
    if (it != slots_.end())
        return it->second;
    const std::uint32_t slot = metricSlot(name);
    slots_.emplace(std::string(name), slot);
    return slot;
}

std::optional<std::uint32_t>
StatRegistry::findSlot(std::string_view name) const
{
    auto it = slots_.find(name);
    if (it != slots_.end())
        return it->second;
    return MetricNames::instance().find(name);
}

std::int64_t
StatRegistry::value(std::string_view name) const
{
    const auto slot = findSlot(name);
    return slot ? value(CounterHandle{*slot}) : 0;
}

void
StatRegistry::createHistogram(std::uint32_t slot)
{
    if (slot >= series_.size())
        series_.resize(slot + 1);
    series_[slot] = std::make_unique<LatencySeries>();
}

const LatencySeries *
StatRegistry::findHistogram(std::string_view name) const
{
    const auto slot = findSlot(name);
    return slot && *slot < series_.size() ? series_[*slot].get() : nullptr;
}

void
StatRegistry::createWindowed(std::uint32_t slot)
{
    if (slot >= windowed_.size())
        windowed_.resize(slot + 1);
    windowed_[slot] = std::make_unique<WindowedHistogram>(window_length_);
    if (window_origin_set_)
        windowed_[slot]->setOrigin(window_origin_);
}

const WindowedHistogram *
StatRegistry::findWindowed(std::string_view name) const
{
    const auto slot = findSlot(name);
    return slot && *slot < windowed_.size() ? windowed_[*slot].get()
                                            : nullptr;
}

void
StatRegistry::setWindowOrigin(SimTime origin)
{
    windowed_.clear();
    window_origin_ = origin;
    window_origin_set_ = true;
}

std::map<std::string, std::int64_t>
StatRegistry::all() const
{
    std::map<std::string, std::int64_t> out;
    for (std::uint32_t slot = 0; slot < counters_.size(); ++slot) {
        if (counters_[slot].touched)
            out.emplace(metricName(slot), counters_[slot].value);
    }
    return out;
}

std::vector<NamedMetric<LatencySeries>>
StatRegistry::histograms() const
{
    std::vector<NamedMetric<LatencySeries>> out;
    for (const auto &[name, slot] : sortedSlots(
             series_.size(), [&](auto s) { return series_[s] != nullptr; }))
        out.push_back({name, *series_[slot]});
    return out;
}

std::vector<NamedMetric<WindowedHistogram>>
StatRegistry::windowedSeries() const
{
    std::vector<NamedMetric<WindowedHistogram>> out;
    for (const auto &[name, slot] :
         sortedSlots(windowed_.size(),
                     [&](auto s) { return windowed_[s] != nullptr; }))
        out.push_back({name, *windowed_[slot]});
    return out;
}

void
StatRegistry::merge(const StatRegistry &other)
{
    for (const auto &[name, slot] :
         sortedSlots(other.counters_.size(), [&](auto s) {
             return other.counters_[s].touched;
         }))
        incr(CounterHandle{slot}, other.counters_[slot].value);
    for (const auto &[name, series] : other.histograms()) {
        LatencySeries &mine = histogram(HistogramHandle{metricSlot(name)});
        for (double ms : series.raw())
            mine.addMs(ms);
    }
    for (const auto &[name, series] : other.windowedSeries())
        windowed(WindowedHandle{metricSlot(name)}).merge(series);
}

void
StatRegistry::writeJson(std::ostream &os) const
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, slot] :
         sortedSlots(counters_.size(),
                     [&](auto s) { return counters_[s].touched; })) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << counters_[slot].value;
        first = false;
    }
    os << "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &[name, series] : histograms()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"unit\": \"ms\", \"count\": " << series.count();
        const struct
        {
            const char *key;
            double value;
        } stats[] = {
            {"mean", series.mean()},   {"min", series.min()},
            {"max", series.max()},     {"p50", series.percentile(50)},
            {"p90", series.percentile(90)},
            {"p99", series.percentile(99)},
        };
        for (const auto &s : stats) {
            os << ", \"" << s.key << "\": ";
            writeJsonNumber(os, s.value);
        }
        os << "}";
        first = false;
    }
    os << "\n  }\n}\n";
}

void
StatRegistry::writeTimeSeriesJson(std::ostream &os) const
{
    os << "{\n  \"default_window_ms\": ";
    writeJsonNumber(os, window_length_.toMs());
    os << ",\n  \"series\": {";
    bool first = true;
    for (const auto &[name, hist] : windowedSeries()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"window_ms\": ";
        writeJsonNumber(os, hist.windowLength().toMs());
        os << ", \"windows\": [";
        bool wfirst = true;
        for (const auto &w : hist.windows()) {
            os << (wfirst ? "\n" : ",\n") << "      {\"index\": "
               << w.index << ", \"start_ms\": ";
            writeJsonNumber(os, hist.windowStart(w.index).toMs());
            os << ", \"count\": " << w.series.count() << ", \"sum\": ";
            writeJsonNumber(os, w.sum);
            const struct
            {
                const char *key;
                double value;
            } stats[] = {
                {"mean", w.series.mean()},
                {"p50", w.series.percentile(50)},
                {"p99", w.series.percentile(99)},
                {"p999", w.series.percentile(99.9)},
                {"max", w.series.max()},
            };
            for (const auto &s : stats) {
                os << ", \"" << s.key << "\": ";
                writeJsonNumber(os, s.value);
            }
            os << "}";
            wfirst = false;
        }
        os << "\n    ]}";
        first = false;
    }
    os << "\n  }\n}\n";
}

void
WindowedHistogram::record(SimTime now, double value)
{
    Window &w = windowAt(indexFor(now));
    w.series.addMs(value);
    w.sum += value;
    ++total_count_;
}

WindowedHistogram::Window &
WindowedHistogram::windowAt(std::int64_t index)
{
    // The common cases: the newest window again, or a newer one
    // (single-machine virtual time never goes backwards).
    if (!windows_.empty() && windows_.back().index == index)
        return windows_.back();
    if (windows_.empty() || index > newest_) {
        newest_ = index;
        return windows_.emplace_back(Window{index, {}, 0.0});
    }
    // Out-of-order timestamp (merged fleets replaying): find or insert
    // the window; an insertion breaks the index order until windows().
    for (auto &w : windows_) {
        if (w.index == index)
            return w;
    }
    sorted_valid_ = false;
    return windows_.emplace_back(Window{index, {}, 0.0});
}

const std::vector<WindowedHistogram::Window> &
WindowedHistogram::windows() const
{
    if (!sorted_valid_) {
        std::sort(windows_.begin(), windows_.end(),
                  [](const Window &a, const Window &b) {
                      return a.index < b.index;
                  });
        sorted_valid_ = true;
    }
    return windows_;
}

void
WindowedHistogram::setOrigin(SimTime origin)
{
    if (total_count_ != 0)
        panic("WindowedHistogram::setOrigin: %zu samples already "
              "recorded against the old origin",
              total_count_);
    origin_ = origin;
    origin_set_ = true;
}

void
WindowedHistogram::merge(const WindowedHistogram &other)
{
    if (empty() && total_count_ == 0) {
        window_length_ = other.window_length_;
        if (!origin_set_) {
            origin_ = other.origin_;
            origin_set_ = other.origin_set_;
        }
    }
    if (window_length_ != other.window_length_)
        panic("WindowedHistogram::merge: window lengths differ "
              "(%.3f ms vs %.3f ms)",
              window_length_.toMs(), other.window_length_.toMs());
    if (origin_set_ != other.origin_set_)
        panic("WindowedHistogram::merge: origin-aligned series merged "
              "with unaligned series (windows would misalign)");
    for (const auto &w : other.windows()) {
        Window &mine = windowAt(w.index);
        for (double v : w.series.raw()) {
            mine.series.addMs(v);
            mine.sum += v;
            ++total_count_;
        }
    }
    // Re-establish order for deterministic exports.
    (void)windows();
}

std::int64_t
WindowedHistogram::indexFor(SimTime now) const
{
    if (window_length_.toNs() <= 0)
        panic("WindowedHistogram: non-positive window length");
    if (origin_set_ && now < origin_)
        panic("WindowedHistogram: sample at %lld ns predates the "
              "declared origin %lld ns",
              static_cast<long long>(now.toNs()),
              static_cast<long long>(origin_.toNs()));
    return (now.toNs() - origin_.toNs()) / window_length_.toNs();
}

double
LatencySeries::mean() const
{
    if (samples_.empty())
        return kNaN;
    return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
           static_cast<double>(samples_.size());
}

double
LatencySeries::min() const
{
    if (samples_.empty())
        return kNaN;
    return *std::min_element(samples_.begin(), samples_.end());
}

double
LatencySeries::max() const
{
    if (samples_.empty())
        return kNaN;
    return *std::max_element(samples_.begin(), samples_.end());
}

const std::vector<double> &
LatencySeries::sortedCache() const
{
    if (!sorted_valid_) {
        sorted_cache_ = samples_;
        std::sort(sorted_cache_.begin(), sorted_cache_.end());
        sorted_valid_ = true;
    }
    return sorted_cache_;
}

double
LatencySeries::percentile(double p) const
{
    if (p < 0.0 || p > 100.0)
        panic("LatencySeries::percentile: p=%f out of range", p);
    if (samples_.empty())
        return kNaN;
    const auto &s = sortedCache();
    if (s.size() == 1)
        return s.front();
    const double rank = p / 100.0 * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= s.size())
        return s.back();
    return s[lo] * (1.0 - frac) + s[lo + 1] * frac;
}

} // namespace catalyzer::sim

namespace catalyzer::metrics {

std::span<const sim::MetricDef>
catalog()
{
    return sim::kCatalog;
}

void
writeCatalogJson(std::ostream &os)
{
    std::vector<const sim::MetricDef *> defs;
    for (const sim::MetricDef &def : sim::kCatalog)
        defs.push_back(&def);
    std::sort(defs.begin(), defs.end(),
              [](const auto *a, const auto *b) { return a->name < b->name; });
    os << "{\"metrics\": [";
    bool first = true;
    for (const sim::MetricDef *def : defs) {
        os << (first ? "\n" : ",\n") << "  {\"name\": \""
           << sim::jsonEscape(def->name) << "\", \"kind\": \""
           << sim::metricKindName(def->kind) << "\", \"unit\": \""
           << sim::jsonEscape(def->unit) << "\", \"layer\": \""
           << sim::jsonEscape(def->layer) << "\", \"family\": "
           << (def->family ? "true" : "false") << ", \"help\": \""
           << sim::jsonEscape(def->help) << "\"}";
        first = false;
    }
    os << "\n], \"chain_artifact_counters\": [";
    first = true;
    for (sim::CounterHandle counter : kChainArtifactCounters) {
        os << (first ? "" : ", ") << "\""
           << sim::jsonEscape(sim::kCatalog[counter.slot].name) << "\"";
        first = false;
    }
    os << "]}\n";
}

} // namespace catalyzer::metrics
