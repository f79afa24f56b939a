/**
 * @file
 * Counters, latency series and the unified metrics registry for
 * experiment reporting. The metrics themselves are declared in
 * sim/metric_catalog.h.
 */

#ifndef CATALYZER_SIM_STATS_H
#define CATALYZER_SIM_STATS_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace catalyzer::sim {

/**
 * A series of latency samples with percentile and CDF queries.
 * Samples are stored in milliseconds.
 *
 * On an empty series every statistic (mean/min/max/percentile/cdfAt)
 * returns quiet NaN — there is no meaningful value to report, and NaN
 * propagates visibly instead of faking a 0 ms latency or an empty CDF.
 * JSON snapshots render non-finite values as null.
 */
class LatencySeries
{
  public:
    /** Record one sample. */
    void
    add(SimTime t)
    {
        samples_.push_back(t.toMs());
        sorted_valid_ = false;
    }

    void
    addMs(double ms)
    {
        samples_.push_back(ms);
        sorted_valid_ = false;
    }

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /** Arithmetic mean; NaN if the series is empty. */
    double mean() const;
    /** Smallest sample; NaN if the series is empty. */
    double min() const;
    /** Largest sample; NaN if the series is empty. */
    double max() const;

    /**
     * p in [0, 100] (out-of-range panics); linear interpolation between
     * order statistics. NaN if the series is empty.
     */
    double percentile(double p) const;

    /** Fraction of samples <= x (empirical CDF); NaN if empty. */
    double cdfAt(double x) const;

    /** Sorted copy of the samples. */
    std::vector<double> sorted() const;

    const std::vector<double> &raw() const { return samples_; }

    void
    clear()
    {
        samples_.clear();
        sorted_cache_.clear();
        sorted_valid_ = false;
    }

  private:
    /** Sorted view of samples_, rebuilt lazily after mutations. */
    const std::vector<double> &sortedCache() const;

    std::vector<double> samples_;
    /**
     * Cache for percentile/cdfAt/sorted: reporting code asks for p50,
     * p90 and p99 back to back, and re-sorting the series for each
     * query is quadratic-ish in practice. Invalidated by any add.
     */
    mutable std::vector<double> sorted_cache_;
    mutable bool sorted_valid_ = false;
};

/**
 * Fixed-window time series over virtual time: samples land in the
 * window containing their timestamp (window i covers
 * [i*length, (i+1)*length)), each window backed by a LatencySeries so
 * per-window percentiles (the p99-over-time an SLO burn-rate needs) are
 * one call away. Windows are kept sparse and in first-touch order —
 * virtual clocks only move forward, so first-touch order is time order
 * for any single machine, and merge() re-sorts when fleets interleave.
 */
class WindowedHistogram
{
  public:
    explicit WindowedHistogram(SimTime window_length =
                                   SimTime::milliseconds(250.0))
        : window_length_(window_length)
    {}

    /** One window's samples. */
    struct Window
    {
        /** Window index: start time = index * windowLength(). */
        std::int64_t index = 0;
        LatencySeries series;
        double sum = 0.0;
    };

    /** Record @p value (unit chosen by the caller) at virtual @p now. */
    void record(SimTime now, double value);

    SimTime windowLength() const { return window_length_; }

    /**
     * Declare @p origin as window 0's start: samples are bucketed by
     * origin-relative time, so per-machine series whose virtual clocks
     * started at different absolute instants (priming, deployment)
     * still line up window-for-window when merged. Must be called
     * before any sample lands. An aligned series only merges with
     * other aligned series (and vice versa) — see merge().
     */
    void setOrigin(SimTime origin);

    /** True once setOrigin() declared a measurement origin. */
    bool originAligned() const { return origin_set_; }

    /** The declared origin (zero when unaligned). */
    SimTime origin() const { return origin_; }

    /**
     * Start of window @p index, relative to the origin (equals the
     * virtual-clock start for unaligned series).
     */
    SimTime
    windowStart(std::int64_t index) const
    {
        return SimTime::nanoseconds(index * window_length_.toNs());
    }

    /** Windows that received at least one sample, in time order. */
    const std::vector<Window> &windows() const;

    std::size_t totalCount() const { return total_count_; }
    bool empty() const { return windows_.empty(); }

    /**
     * Fold @p other into this series (fleet aggregation). Window
     * lengths must match and both sides must agree on origin
     * alignment (panic otherwise — a silent merge would misalign the
     * win.* series across machines); an empty destination adopts the
     * source's length and alignment. Two aligned series merge by
     * origin-relative index even when their absolute origins differ —
     * that is the point of alignment.
     */
    void merge(const WindowedHistogram &other);

  private:
    std::int64_t indexFor(SimTime now) const;

    /** The window with @p index, appended if it does not exist yet. */
    Window &windowAt(std::int64_t index);

    SimTime window_length_;
    /** Window 0 start when origin_set_; see setOrigin(). */
    SimTime origin_;
    bool origin_set_ = false;
    /** Sparse, kept sorted by index lazily (see windows()). */
    mutable std::vector<Window> windows_;
    mutable bool sorted_valid_ = true;
    /** Highest window index present (valid while windows_ is not
     *  empty); windows_.back() is that window only while sorted. */
    std::int64_t newest_ = 0;
    std::size_t total_count_ = 0;
};

/** What a metric records. */
enum class MetricKind : std::uint8_t
{
    Counter,
    Histogram,
    Windowed,
};

/** "counter" / "histogram" / "windowed". */
const char *metricKindName(MetricKind kind);

/**
 * A pre-resolved metric: the metric's slot in every registry's flat
 * slot array. Slots are process-wide (see metric_catalog.h), so a
 * handle is valid for every StatRegistry.
 */
template <MetricKind K>
struct MetricHandle
{
    std::uint32_t slot;
};

using CounterHandle = MetricHandle<MetricKind::Counter>;
using HistogramHandle = MetricHandle<MetricKind::Histogram>;
using WindowedHandle = MetricHandle<MetricKind::Windowed>;

/** Slot of family @p family's member named prefix + @p suffix. */
std::uint32_t metricFamilyMember(std::uint32_t family,
                                 std::string_view suffix);

/**
 * A declared family of metrics sharing a name prefix whose last part
 * is only known at run time (boot.fallback.<from>_<to>, ...).
 * member() interns the full name under a process-wide lock: resolve a
 * member once and keep the handle on hot paths.
 */
template <MetricKind K>
struct MetricFamily
{
    std::uint32_t slot;

    MetricHandle<K>
    member(std::string_view suffix) const
    {
        return {metricFamilyMember(slot, suffix)};
    }
};

/** One catalog entry (see metric_catalog.h). */
struct MetricDef
{
    /** Full name, or the family prefix (ending in '.'). */
    std::string_view name;
    MetricKind kind;
    std::string_view unit;
    /** Owning layer (src/ directory). */
    std::string_view layer;
    std::string_view help;
    bool family;
};

/** The process-wide slot of metric @p name, interning it if new. */
std::uint32_t metricSlot(std::string_view name);

/** Name of the metric in @p slot. */
std::string_view metricName(std::uint32_t slot);

/** A registry entry handed out by the sorted walks. */
template <typename T>
struct NamedMetric
{
    std::string_view name;
    const T &value;
};

/**
 * Unified metrics registry: named monotonically increasing counters
 * (page faults, syscalls redone, objects deserialized, ...), named
 * histogram metrics backed by LatencySeries (boot latency per system,
 * end-to-end invocation latency, ...) and windowed time series.
 *
 * Storage is one flat array per kind, indexed by metric slot, with a
 * touched bit: a handle increment is one indexed add. The name-taking
 * members are the front door for names known only at run time; they
 * resolve the name to the same slot, so both paths share one storage
 * and one export. Every export and walk (writeJson,
 * writeTimeSeriesJson, all(), histograms(), windowedSeries(), merge())
 * visits touched metrics in name order, never slot order: slots of
 * run-time names are handed out in first-use order, which depends on
 * thread scheduling.
 *
 * Each SimContext owns one registry (its machine's metrics).
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Add @p delta to the counter, creating it at zero if needed. */
    void
    incr(CounterHandle counter, std::int64_t delta = 1)
    {
        if (counter.slot >= counters_.size()) [[unlikely]]
            counters_.resize(counter.slot + 1);
        CounterSlot &c = counters_[counter.slot];
        c.value += delta;
        c.touched = true;
    }
    void
    incr(std::string_view name, std::int64_t delta = 1)
    {
        incr(CounterHandle{slotFor(name)}, delta);
    }

    /** Current value, or zero if never touched. */
    std::int64_t
    value(CounterHandle counter) const
    {
        return counter.slot < counters_.size()
                   ? counters_[counter.slot].value
                   : 0;
    }
    std::int64_t value(std::string_view name) const;

    /** Record one sample into a histogram, creating it if needed. */
    void observe(HistogramHandle h, SimTime t) { histogram(h).add(t); }
    void observeMs(HistogramHandle h, double ms) { histogram(h).addMs(ms); }
    void
    observe(std::string_view name, SimTime t)
    {
        observe(HistogramHandle{slotFor(name)}, t);
    }
    void
    observeMs(std::string_view name, double ms)
    {
        observeMs(HistogramHandle{slotFor(name)}, ms);
    }

    /** Get-or-create a histogram. */
    LatencySeries &
    histogram(HistogramHandle h)
    {
        if (h.slot >= series_.size() || !series_[h.slot]) [[unlikely]]
            createHistogram(h.slot);
        return *series_[h.slot];
    }

    /** Look up a histogram; nullptr if never observed. */
    const LatencySeries *findHistogram(std::string_view name) const;

    /**
     * Record one sample into a fixed-window time series at virtual
     * @p now (creating the series with the registry's current default
     * window length). Windowed series are a separate namespace from
     * the lifetime histograms: writeJson() never includes them, so
     * turning time-series collection on cannot change an existing
     * metrics snapshot byte for byte.
     */
    void
    observeWindowed(WindowedHandle h, SimTime now, double value)
    {
        windowed(h).record(now, value);
    }
    void
    observeWindowed(std::string_view name, SimTime now, double value)
    {
        observeWindowed(WindowedHandle{slotFor(name)}, now, value);
    }

    /** Get-or-create a windowed series. */
    WindowedHistogram &
    windowed(WindowedHandle h)
    {
        if (h.slot >= windowed_.size() || !windowed_[h.slot]) [[unlikely]]
            createWindowed(h.slot);
        return *windowed_[h.slot];
    }

    /** Look up a windowed series; nullptr if never observed. */
    const WindowedHistogram *findWindowed(std::string_view name) const;

    /** All windowed series, sorted by name. */
    std::vector<NamedMetric<WindowedHistogram>> windowedSeries() const;

    /** Window length used for windowed series created after this call. */
    void setWindowLength(SimTime length) { window_length_ = length; }
    SimTime windowLength() const { return window_length_; }

    /**
     * Align all windowed series created after this call to @p origin
     * (see WindowedHistogram::setOrigin). Existing windowed series are
     * dropped: the origin marks the start of the measurement frame,
     * and pre-origin samples (priming, deployment) belong to no
     * window of it.
     */
    void setWindowOrigin(SimTime origin);

    /** True once setWindowOrigin() declared a measurement origin. */
    bool windowOriginAligned() const { return window_origin_set_; }

    /** Snapshot of all counters, sorted by name. */
    std::map<std::string, std::int64_t> all() const;

    /** All histograms, sorted by name. */
    std::vector<NamedMetric<LatencySeries>> histograms() const;

    /**
     * Fold @p other in (fleet aggregation): counters add, histogram
     * samples append in @p other's order, windowed series merge per
     * window. Touched-but-zero counters stay touched.
     */
    void merge(const StatRegistry &other);

    /**
     * JSON snapshot: {"counters": {name: value, ...}, "histograms":
     * {name: {count, mean, min, max, p50, p90, p99}, ...}} with
     * histogram samples in milliseconds. Non-finite statistics (empty
     * histograms) are emitted as null to keep the document valid JSON.
     */
    void writeJson(std::ostream &os) const;

    /**
     * JSON export of the windowed time series: {"default_window_ms": W,
     * "series": {name: {"window_ms": W, "windows": [{"index", "start_ms",
     * "count", "sum", "mean", "p50", "p99", "p999", "max"}, ...]}, ...}}.
     * Windows are in time order; empty windows are omitted (sparse).
     */
    void writeTimeSeriesJson(std::ostream &os) const;

  private:
    struct CounterSlot
    {
        std::int64_t value = 0;
        bool touched = false;
    };

    struct NameHash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    /** Slot of @p name, interned on first use and cached here. */
    std::uint32_t slotFor(std::string_view name);
    /** Slot of @p name if any registry ever used it. */
    std::optional<std::uint32_t> findSlot(std::string_view name) const;

    void createHistogram(std::uint32_t slot);
    void createWindowed(std::uint32_t slot);

    std::vector<CounterSlot> counters_;
    std::vector<std::unique_ptr<LatencySeries>> series_;
    std::vector<std::unique_ptr<WindowedHistogram>> windowed_;
    /** Front-door cache: name -> slot, so repeat lookups skip the
     *  process-wide table's lock. */
    std::unordered_map<std::string, std::uint32_t, NameHash,
                       std::equal_to<>>
        slots_;
    SimTime window_length_ = SimTime::milliseconds(250.0);
    SimTime window_origin_;
    bool window_origin_set_ = false;
};

} // namespace catalyzer::sim

#endif // CATALYZER_SIM_STATS_H
