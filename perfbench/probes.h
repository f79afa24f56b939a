/**
 * @file
 * Per-layer host-time probes of the traced run.
 *
 * Every probe times the benchmark's own calls into one layer's public
 * functions on objects the benchmark owns (a Machine, a Cluster, an
 * AddressSpace), fed with the workload's own functions so each
 * workload loads each layer the way its fleet does. Nothing here is
 * instrumented inside the simulator.
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "apps/app_profile.h"

namespace perfbench {

/** Metric name -> value, in a stable (sorted) order. */
using Metrics = std::map<std::string, double>;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Host-time samples of one operation. */
class Samples
{
  public:
    void add(double seconds) { values_.push_back(seconds); }
    std::size_t count() const { return values_.size(); }
    double sum() const;
    /** Nearest-rank percentile in microseconds; 0 when empty. */
    double percentileUs(double p) const;

  private:
    std::vector<double> values_;
};

/** objgraph.{synthesize,build,reconstruct}.p50_us */
void probeObjgraph(const std::vector<const catalyzer::apps::AppProfile *> &apps,
                   Metrics &out);

/**
 * catalyzer.boot_{fork,warm,cold}.{p50_us,p99_us},
 * sandbox.teardown.p50_us and snapshot.chunk.p50_us, on one
 * benchmark-owned Machine.
 */
void probeBoots(const std::vector<const catalyzer::apps::AppProfile *> &apps,
                Metrics &out);

/** mem.touch_frag.pages_per_s, mem.fork_cow.p50_us, mem.unmap.p50_us */
void probeMem(Metrics &out);

/** sim.stats_incr.ns and trace.ring_span.ns */
void probeStatsAndTrace(Metrics &out);

/** workflow.run.{p50_us,p99_us} on a benchmark-owned cluster. */
void probeWorkflow(Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
