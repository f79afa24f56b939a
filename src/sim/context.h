/**
 * @file
 * SimContext: the bundle of clock, cost model, RNG and stats that every
 * simulated component operates against.
 */

#ifndef CATALYZER_SIM_CONTEXT_H
#define CATALYZER_SIM_CONTEXT_H

#include <cstdint>

#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace catalyzer::sim {

/**
 * Shared simulation environment.
 *
 * One SimContext models one physical machine: a virtual clock, the host's
 * calibrated cost model, a deterministic RNG, and a counter registry.
 * Components hold a reference and charge costs as their data structures
 * do work.
 */
class SimContext
{
  public:
    explicit SimContext(std::uint64_t seed = 42,
                        CostModel costs = CostModel{})
        : costs_(costs), rng_(seed)
    {}

    VirtualClock &clock() { return clock_; }

    const CostModel &costs() const { return costs_; }

    Rng &rng() { return rng_; }
    StatRegistry &stats() { return stats_; }

    /** Current virtual time. */
    SimTime now() const { return clock_.now(); }

    /** Charge a latency to the virtual clock. */
    void charge(SimTime t) { clock_.advance(t); }

    /** Charge per-item work executed across the restore worker pool. */
    void
    chargeParallel(SimTime per_item, std::int64_t count)
    {
        clock_.advanceParallel(per_item, count, costs_.restoreWorkers);
    }

    /** Charge and count in one step. */
    void
    chargeCounted(CounterHandle counter, SimTime t, std::int64_t n = 1)
    {
        stats_.incr(counter, n);
        clock_.advance(t);
    }

  private:
    VirtualClock clock_;
    const CostModel costs_;
    Rng rng_;
    StatRegistry stats_;
};

} // namespace catalyzer::sim

#endif // CATALYZER_SIM_CONTEXT_H
