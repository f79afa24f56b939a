/**
 * @file
 * The fleet traffic engine: scenario definitions and the deterministic
 * merged arrival stream.
 *
 * A scenario turns a Population's per-function Zipf rates into concrete
 * arrival processes: steady Poisson for the hot head with MMPP bursts
 * in the long tail (ranks from 64 on; the expected request count is
 * unchanged, since MMPP parameters derive from each function's mean),
 * tenant-phase-shifted diurnal curves, a flash crowd that ramps the
 * coldest functions from silence to a hard plateau, or tenant churn
 * that rotates which tenants are active every epoch. The merged stream
 * is a pure function of (population, spec): per-function
 * sub-streams draw from independent seeded generators and merge into
 * one time-ordered sequence, so the same spec replays the same fleet
 * history on every run — the property all regression gates lean on.
 */

#ifndef CATALYZER_LOAD_TRAFFIC_H
#define CATALYZER_LOAD_TRAFFIC_H

#include <cstdint>
#include <vector>

#include "load/arrival.h"
#include "load/population.h"

namespace catalyzer::load {

/** Fleet traffic scenarios (the bench's scenario table). */
enum class Scenario
{
    Steady,     ///< Poisson head + MMPP-bursty tail at base rates
    Diurnal,    ///< tenant-phase-shifted sinusoidal rate curves
    FlashCrowd, ///< steady background + cold-tail functions spike
    TenantChurn,///< active-tenant set rotates every epoch
};

const char *scenarioName(Scenario scenario);

/** Scenario knobs; defaults give each scenario its typical shape. */
struct TrafficSpec
{
    Scenario scenario = Scenario::Steady;
    double durationSec = 30.0;
    std::uint64_t seed = 7;

    // Diurnal scenario.
    double diurnalPeriodSec = 20.0;

    // FlashCrowd scenario: the flashFunctions coldest functions ramp
    // from zero to flashRpsPerFunction over flashRampSec, hold for
    // flashHoldSec, then stop.
    double flashAtSec = 15.0;
    double flashRampSec = 3.0;
    double flashHoldSec = 5.0;
    double flashRpsPerFunction = 40.0;
    std::size_t flashFunctions = 32;

    // TenantChurn scenario: every epoch a rotating quarter of the
    // tenants carries the traffic; inactive tenants keep a trickle.
    double churnEpochSec = 8.0;

    /**
     * Stateful-workflow side stream: a Poisson process at workflowRps
     * whose arrivals execute DAG workflows (FleetRunConfig::workflows)
     * instead of single functions, cycling round-robin over
     * workflowKinds specs in time order. Zero (the default) keeps the
     * tape byte-identical to the function-only engine.
     */
    double workflowRps = 0.0;
    std::size_t workflowKinds = 1;
};

/** One request in the merged fleet stream. */
struct FleetArrival
{
    double atSec = 0.0;
    std::uint32_t fn = 0; ///< index into Population::functions()
    /** >= 0: run FleetRunConfig::workflows[workflow] instead of fn. */
    std::int32_t workflow = -1;
};

/**
 * Generate the merged, time-ordered arrival stream for @p population
 * under @p spec. Deterministic: per-function sub-streams use
 * independent generators derived from spec.seed and the function index,
 * and ties in the merge break by function index.
 */
std::vector<FleetArrival> generateFleetStream(const Population &population,
                                              const TrafficSpec &spec);

} // namespace catalyzer::load

#endif // CATALYZER_LOAD_TRAFFIC_H
