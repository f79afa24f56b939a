/**
 * @file
 * Synthetic multi-tenant function populations.
 *
 * A fleet experiment needs thousands of functions, but the paper
 * catalog has ~24. The Population builds a deterministic synthetic
 * catalog: every function gets an AppProfile derived from a lightweight
 * language archetype (sizes jittered per function so images differ), a
 * tenant, and a Zipf share of the fleet's request rate. Popularity rank
 * is a *seeded permutation* of the catalog order — the hot head of the
 * distribution lands on arbitrary tenants and archetypes, the way real
 * platform popularity does, instead of on whichever function happened
 * to be created first.
 *
 * A second constructor wraps given catalog profiles instead (one
 * tenant, rank in the given order): the paper-figure ablations replay
 * the Fig. 11 catalog through the same fleet driver.
 *
 * Synthetic profiles live in stable storage for the Population's
 * lifetime: FunctionArtifacts keeps a reference to the deployed
 * AppProfile, so a Population must outlive any Cluster it was deployed
 * to.
 */

#ifndef CATALYZER_LOAD_POPULATION_H
#define CATALYZER_LOAD_POPULATION_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "apps/app_profile.h"
#include "platform/cluster.h"

namespace catalyzer::load {

/** Knobs for building a synthetic population. */
struct PopulationSpec
{
    std::size_t functions = 1000;
    std::size_t tenants = 40;
    /** Fleet-wide mean request rate, split by Zipf share. */
    double totalRps = 1000.0;
    /** Zipf skew: share(rank) ~ 1 / rank^skew. */
    double zipfSkew = 1.0;
    /** Drives the rank permutation and per-function size jitter. */
    std::uint64_t seed = 1;
};

/** One synthetic function in the fleet. */
struct FleetFunction
{
    std::string name; ///< "t007/fn-0421": tenant-scoped, fleet-unique
    std::size_t index = 0;  ///< position in Population::functions()
    std::size_t tenant = 0;
    std::size_t rank = 0;   ///< popularity rank, 0 = hottest
    double baseRps = 0.0;   ///< Zipf share of PopulationSpec::totalRps
    const apps::AppProfile *profile = nullptr;
};

/** A deterministic synthetic function catalog. */
class Population
{
  public:
    explicit Population(PopulationSpec spec);

    /**
     * One tenant over the given catalog @p profiles, referenced, not
     * copied. Popularity rank follows the given order (rank 0, the
     * hottest, is profiles[0]): a hand-picked catalog has no creation
     * order bias to shuffle away.
     */
    Population(std::vector<const apps::AppProfile *> profiles,
               double total_rps, double skew = 1.0);

    const PopulationSpec &spec() const { return spec_; }
    const std::vector<FleetFunction> &functions() const
    {
        return functions_;
    }
    const FleetFunction &fn(std::size_t i) const { return functions_[i]; }
    std::size_t size() const { return functions_.size(); }
    std::size_t tenantCount() const { return spec_.tenants; }

    /** Stable tenant id string, e.g. "t007". */
    static std::string tenantName(std::size_t tenant);

    /** Register every function on every machine of @p cluster. */
    void deployTo(platform::Cluster &cluster) const;

    /** Register @p fn on one machine unless it is there already, for
     *  FleetAutoscaler::buildTemplateOn, which may build a template on
     *  a cluster that was never deployed. */
    void deployTo(platform::ServerlessPlatform &platform,
                  const FleetFunction &fn) const;

  private:
    PopulationSpec spec_;
    /** Stable addresses: FunctionArtifacts holds profile references.
     *  Empty for a catalog population. */
    std::deque<apps::AppProfile> profiles_;
    std::vector<FleetFunction> functions_;
};

} // namespace catalyzer::load

#endif // CATALYZER_LOAD_POPULATION_H
