/**
 * @file
 * Policy-driven fleet autoscaling over a Cluster.
 *
 * Three cooperating mechanisms, evaluated on a fixed policy tick:
 *
 *  - **Keep-alive windows**: idle instances persist for a TTL and are
 *    reclaimed on the tick (and on the arrival path), trading resident
 *    memory for reuse hits — the economics *How Low Can You Go?*
 *    scores.
 *  - **Predictive pre-warm**: a per-function EWMA of the arrival rate
 *    triggers template builds *ahead* of a burst, on the machine that
 *    saw the traffic, with a prewarm credit so the reactive
 *    per-machine BootPolicyManager does not immediately drop a
 *    template the predictor just paid for. False positives (prewarms
 *    that never serve an sfork) are accounted explicitly.
 *  - **Template-budget + memory-pressure autoscaling**: each machine's
 *    template pool budget breathes between a floor and the configured
 *    ceiling depending on observed resident memory, and hot functions
 *    whose traffic concentrates in a rack with no template holder get
 *    a holder in that rack (placement then serves them with local
 *    sforks instead of cross-rack remote-sforks).
 */

#ifndef CATALYZER_LOAD_FLEET_POLICY_H
#define CATALYZER_LOAD_FLEET_POLICY_H

#include <memory>
#include <vector>

#include "load/population.h"
#include "platform/cluster.h"
#include "platform/policy.h"

namespace catalyzer::load {

/** Fleet policy knobs. */
struct FleetPolicyConfig
{
    /** Keep-alive TTL for idle instances; zero disables expiry. */
    sim::SimTime keepAliveTtl = sim::SimTime::seconds(2.0);
    /** Cadence of the policy evaluation (EWMA, rebalance, pressure). */
    sim::SimTime policyTick = sim::SimTime::milliseconds(500.0);
    /** Per-machine reactive template policy (budget, hot threshold). */
    platform::PolicyConfig perMachine;
    /**
     * Run the reactive per-machine rebalance each tick. Off, the fleet
     * is a *pure keep-alive* platform (no templates unless predictive
     * pre-warm builds them) — the baseline the fleet bench scores
     * pre-warm against.
     */
    bool reactiveRebalance = true;

    /** Enable the predictive pre-warm path. */
    bool predictivePrewarm = false;
    /** EWMA arrival rate (req/s) that triggers a pre-warm. */
    double prewarmRateRps = 5.0;

    /** Resident-memory budget per machine (instances + templates). */
    std::size_t machineResidentBudgetBytes = 1u << 30;
};

/** Everything the autoscaler did, for reports and assertions. */
struct FleetPolicyCounters
{
    std::size_t ticks = 0;
    std::size_t prewarmTriggers = 0;
    std::size_t prewarmBuilds = 0;
    std::size_t prewarmFalsePositives = 0;
    std::size_t prewarmServedSforks = 0;
    std::size_t rebalanceActions = 0;
    std::size_t keepAliveExpired = 0;
    std::size_t pressureEvictions = 0;
    std::size_t pressureBudgetShrinks = 0;
    /** Image-store RAM-tier bytes demoted to SSD under pressure. */
    std::size_t pressureImageDemotedBytes = 0;
    std::size_t crossRackBuilds = 0;
};

/**
 * Drives keep-alive, pre-warm and budget policy across a Cluster's
 * machines. The FleetDriver calls observeArrival/afterInvoke on the
 * request path and tick() whenever the virtual clock crosses a policy
 * tick boundary (with every machine advanced to that boundary).
 */
class FleetAutoscaler
{
  public:
    FleetAutoscaler(platform::Cluster &cluster,
                    const Population &population,
                    FleetPolicyConfig config);

    /** A request for function @p fn_index was routed to @p machine. */
    void observeArrival(std::size_t fn_index, std::size_t machine);

    /** The routed request completed with @p record. */
    void afterInvoke(std::size_t fn_index, std::size_t machine,
                     const platform::InvocationRecord &record);

    /** Policy evaluation at virtual time @p now. */
    void tick(sim::SimTime now);

    /** End-of-run accounting (outstanding pre-warm false positives). */
    void finalize();

    const FleetPolicyCounters &counters() const { return counters_; }
    const FleetPolicyConfig &config() const { return config_; }

    /** Current EWMA arrival rate of one function (req/s). */
    double ewmaRps(std::size_t fn_index) const;

    /** Resident bytes on one machine (instances + templates). */
    std::size_t residentBytes(std::size_t machine) const;

    /** Resident bytes across the fleet. */
    std::size_t fleetResidentBytes() const;

    /** The per-machine reactive policy manager. */
    platform::BootPolicyManager &manager(std::size_t machine)
    {
        return *managers_[machine];
    }

  private:
    struct FnState
    {
        double ewmaRps = 0.0;
        std::uint32_t sinceTick = 0;
        /** Arrivals since the last tick, per machine. */
        std::vector<std::uint32_t> perMachine;
        bool prewarmed = false;
        std::size_t sforksAfterPrewarm = 0;
    };

    bool templateAnywhere(const FleetFunction &fn) const;
    /** Build a template for @p fn on @p machine and credit it. */
    void buildTemplateOn(const FleetFunction &fn, std::size_t machine);
    void prewarmPass();
    void pressurePass();
    void crossRackPass();

    platform::Cluster &cluster_;
    const Population &population_;
    FleetPolicyConfig config_;
    std::vector<std::unique_ptr<platform::BootPolicyManager>> managers_;
    /** Current (pressure-adapted) template budget per machine. */
    std::vector<std::size_t> template_budget_;
    std::vector<FnState> fns_;
    FleetPolicyCounters counters_;
    sim::SimTime last_tick_;
};

} // namespace catalyzer::load

#endif // CATALYZER_LOAD_FLEET_POLICY_H
