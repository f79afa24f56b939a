#include "load/fleet_policy.h"

#include <algorithm>

#include "faults/fault_injector.h"
#include "sim/logging.h"

namespace catalyzer::load {

namespace {

/** Observation credit granted to a prewarmed function so the reactive
 *  rebalance keeps the template through the burst onset. */
constexpr double kPrewarmCredit = 8.0;

/** Fraction of the resident budget that triggers pressure shedding. */
constexpr double kMemoryHighWater = 0.9;

/** A rack carrying this share of a hot function's traffic gets a
 *  template holder when it holds none (multi-machine fleets only). */
constexpr double kCrossRackShare = 0.3;

/** Hottest functions examined by the cross-rack pass per tick. */
constexpr std::size_t kHottestTracked = 16;

/** EWMA smoothing factor of the arrival rate (weight of the newest
 *  tick's rate). */
constexpr double kEwmaAlpha = 0.35;

/** @p plat holds a template of @p name. */
bool
holdsTemplate(platform::ServerlessPlatform &plat, const std::string &name)
{
    const sandbox::FunctionArtifacts *fn = plat.registry().find(name);
    return fn && fn->templateSandbox;
}

} // namespace

FleetAutoscaler::FleetAutoscaler(platform::Cluster &cluster,
                                 const Population &population,
                                 FleetPolicyConfig config)
    : cluster_(cluster), population_(population),
      config_(std::move(config))
{
    const std::size_t machines = cluster_.machineCount();
    managers_.reserve(machines);
    for (std::size_t m = 0; m < machines; ++m) {
        managers_.push_back(std::make_unique<platform::BootPolicyManager>(
            cluster_.platform(m), config_.perMachine));
        template_budget_.push_back(
            config_.perMachine.templateMemoryBudgetBytes);
    }
    fns_.resize(population_.size());
    for (FnState &state : fns_)
        state.perMachine.assign(machines, 0);
}

void
FleetAutoscaler::observeArrival(std::size_t fn_index, std::size_t machine)
{
    FnState &state = fns_[fn_index];
    ++state.sinceTick;
    ++state.perMachine[machine];
    managers_[machine]->observe(population_.fn(fn_index).name);
}

void
FleetAutoscaler::afterInvoke(std::size_t fn_index, std::size_t /*machine*/,
                             const platform::InvocationRecord &record)
{
    FnState &state = fns_[fn_index];
    if (state.prewarmed &&
        (record.tierServed == "sfork" ||
         record.tierServed == "remote-sfork")) {
        ++state.sforksAfterPrewarm;
        ++counters_.prewarmServedSforks;
    }
}

bool
FleetAutoscaler::templateAnywhere(const FleetFunction &fn) const
{
    for (std::size_t m = 0; m < managers_.size(); ++m) {
        if (holdsTemplate(cluster_.platform(m), fn.name))
            return true;
    }
    return false;
}

void
FleetAutoscaler::buildTemplateOn(const FleetFunction &fn,
                                 std::size_t machine)
{
    platform::ServerlessPlatform &plat = cluster_.platform(machine);
    population_.deployTo(plat, fn);
    try {
        plat.catalyzer().prepareTemplate(
            *plat.registry().find(fn.name));
    } catch (const faults::FaultError &err) {
        sim::warn("prewarm(%s) on machine %zu failed: %s",
                  fn.name.c_str(), machine, err.what());
        return;
    }
    managers_[machine]->grantPrewarmCredit(fn.name, kPrewarmCredit);
    // Publish the holder right away: the boot path only syncs the
    // cluster directory when it serves a request, and the whole point
    // of a pre-warm is that placement routes to the holder *before*
    // the first post-build request lands there.
    cluster_.registry().setTemplate(static_cast<net::NodeId>(machine),
                                    fn.name, true);
}

void
FleetAutoscaler::prewarmPass()
{
    for (std::size_t i = 0; i < fns_.size(); ++i) {
        FnState &state = fns_[i];
        const FleetFunction &fn = population_.fn(i);
        // A prewarmed template that was dropped without ever serving a
        // fork boot was a wasted build: the predictor fired for traffic
        // that never came (or came too thin to stay hot).
        if (state.prewarmed && !templateAnywhere(fn)) {
            if (state.sforksAfterPrewarm == 0)
                ++counters_.prewarmFalsePositives;
            state.prewarmed = false;
            state.sforksAfterPrewarm = 0;
        }
        if (state.ewmaRps < config_.prewarmRateRps || state.prewarmed)
            continue;
        if (templateAnywhere(fn))
            continue; // reactive policy (or an earlier prewarm) got it
        ++counters_.prewarmTriggers;
        // Build where the traffic is landing; fall back to a stable
        // home machine when the burst has not hit anywhere yet.
        std::size_t best = fn.index % managers_.size();
        std::uint32_t best_count = 0;
        for (std::size_t m = 0; m < managers_.size(); ++m) {
            if (state.perMachine[m] > best_count) {
                best = m;
                best_count = state.perMachine[m];
            }
        }
        buildTemplateOn(fn, best);
        ++counters_.prewarmBuilds;
        state.prewarmed = true;
        state.sforksAfterPrewarm = 0;
    }
}

void
FleetAutoscaler::pressurePass()
{
    const std::size_t budget = config_.machineResidentBudgetBytes;
    const auto high_water = static_cast<std::size_t>(
        kMemoryHighWater * static_cast<double>(budget));
    for (std::size_t m = 0; m < managers_.size(); ++m) {
        const std::size_t resident = residentBytes(m);
        if (resident > high_water) {
            // Shed in cost order: idle keep-alive instances first (the
            // cheapest to rebuild), then the image store's RAM tier
            // (chunks demote to SSD, so refetches stay local), then
            // halve the template budget so the next rebalance drops
            // the coldest templates.
            counters_.pressureEvictions +=
                cluster_.platform(m).expireIdle(
                    sim::SimTime::milliseconds(1.0));
            counters_.pressureImageDemotedBytes +=
                cluster_.platform(m)
                    .catalyzer()
                    .images()
                    .relieveMemoryPressure();
            const std::size_t floor =
                config_.perMachine.templateMemoryBudgetBytes / 4;
            if (config_.reactiveRebalance &&
                template_budget_[m] / 2 >= floor) {
                template_budget_[m] /= 2;
                managers_[m]->setTemplateMemoryBudget(
                    template_budget_[m]);
                counters_.rebalanceActions += managers_[m]->rebalance();
                ++counters_.pressureBudgetShrinks;
            }
        } else if (resident < high_water / 2 &&
                   template_budget_[m] <
                       config_.perMachine.templateMemoryBudgetBytes) {
            // Headroom again: let the template pool grow back.
            template_budget_[m] = std::min(
                template_budget_[m] * 2,
                config_.perMachine.templateMemoryBudgetBytes);
            managers_[m]->setTemplateMemoryBudget(template_budget_[m]);
        }
    }
}

void
FleetAutoscaler::crossRackPass()
{
    // Hottest functions by EWMA.
    std::vector<std::size_t> order(fns_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const std::size_t k = std::min(kHottestTracked, order.size());
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [this](std::size_t a, std::size_t b) {
                          return fns_[a].ewmaRps > fns_[b].ewmaRps;
                      });

    const std::size_t machines = managers_.size();
    for (std::size_t oi = 0; oi < k; ++oi) {
        const std::size_t i = order[oi];
        FnState &state = fns_[i];
        if (state.sinceTick == 0)
            continue;
        const FleetFunction &fn = population_.fn(i);
        // Per-rack arrival counts and holder presence this tick.
        std::map<std::size_t, std::uint32_t> rack_arrivals;
        std::map<std::size_t, bool> rack_holds;
        bool holds_anywhere = false;
        for (std::size_t m = 0; m < machines; ++m) {
            const std::size_t rack =
                cluster_.fabric().rackOf(static_cast<net::NodeId>(m));
            rack_arrivals[rack] += state.perMachine[m];
            if (holdsTemplate(cluster_.platform(m), fn.name)) {
                rack_holds[rack] = true;
                holds_anywhere = true;
            }
        }
        if (!holds_anywhere)
            continue; // nothing to spread; prewarm/reactive first
        for (const auto &[rack, arrivals] : rack_arrivals) {
            if (rack_holds[rack])
                continue;
            const double share = static_cast<double>(arrivals) /
                                 static_cast<double>(state.sinceTick);
            if (share < kCrossRackShare)
                continue;
            // Least-loaded machine in the starved rack gets a holder.
            bool have = false;
            std::size_t best = 0, best_load = 0;
            for (std::size_t m = 0; m < machines; ++m) {
                if (cluster_.fabric().rackOf(
                        static_cast<net::NodeId>(m)) != rack)
                    continue;
                const std::size_t loadv =
                    cluster_.platform(m).totalInstances();
                if (!have || loadv < best_load) {
                    have = true;
                    best = m;
                    best_load = loadv;
                }
            }
            if (have) {
                buildTemplateOn(fn, best);
                ++counters_.crossRackBuilds;
            }
        }
    }
}

void
FleetAutoscaler::tick(sim::SimTime now)
{
    ++counters_.ticks;
    const double dt = (now - last_tick_).toSec();
    last_tick_ = now;
    if (dt > 0.0) {
        for (FnState &state : fns_) {
            const double rate = static_cast<double>(state.sinceTick) / dt;
            state.ewmaRps =
                kEwmaAlpha * rate + (1.0 - kEwmaAlpha) * state.ewmaRps;
        }
    }

    if (config_.predictivePrewarm)
        prewarmPass();

    // Reactive per-machine template policy.
    if (config_.reactiveRebalance) {
        for (auto &manager : managers_)
            counters_.rebalanceActions += manager->rebalance();
    }

    // Keep-alive windows.
    if (config_.keepAliveTtl > sim::SimTime::zero()) {
        for (std::size_t m = 0; m < managers_.size(); ++m)
            counters_.keepAliveExpired +=
                cluster_.platform(m).expireIdle(config_.keepAliveTtl);
    }

    pressurePass();

    if (cluster_.machineCount() > 1)
        crossRackPass();

    for (FnState &state : fns_) {
        state.sinceTick = 0;
        std::fill(state.perMachine.begin(), state.perMachine.end(), 0u);
    }
}

void
FleetAutoscaler::finalize()
{
    for (FnState &state : fns_) {
        if (state.prewarmed && state.sforksAfterPrewarm == 0)
            ++counters_.prewarmFalsePositives;
    }
}

std::size_t
FleetAutoscaler::residentBytes(std::size_t machine) const
{
    // Resident state regions compete with instances for machine RAM,
    // so they join the same memory-pressure budget (zero on stateless
    // fleets — the store is pay-for-use).
    return cluster_.platform(machine).residentBytes() +
           cluster_.stateResidentBytes(machine);
}

std::size_t
FleetAutoscaler::fleetResidentBytes() const
{
    std::size_t total = 0;
    for (std::size_t m = 0; m < managers_.size(); ++m)
        total += residentBytes(m);
    return total;
}

} // namespace catalyzer::load
