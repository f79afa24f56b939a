#include "platform/policy.h"

#include <algorithm>

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::platform {

namespace {

/** Multiplicative decay applied to traffic counters at each rebalance. */
constexpr double kDecay = 0.5;

/** Counters decayed below this snap to zero (the function is cold; pure
 *  multiplicative decay would otherwise never reach it). */
constexpr double kColdFloor = 0.05;

} // namespace

BootPolicyManager::BootPolicyManager(ServerlessPlatform &platform,
                                     PolicyConfig config)
    : platform_(platform), config_(config)
{
}

InvocationRecord
BootPolicyManager::invoke(const std::string &function_name)
{
    observe(function_name);
    return platform_.invoke(function_name);
}

BootPolicyManager::FunctionState &
BootPolicyManager::stateOf(const std::string &function_name)
{
    FunctionState &state = functions_[function_name];
    if (!state.artifacts)
        state.artifacts = platform_.registry().find(function_name);
    return state;
}

void
BootPolicyManager::observe(const std::string &function_name)
{
    stateOf(function_name).recentInvocations += 1.0;
}

void
BootPolicyManager::grantPrewarmCredit(const std::string &function_name,
                                      double weight)
{
    FunctionState &state = stateOf(function_name);
    state.recentInvocations = std::max(state.recentInvocations, weight);
}

void
BootPolicyManager::setTemplateMemoryBudget(std::size_t bytes)
{
    config_.templateMemoryBudgetBytes = bytes;
}

std::size_t
BootPolicyManager::rebalance()
{
    std::size_t builds = 0;
    std::size_t drops = 0;

    // Rank candidates by recent traffic.
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto &[name, state] : functions_)
        ranked.emplace_back(state.recentInvocations, name);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });

    // Greedily keep templates for the top scorers within the budget.
    std::size_t used = 0;
    for (const auto &[s, name] : ranked) {
        FunctionState &state = stateOf(name);
        const bool hot = state.recentInvocations >=
                         static_cast<double>(config_.hotThreshold);
        if (hot) {
            if (!templateOf(state)) {
                // Deployed functions (fleet populations included) come
                // from the registry; the app catalog is the fallback for
                // names observed before deploy().
                if (!state.artifacts)
                    state.artifacts = &platform_.registry().artifactsFor(
                        apps::appByName(name));
                platform_.catalyzer().prepareTemplate(*state.artifacts);
                ++builds;
            }
            const std::size_t cost = templateOf(state)->rssBytes();
            if (used + cost > config_.templateMemoryBudgetBytes) {
                // Over budget: this one (and everything colder) goes.
                state.artifacts->templateSandbox.reset();
                ++drops;
            } else {
                used += cost;
                continue;
            }
        }
        if (!hot && templateOf(state)) {
            state.artifacts->templateSandbox.reset();
            ++drops;
        }
    }
    const std::size_t actions = builds + drops;

    // Decay the traffic counters.
    for (auto &[name, state] : functions_) {
        state.recentInvocations *= kDecay;
        if (state.recentInvocations < kColdFloor)
            state.recentInvocations = 0.0;
    }

    // Windowed policy series: hot-set size and churn per rebalance.
    // Like every win.* series these never appear in writeJson(), so
    // plain metrics snapshots are unchanged byte for byte.
    std::size_t hot_set = 0;
    for (const auto &[name, state] : functions_) {
        if (templateOf(state))
            ++hot_set;
    }
    auto &stats = platform_.machine().ctx().stats();
    const sim::SimTime now = platform_.machine().ctx().clock().now();
    stats.observeWindowed(metrics::kWinPolicyHotSet, now,
                          static_cast<double>(hot_set));
    stats.observeWindowed(metrics::kWinPolicyTemplateBuilds, now,
                          static_cast<double>(builds));
    stats.observeWindowed(metrics::kWinPolicyTemplateDrops, now,
                          static_cast<double>(drops));
    return actions;
}

std::size_t
BootPolicyManager::templateMemoryBytes() const
{
    std::size_t used = 0;
    for (const auto &[name, state] : functions_) {
        if (const sandbox::SandboxInstance *tmpl = templateOf(state))
            used += tmpl->rssBytes();
    }
    return used;
}

std::vector<std::string>
BootPolicyManager::templatedFunctions() const
{
    std::vector<std::string> out;
    for (const auto &[name, state] : functions_) {
        if (templateOf(state))
            out.push_back(name);
    }
    return out;
}

} // namespace catalyzer::platform
