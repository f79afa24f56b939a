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

void
BootPolicyManager::observe(const std::string &function_name)
{
    functions_[function_name].recentInvocations += 1.0;
}

void
BootPolicyManager::noteExternalTemplate(const std::string &function_name)
{
    functions_[function_name].hasTemplate = true;
}

void
BootPolicyManager::grantPrewarmCredit(const std::string &function_name,
                                      double weight)
{
    FunctionState &state = functions_[function_name];
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
    auto &runtime = platform_.catalyzer();
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
        FunctionState &state = functions_[name];
        const bool hot = state.recentInvocations >=
                         static_cast<double>(config_.hotThreshold);
        if (hot) {
            if (!state.hasTemplate) {
                // Deployed functions (fleet populations included) come
                // from the registry; the app catalog is the fallback for
                // names observed before deploy().
                sandbox::FunctionArtifacts *fn =
                    platform_.registry().find(name);
                platform_.catalyzer().prepareTemplate(
                    fn ? *fn
                       : platform_.registry().artifactsFor(
                             apps::appByName(name)));
                state.hasTemplate = true;
                ++builds;
            }
            const auto *tmpl = runtime.templateFor(name);
            const std::size_t cost = tmpl ? tmpl->rssBytes() : 0;
            if (used + cost > config_.templateMemoryBudgetBytes) {
                // Over budget: this one (and everything colder) goes.
                runtime.dropTemplate(name);
                state.hasTemplate = false;
                ++drops;
            } else {
                used += cost;
                continue;
            }
        }
        if (!hot && state.hasTemplate) {
            runtime.dropTemplate(name);
            state.hasTemplate = false;
            ++drops;
        }
    }
    std::size_t actions = builds + drops;

    // Reclaim the restore artifacts of fully cold functions; prefetch
    // rebuilds their working set cheaply on the next boot.
    if (config_.reclaimColdBases) {
        for (const auto &[name, state] : functions_) {
            if (state.recentInvocations > 0.0 || state.hasTemplate)
                continue;
            if (platform_.reclaimFunctionMemory(name) > 0)
                ++actions;
        }
    }

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
        if (state.hasTemplate)
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
    auto &runtime = platform_.catalyzer();
    for (const auto &[name, state] : functions_) {
        if (state.hasTemplate) {
            if (const auto *tmpl = runtime.templateFor(name))
                used += tmpl->rssBytes();
        }
    }
    return used;
}

std::vector<std::string>
BootPolicyManager::templatedFunctions() const
{
    std::vector<std::string> out;
    for (const auto &[name, state] : functions_) {
        if (state.hasTemplate)
            out.push_back(name);
    }
    return out;
}

} // namespace catalyzer::platform
