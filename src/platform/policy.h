/**
 * @file
 * Traffic-based boot-policy management (paper Sec. 6.9).
 *
 * Fork boot is the fastest path but each template sandbox holds real
 * memory (a SPECjbb template costs >200 MB), so a platform must choose
 * *which* functions deserve one. The paper's guidance for public
 * platforms is observed traffic. BootPolicyManager implements that: it
 * ranks functions by recent invocation rate and keeps templates for the
 * hot ones within a memory budget, falling back to warm/cold restore
 * for everything else (the platform's CatalyzerAuto strategy escalates
 * automatically once a template exists).
 */

#ifndef CATALYZER_PLATFORM_POLICY_H
#define CATALYZER_PLATFORM_POLICY_H

#include <map>
#include <string>
#include <vector>

#include "platform/platform.h"

namespace catalyzer::platform {

/** Policy knobs. */
struct PolicyConfig
{
    /** Total memory the template pool may hold. */
    std::size_t templateMemoryBudgetBytes = 512u << 20;
    /** Invocations (decayed at each rebalance) for a function to be
     *  considered hot. */
    std::size_t hotThreshold = 4;
};

/**
 * Tracks traffic, ranks functions and maintains the template pool.
 * Use it as the invoke() front door so observations stay accurate.
 */
class BootPolicyManager
{
  public:
    BootPolicyManager(ServerlessPlatform &platform, PolicyConfig config);

    /** Invoke through the policy (observes traffic). */
    InvocationRecord invoke(const std::string &function_name);

    /** Record an invocation made directly on the platform. */
    void observe(const std::string &function_name);

    /**
     * Raise a function's traffic counter to at least @p weight so the
     * next rebalances treat it as hot. Used by predictive pre-warm: the
     * build lands *before* the burst, and without the credit the very
     * next rebalance would drop the template it just paid for. Decay
     * ages the credit out normally if the predicted traffic never comes.
     */
    void grantPrewarmCredit(const std::string &function_name,
                            double weight);

    /** Replace the template-pool memory budget (autoscaling). */
    void setTemplateMemoryBudget(std::size_t bytes);

    /**
     * Re-evaluate the template pool: build templates for the hottest
     * functions while under the memory budget; drop
     * templates whose functions went cold. Template presence is read
     * from each function's artifacts, so a template built elsewhere (a
     * fleet autoscaler's pre-warm) is managed like one built here.
     * Returns the number of template builds plus drops performed.
     */
    std::size_t rebalance();

    /** Current template-pool memory of the observed functions. */
    std::size_t templateMemoryBytes() const;

    /** Observed functions currently holding a template. */
    std::vector<std::string> templatedFunctions() const;

    const PolicyConfig &config() const { return config_; }

  private:
    struct FunctionState
    {
        double recentInvocations = 0.0;
        /** The function's record on this machine; null until it is
         *  deployed. */
        sandbox::FunctionArtifacts *artifacts = nullptr;
    };

    /** @p function_name's state, its artifacts resolved if deployed. */
    FunctionState &stateOf(const std::string &function_name);

    /** @p state's template, or nullptr. */
    static const sandbox::SandboxInstance *
    templateOf(const FunctionState &state)
    {
        return state.artifacts ? state.artifacts->templateSandbox.get()
                               : nullptr;
    }

    ServerlessPlatform &platform_;
    PolicyConfig config_;
    std::map<std::string, FunctionState> functions_;
};

} // namespace catalyzer::platform

#endif // CATALYZER_PLATFORM_POLICY_H
