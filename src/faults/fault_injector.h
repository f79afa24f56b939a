/**
 * @file
 * Deterministic fault injection and retry policy for the boot paths.
 *
 * The paper's serving invariant is that the boot critical path is cheap
 * enough to re-run: on-demand restore falls back to demand paging
 * (Sec. 4), sfork falls back to restore (Sec. 5), and corrupted images
 * are rebuilt offline. This module provides the failure side of that
 * story: a seeded FaultInjector that can make any boot-path site fail
 * (per-site probability, or explicit "fail the next N" scripting), and
 * the one fixed retry policy every site re-attempts with (bounded
 * attempts, exponential backoff with jitter from sim::Rng, a
 * per-attempt timeout charged to the virtual clock).
 *
 * Injection is strictly pay-for-use: a disabled injector (all
 * probabilities zero, nothing scripted) never draws from
 * any RNG, never touches the virtual clock and never creates a counter,
 * so runs with fault injection off are bit-identical to runs without
 * the subsystem.
 *
 * When a site exhausts its retry budget it throws FaultError; the
 * platform layer catches it and degrades the boot one tier
 * (sfork -> warm restore -> cold restore -> fresh boot) instead of
 * failing the request.
 */

#ifndef CATALYZER_FAULTS_FAULT_INJECTOR_H
#define CATALYZER_FAULTS_FAULT_INJECTOR_H

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "sim/context.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace catalyzer::faults {

/** Boot-path operations that can be made to fail. */
enum class FaultSite
{
    ImageFetch = 0,     ///< remote func-image fetch dies mid-transfer
    ImageCorruption,    ///< func-image rots on storage (torn write)
    IoReconnect,        ///< re-establishing one I/O connection fails
    ZygoteBuild,        ///< building a Zygote sandbox fails
    TemplateDeath,      ///< the function's template sandbox died
    Sfork,              ///< the sfork syscall fails
    NetLink,            ///< a fabric link drops one transfer chunk
    ReplicaMiss,        ///< an advertised image replica is gone
    RemotePeerDeath,    ///< the remote-fork lender machine died
};

inline constexpr std::size_t kFaultSiteCount = 9;

/** Stable lower_snake_case name, used in counters and messages. */
const char *faultSiteName(FaultSite site);

//
// The retry policy of every fault site. A failed attempt costs
// kAttemptTimeout on the virtual clock (the time spent waiting for the
// operation to fail); before the next attempt the site sleeps an
// exponentially growing, jittered backoff (retryBackoff).
//
/** Total attempts (first try included) before a site gives up. */
inline constexpr int kMaxAttempts = 3;
/** Virtual time a failed attempt burns before it is detected. */
inline constexpr sim::SimTime kAttemptTimeout =
    sim::SimTime::milliseconds(2.0);
/** Backoff before the second attempt; doubles per attempt after. */
inline constexpr sim::SimTime kInitialBackoff =
    sim::SimTime::microseconds(500);
/** Backoff ceiling. */
inline constexpr sim::SimTime kMaxBackoff = sim::SimTime::milliseconds(8.0);
/** Uniform jitter: backoff scaled by [1-j, 1+j). */
inline constexpr double kJitterFraction = 0.25;

/**
 * Backoff to sleep before retrying after failed attempt number
 * @p attempt (1-based). Jitter draws from @p rng.
 */
sim::SimTime retryBackoff(int attempt, sim::Rng &rng);

/** Full fault-injection configuration for one machine. */
struct FaultConfig
{
    /** Per-site Bernoulli failure probability, indexed by FaultSite. */
    std::array<double, kFaultSiteCount> probability{};

    double &rate(FaultSite site)
    {
        return probability[static_cast<std::size_t>(site)];
    }
    /** Set every site to the same failure probability. */
    void setAllRates(double p) { probability.fill(p); }
};

/**
 * Thrown when a boot-path site exhausts its retry budget. The platform
 * catches it and degrades the boot one tier; it never escapes a
 * ServerlessPlatform::invoke().
 */
class FaultError : public std::runtime_error
{
  public:
    FaultError(FaultSite site, const std::string &what)
        : std::runtime_error(what), site_(site)
    {}

    FaultSite site() const { return site_; }

  private:
    FaultSite site_;
};

/**
 * The per-machine fault source. Sites ask shouldFail() before an
 * operation; tests and benches script deterministic failures with
 * failNext(). Every injection increments faults.injected.<site> in the
 * machine's StatRegistry.
 */
class FaultInjector
{
  public:
    /** With the default config, a disabled injector: shouldFail() is
     *  false and free until failNext() scripts a failure. */
    explicit FaultInjector(FaultConfig config = {});

    /**
     * Decide whether the next operation at @p site fails: scripted
     * failures first, then the per-site probability. Counts the
     * injection into @p stats.
     */
    bool shouldFail(FaultSite site, sim::StatRegistry &stats);

    /** Script: make the next @p n operations at @p site fail. */
    void failNext(FaultSite site, std::uint64_t n = 1);

    /**
     * The whole retry loop for one site, for operations whose failure
     * mode is "the attempt dies before doing work": consult the site up
     * to kMaxAttempts times; every injected failure charges the
     * attempt timeout, and a jittered backoff is charged before each
     * re-attempt. Throws FaultError when the last attempt also fails;
     * returns normally (with zero cost) when nothing is injected.
     */
    void checkWithRetry(sim::SimContext &ctx, FaultSite site);

    /** The injector's private jitter/decision stream. */
    sim::Rng &rng() { return rng_; }

    /** Injections delivered at @p site so far. */
    std::uint64_t injected(FaultSite site) const
    {
        return injected_[static_cast<std::size_t>(site)];
    }

    /**
     * Incident sink: called on every delivered injection (after the
     * counter is bumped), whether the site recovers via retry or
     * escalates to a tier fallback. The flight recorder hooks this to
     * capture a postmortem at the moment the fault fires. Pay-for-use
     * holds: with nothing injected the sink is never invoked.
     */
    void setOnInject(std::function<void(FaultSite)> sink)
    {
        on_inject_ = std::move(sink);
    }

  private:
    void record(FaultSite site, sim::StatRegistry &stats);

    FaultConfig config_;
    sim::Rng rng_;
    std::array<std::uint64_t, kFaultSiteCount> pending_{};
    std::array<std::uint64_t, kFaultSiteCount> injected_{};
    std::function<void(FaultSite)> on_inject_;
};

} // namespace catalyzer::faults

#endif // CATALYZER_FAULTS_FAULT_INJECTOR_H
