#include "faults/fault_injector.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::faults {

namespace {
/** Seed of every injector's private RNG stream (never the machine's). */
constexpr std::uint64_t kInjectorSeed = 0xfa171eULL;
} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
    case FaultSite::ImageFetch:
        return "image_fetch";
    case FaultSite::ImageCorruption:
        return "image_corruption";
    case FaultSite::IoReconnect:
        return "io_reconnect";
    case FaultSite::ZygoteBuild:
        return "zygote_build";
    case FaultSite::TemplateDeath:
        return "template_death";
    case FaultSite::Sfork:
        return "sfork";
    case FaultSite::NetLink:
        return "net_link";
    case FaultSite::ReplicaMiss:
        return "replica_miss";
    case FaultSite::RemotePeerDeath:
        return "remote_peer_death";
    }
    sim::panic("faultSiteName: bad site %d", static_cast<int>(site));
}

sim::SimTime
retryBackoff(int attempt, sim::Rng &rng)
{
    if (attempt < 1)
        attempt = 1;
    double ns = static_cast<double>(kInitialBackoff.toNs()) *
                std::pow(2.0, attempt - 1);
    ns = std::min(ns, static_cast<double>(kMaxBackoff.toNs()));
    ns *= rng.uniform(1.0 - kJitterFraction, 1.0 + kJitterFraction);
    return sim::SimTime::nanoseconds(static_cast<std::int64_t>(ns));
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(config), rng_(kInjectorSeed)
{}

bool
FaultInjector::enabled() const
{
    for (double p : config_.probability)
        if (p > 0.0)
            return true;
    for (std::uint64_t n : pending_)
        if (n > 0)
            return true;
    return false;
}

void
FaultInjector::failNext(FaultSite site, std::uint64_t n)
{
    pending_[static_cast<std::size_t>(site)] += n;
}

void
FaultInjector::record(FaultSite site, sim::StatRegistry &stats)
{
    ++injected_[static_cast<std::size_t>(site)];
    stats.incr(metrics::kFaultsInjected.member(faultSiteName(site)));
    sim::debugLog("fault injected at %s (#%llu)", faultSiteName(site),
                  static_cast<unsigned long long>(
                      injected_[static_cast<std::size_t>(site)]));
    if (on_inject_)
        on_inject_(site);
}

bool
FaultInjector::shouldFail(FaultSite site, sim::StatRegistry &stats)
{
    const std::size_t i = static_cast<std::size_t>(site);
    if (pending_[i] > 0) {
        --pending_[i];
        record(site, stats);
        return true;
    }
    const double p = config_.probability[i];
    if (p > 0.0 && rng_.chance(p)) {
        record(site, stats);
        return true;
    }
    return false;
}

void
FaultInjector::checkWithRetry(sim::SimContext &ctx, FaultSite site)
{
    for (int attempt = 1; shouldFail(site, ctx.stats()); ++attempt) {
        ctx.charge(kAttemptTimeout);
        if (attempt >= kMaxAttempts)
            throw FaultError(site,
                             std::string(faultSiteName(site)) +
                                 " failed after " +
                                 std::to_string(kMaxAttempts) +
                                 " attempts");
        ctx.stats().incr(
            metrics::kFaultsRetries.member(faultSiteName(site)));
        ctx.charge(retryBackoff(attempt, rng_));
    }
}

} // namespace catalyzer::faults
