#include "load/traffic.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"

namespace catalyzer::load {

namespace {

/** Functions from this rank on arrive as MMPP on-off bursts (the
 *  idle-then-spiky long tail) instead of plain Poisson. */
constexpr std::size_t kBurstyRankFloor = 64;
constexpr double kBurstMeanOnSec = 0.5;
constexpr double kBurstMeanOffSec = 4.5;

/** Diurnal rate swing around each function's base rate. */
constexpr double kDiurnalAmplitude = 0.8;

/** TenantChurn: share of tenants active per epoch, and the share of
 *  its base rate an inactive tenant keeps as a trickle. */
constexpr double kChurnActiveFraction = 0.25;
constexpr double kChurnTrickleFraction = 0.02;

/** Independent per-function generator: a splitmix-style mix of the
 *  scenario seed and the function index, so adding a function never
 *  perturbs any other function's sub-stream. */
sim::Rng
fnRng(std::uint64_t seed, std::size_t fn_index)
{
    const std::uint64_t mixed =
        seed ^ (0x9e3779b97f4a7c15ULL * (fn_index + 1));
    return sim::Rng(mixed);
}

/** Steady sub-stream: Poisson head, MMPP-bursty tail, same mean. */
void
appendSteady(sim::Rng &rng, const FleetFunction &fn,
             const TrafficSpec &spec, std::vector<double> &out)
{
    if (fn.baseRps <= 0.0)
        return;
    if (fn.rank >= kBurstyRankFloor) {
        appendMmppTimes(rng,
                        MmppParams::withMeanRate(fn.baseRps,
                                                 kBurstMeanOnSec,
                                                 kBurstMeanOffSec),
                        spec.durationSec, out);
    } else {
        appendPoissonTimes(rng, fn.baseRps, spec.durationSec, out);
    }
}

/** Flash-crowd spike rate for one crowd function at time t. */
double
flashRateAt(const TrafficSpec &spec, double t)
{
    const double ramp_end = spec.flashAtSec + spec.flashRampSec;
    const double hold_end = ramp_end + spec.flashHoldSec;
    if (t < spec.flashAtSec || t >= hold_end)
        return 0.0;
    if (t < ramp_end)
        return spec.flashRpsPerFunction *
               (t - spec.flashAtSec) / spec.flashRampSec;
    return spec.flashRpsPerFunction;
}

/** Thinned nonhomogeneous stream for the flash spike. */
void
appendFlashTimes(sim::Rng &rng, const TrafficSpec &spec,
                 std::vector<double> &out)
{
    const double peak = spec.flashRpsPerFunction;
    if (peak <= 0.0)
        return;
    const double hold_end =
        spec.flashAtSec + spec.flashRampSec + spec.flashHoldSec;
    double t = spec.flashAtSec;
    for (;;) {
        t += rng.exponential(1.0 / peak);
        if (t >= std::min(hold_end, spec.durationSec))
            break;
        if (rng.uniform() * peak < flashRateAt(spec, t))
            out.push_back(t);
    }
}

/** Tenant-churn sub-stream: piecewise-homogeneous over epochs. */
void
appendChurn(sim::Rng &rng, const FleetFunction &fn,
            const TrafficSpec &spec, std::size_t tenants,
            std::vector<double> &out)
{
    if (fn.baseRps <= 0.0 || spec.churnEpochSec <= 0.0)
        return;
    const std::size_t active_count = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               kChurnActiveFraction * static_cast<double>(tenants))));
    double t = 0.0;
    std::size_t epoch = 0;
    while (t < spec.durationSec) {
        const double epoch_end =
            std::min(t + spec.churnEpochSec, spec.durationSec);
        // Tenant t is active in epoch e iff (tenant + e) mod tenants
        // falls in the active window — the window slides one tenant per
        // epoch, so the hot set churns completely over a full rotation.
        const bool active =
            (fn.tenant + epoch) % std::max<std::size_t>(tenants, 1) <
            active_count;
        // Conserve fleet-wide rate: active tenants concentrate the
        // traffic their idle peers give up.
        const double rate =
            active ? fn.baseRps / kChurnActiveFraction
                   : fn.baseRps * kChurnTrickleFraction;
        if (rate > 0.0) {
            double a = t;
            for (;;) {
                a += rng.exponential(1.0 / rate);
                if (a >= epoch_end)
                    break;
                out.push_back(a);
            }
        }
        t = epoch_end;
        ++epoch;
    }
}

} // namespace

const char *
scenarioName(Scenario scenario)
{
    switch (scenario) {
      case Scenario::Steady: return "steady";
      case Scenario::Diurnal: return "diurnal";
      case Scenario::FlashCrowd: return "flash-crowd";
      case Scenario::TenantChurn: return "tenant-churn";
    }
    return "?";
}

std::vector<FleetArrival>
generateFleetStream(const Population &population, const TrafficSpec &spec)
{
    if (spec.durationSec <= 0.0)
        sim::fatal("generateFleetStream: non-positive duration");

    std::vector<FleetArrival> merged;
    // Rough capacity guess: total rate * duration, plus flash volume.
    merged.reserve(static_cast<std::size_t>(
        population.spec().totalRps * spec.durationSec * 1.25));

    std::vector<double> times;
    for (const FleetFunction &fn : population.functions()) {
        times.clear();
        sim::Rng rng = fnRng(spec.seed, fn.index);
        switch (spec.scenario) {
          case Scenario::Steady:
            appendSteady(rng, fn, spec, times);
            break;
          case Scenario::Diurnal: {
            DiurnalCurve curve;
            curve.baseRate = fn.baseRps;
            curve.amplitude = kDiurnalAmplitude;
            curve.periodSec = spec.diurnalPeriodSec;
            // Tenants peak at different times of "day".
            curve.phase = 6.283185307179586 *
                          static_cast<double>(fn.tenant) /
                          static_cast<double>(std::max<std::size_t>(
                              population.tenantCount(), 1));
            appendDiurnalTimes(rng, curve, spec.durationSec, times);
            break;
          }
          case Scenario::FlashCrowd: {
            appendSteady(rng, fn, spec, times);
            // The crowd hits the *coldest* functions: highest ranks,
            // which the policy layer has no reason to keep warm.
            const std::size_t n = population.size();
            if (spec.flashFunctions > 0 &&
                fn.rank + spec.flashFunctions >= n)
                appendFlashTimes(rng, spec, times);
            break;
          }
          case Scenario::TenantChurn:
            appendChurn(rng, fn, spec, population.tenantCount(), times);
            break;
        }
        for (double t : times)
            merged.push_back(
                FleetArrival{t, static_cast<std::uint32_t>(fn.index)});
    }

    if (spec.workflowRps > 0.0) {
        // The workflow side stream draws from its own generator (an
        // index no function can use), so turning it on never perturbs
        // any function sub-stream.
        times.clear();
        sim::Rng rng =
            fnRng(spec.seed ^ 0xdab0ull, population.size() + (1ull << 32));
        appendPoissonTimes(rng, spec.workflowRps, spec.durationSec,
                           times);
        for (double t : times)
            merged.push_back(FleetArrival{t, 0xffffffffu, 0});
    }

    std::sort(merged.begin(), merged.end(),
              [](const FleetArrival &a, const FleetArrival &b) {
                  if (a.atSec != b.atSec)
                      return a.atSec < b.atSec;
                  return a.fn < b.fn;
              });
    // Round-robin the workflow kinds in time order, after the merge,
    // so the k-th workflow arrival runs spec k mod kinds regardless of
    // how the side stream interleaves with function traffic.
    const std::size_t kinds = std::max<std::size_t>(1, spec.workflowKinds);
    std::size_t next_kind = 0;
    for (FleetArrival &arrival : merged) {
        if (arrival.fn == 0xffffffffu)
            arrival.workflow =
                static_cast<std::int32_t>(next_kind++ % kinds);
    }
    return merged;
}

} // namespace catalyzer::load
