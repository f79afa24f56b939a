#include "load/arrival.h"

#include <algorithm>
#include <cmath>

namespace catalyzer::load {

void
appendPoissonTimes(sim::Rng &rng, double rate, double duration_sec,
                   std::vector<double> &out)
{
    if (rate <= 0.0)
        return;
    double t = 0.0;
    for (;;) {
        t += rng.exponential(1.0 / rate);
        if (t >= duration_sec)
            break;
        out.push_back(t);
    }
}

MmppParams
MmppParams::withMeanRate(double mean_rate, double mean_on_sec,
                         double mean_off_sec, double off_fraction)
{
    MmppParams p;
    p.meanOnSec = mean_on_sec;
    p.meanOffSec = mean_off_sec;
    const double cycle = mean_on_sec + mean_off_sec;
    // Split the expected arrivals per cycle between the states: the OFF
    // state serves off_fraction of them as a trickle, the ON state
    // concentrates the rest into the burst.
    p.offRate = mean_off_sec > 0.0
                    ? mean_rate * cycle * off_fraction / mean_off_sec
                    : 0.0;
    p.onRate = mean_on_sec > 0.0
                   ? mean_rate * cycle * (1.0 - off_fraction) / mean_on_sec
                   : 0.0;
    return p;
}

void
appendMmppTimes(sim::Rng &rng, const MmppParams &params,
                double duration_sec, std::vector<double> &out)
{
    // Piecewise-homogeneous generation: draw the state dwell, then the
    // arrivals inside it from scratch. Restarting the exponential at
    // each segment boundary is exact (memorylessness).
    if (params.meanOnSec <= 0.0 && params.meanOffSec <= 0.0)
        return; // zero-length dwells in both states would never advance
    double t = 0.0;
    bool on = params.startOn;
    while (t < duration_sec) {
        const double mean_dwell = on ? params.meanOnSec
                                     : params.meanOffSec;
        const double dwell =
            mean_dwell > 0.0 ? rng.exponential(mean_dwell) : 0.0;
        const double seg_end = std::min(t + dwell, duration_sec);
        const double rate = on ? params.onRate : params.offRate;
        if (rate > 0.0) {
            double a = t;
            for (;;) {
                a += rng.exponential(1.0 / rate);
                if (a >= seg_end)
                    break;
                out.push_back(a);
            }
        }
        t += dwell;
        on = !on;
    }
}

double
DiurnalCurve::rateAt(double t_sec) const
{
    constexpr double kTau = 6.283185307179586;
    return baseRate *
           (1.0 + amplitude * std::sin(kTau * t_sec / periodSec + phase));
}

void
appendDiurnalTimes(sim::Rng &rng, const DiurnalCurve &curve,
                   double duration_sec, std::vector<double> &out)
{
    const double peak = curve.baseRate * (1.0 + std::abs(curve.amplitude));
    if (peak <= 0.0)
        return;
    double t = 0.0;
    for (;;) {
        t += rng.exponential(1.0 / peak);
        if (t >= duration_sec)
            break;
        // Thinning: accept with probability rate(t) / peak.
        if (rng.uniform() * peak < curve.rateAt(t))
            out.push_back(t);
    }
}

} // namespace catalyzer::load
