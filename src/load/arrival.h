/**
 * @file
 * Arrival-stream generation: the stochastic processes every traffic
 * source in the repo draws from.
 *
 * Three processes cover the production shapes the fleet engine needs:
 * homogeneous Poisson (steady open-loop load), a two-state
 * Markov-modulated Poisson process (on/off bursts — the long tail of a
 * real tenant population is idle most of the time and spikes hard), and
 * a sinusoidal-rate nonhomogeneous Poisson process generated by
 * Lewis-Shedler thinning (diurnal curves). All draws come from a caller
 * seeded sim::Rng, so a stream is a pure function of its seed.
 */

#ifndef CATALYZER_LOAD_ARRIVAL_H
#define CATALYZER_LOAD_ARRIVAL_H

#include <vector>

#include "sim/rng.h"

namespace catalyzer::load {

/**
 * Append the arrival times (virtual seconds in [0, @p duration_sec)) of
 * a homogeneous Poisson process with mean @p rate arrivals/sec to
 * @p out. No-op when @p rate <= 0. Draws exactly one exponential per
 * emitted arrival plus one for the terminating overshoot, in time
 * order.
 */
void appendPoissonTimes(sim::Rng &rng, double rate, double duration_sec,
                        std::vector<double> &out);

/**
 * Two-state Markov-modulated Poisson process: dwell times in the ON and
 * OFF states are exponential, and arrivals within a state are Poisson
 * at that state's rate. The long-run mean rate is
 *   (onRate * meanOnSec + offRate * meanOffSec) /
 *   (meanOnSec + meanOffSec).
 */
struct MmppParams
{
    double onRate = 10.0;   ///< arrivals/sec while bursting
    double offRate = 0.5;   ///< arrivals/sec between bursts
    double meanOnSec = 1.0; ///< mean burst length
    double meanOffSec = 4.0;///< mean gap between bursts
    bool startOn = false;

    /**
     * Parameters with the given long-run @p mean_rate, burst duty cycle
     * (@p meanOnSec / (@p meanOnSec + @p meanOffSec)) and
     * @p off_fraction of the mean served in the OFF state. This is how
     * the traffic engine turns a function's Zipf share into bursty
     * arrivals without changing its expected request count.
     */
    static MmppParams withMeanRate(double mean_rate, double mean_on_sec,
                                   double mean_off_sec,
                                   double off_fraction = 0.1);
};

/** Append MMPP arrival times in [0, @p duration_sec) to @p out. */
void appendMmppTimes(sim::Rng &rng, const MmppParams &params,
                     double duration_sec, std::vector<double> &out);

/**
 * Sinusoidal diurnal rate curve:
 *   rate(t) = baseRate * (1 + amplitude * sin(2*pi*t/periodSec + phase))
 * with amplitude in [0, 1] so the rate never goes negative. The mean
 * rate over a whole period is baseRate.
 */
struct DiurnalCurve
{
    double baseRate = 1.0;
    double amplitude = 0.5;
    double periodSec = 60.0;
    double phase = 0.0; ///< radians; shifts where the peak falls

    double rateAt(double t_sec) const;
};

/**
 * Append arrival times of the nonhomogeneous Poisson process defined by
 * @p curve over [0, @p duration_sec) to @p out (Lewis-Shedler thinning
 * against the curve's peak rate).
 */
void appendDiurnalTimes(sim::Rng &rng, const DiurnalCurve &curve,
                        double duration_sec, std::vector<double> &out);

} // namespace catalyzer::load

#endif // CATALYZER_LOAD_ARRIVAL_H
