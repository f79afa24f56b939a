/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * Every stochastic element of the simulation (tail-latency bursts, working
 * set sampling, request arrival jitter) draws from a seeded Rng so that runs
 * are reproducible. No component may use std::random_device or wall time.
 */

#ifndef CATALYZER_SIM_RNG_H
#define CATALYZER_SIM_RNG_H

#include <cstdint>

namespace catalyzer::sim {

/**
 * xoshiro256** generator with SplitMix64 seeding.
 *
 * Small, fast and high quality; good enough for latency-model sampling.
 */
class Rng
{
  public:
    /** Seed deterministically; the same seed yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, bound) with rejection to avoid modulo bias. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /**
     * Sample an exponential distribution with the given mean.
     * Used for request inter-arrival times.
     */
    double exponential(double mean);

    /**
     * Sample a bounded Pareto-ish heavy tail in [lo, hi].
     * Used for syscall tail-latency bursts (e.g. dup fdtable expansion).
     */
    double heavyTail(double lo, double hi, double alpha = 1.5);

  private:
    std::uint64_t s_[4];
};

} // namespace catalyzer::sim

#endif // CATALYZER_SIM_RNG_H
