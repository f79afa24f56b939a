/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries.
 *
 * Every binary regenerates one table or figure of the Catalyzer paper
 * (ASPLOS'20) from the simulated mechanisms, printing the same rows or
 * series the paper reports, plus the paper's reference numbers where the
 * text states them.
 */

#ifndef CATALYZER_BENCH_BENCH_UTIL_H
#define CATALYZER_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <vector>

#include "sim/logging.h"

namespace catalyzer::bench {

/** Standard banner naming the experiment being reproduced. */
inline void
banner(const char *figure, const char *description)
{
    std::printf("==============================================================\n");
    std::printf("Catalyzer reproduction: %s\n", figure);
    std::printf("%s\n", description);
    std::printf("==============================================================\n\n");
}

/** Closing note emitted by every harness. */
inline void
footer()
{
    std::printf("\nnote: latencies are virtual-clock values from the "
                "simulated host;\n"
                "      compare shapes and ratios against the paper, not "
                "absolute walltime.\n");
}

/**
 * Parse @p value, the text of environment variable @p name, as a
 * non-negative decimal integer; unset or empty gives @p fallback. The
 * whole text must parse: "-1", "1e3" or "12abc" is fatal and names the
 * variable, instead of wrapping, truncating or reading as zero.
 */
inline std::size_t
parseSizeVar(const char *name, const char *value, std::size_t fallback)
{
    if (value == nullptr || *value == '\0')
        return fallback;
    const char *end = value + std::strlen(value);
    std::size_t out = 0;
    const auto [ptr, ec] = std::from_chars(value, end, out);
    if (ec != std::errc() || ptr != end)
        sim::fatal("%s=\"%s\": expected a non-negative integer", name,
                   value);
    return out;
}

/** parseSizeVar for a finite, non-negative decimal number. */
inline double
parseDoubleVar(const char *name, const char *value, double fallback)
{
    if (value == nullptr || *value == '\0')
        return fallback;
    const char *end = value + std::strlen(value);
    double out = 0.0;
    const auto [ptr, ec] = std::from_chars(value, end, out);
    if (ec != std::errc() || ptr != end || !std::isfinite(out) ||
        out < 0.0)
        sim::fatal("%s=\"%s\": expected a non-negative number", name,
                   value);
    return out;
}

/** Size knob read from the environment (see parseSizeVar). */
inline std::size_t
envSize(const char *name, std::size_t fallback)
{
    return parseSizeVar(name, std::getenv(name), fallback);
}

/** Number knob read from the environment (see parseDoubleVar). */
inline double
envDouble(const char *name, double fallback)
{
    return parseDoubleVar(name, std::getenv(name), fallback);
}

/**
 * Instance counts of a scalability sweep to @p max_instances: 0, then
 * steps of a tenth of the maximum (at least one instance), up to the
 * maximum.
 */
inline std::vector<std::size_t>
sweepSteps(std::size_t max_instances)
{
    const std::size_t step = std::max<std::size_t>(max_instances / 10, 1);
    std::vector<std::size_t> steps;
    for (std::size_t n = 0; n <= max_instances; n += step)
        steps.push_back(n);
    return steps;
}

/**
 * Print one scripted expectation as ok / VIOLATED; returns 1 when it
 * was violated and @p assert_mode turns violations into failures.
 */
inline int
failures(bool assert_mode, bool ok, const char *what)
{
    std::printf("  [%s] %s\n", ok ? "ok" : "VIOLATED", what);
    return assert_mode && !ok ? 1 : 0;
}

} // namespace catalyzer::bench

#endif // CATALYZER_BENCH_BENCH_UTIL_H
