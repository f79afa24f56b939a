/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic() flags an internal library bug and aborts; fatal() flags a user
 * error (bad configuration, invalid arguments) and exits; warn() reports
 * a condition without stopping the run.
 */

#ifndef CATALYZER_SIM_LOGGING_H
#define CATALYZER_SIM_LOGGING_H

#include <cstdarg>
#include <cstdlib>
#include <string>

namespace catalyzer::sim {

/**
 * Verbosity levels for runtime messages. No message is at Inform, so it
 * prints what Warn prints.
 */
enum class LogLevel { Silent, Warn, Inform, Debug };

/**
 * Parse a verbosity name: "silent"/"warn"/"inform"/"debug"
 * (case-insensitive) or the numeric levels "0".."3". Returns
 * @p fallback for null or unrecognized input.
 */
LogLevel parseLogLevel(const char *text, LogLevel fallback);

/** Report an internal invariant violation and abort. Never returns. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user error and exit(1). Never returns. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Verbose tracing, off by default. */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace catalyzer::sim

#endif // CATALYZER_SIM_LOGGING_H
