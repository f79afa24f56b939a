#include "sim/logging.h"

#include <cctype>
#include <cstdio>

namespace catalyzer::sim {

namespace {

/**
 * The process's verbosity, fixed at startup: CATALYZER_LOG_LEVEL, else
 * Warn (tests stay quiet).
 */
LogLevel
initialLogLevel()
{
    return parseLogLevel(std::getenv("CATALYZER_LOG_LEVEL"),
                         LogLevel::Warn);
}

const LogLevel global_level = initialLogLevel();

void
vreport(const char *tag, const char *fmt, std::va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
}

} // namespace

LogLevel
parseLogLevel(const char *text, LogLevel fallback)
{
    if (text == nullptr)
        return fallback;
    std::string lower;
    for (const char *p = text; *p != '\0'; ++p)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(*p)));
    if (lower == "silent" || lower == "0")
        return LogLevel::Silent;
    if (lower == "warn" || lower == "1")
        return LogLevel::Warn;
    if (lower == "inform" || lower == "2")
        return LogLevel::Inform;
    if (lower == "debug" || lower == "3")
        return LogLevel::Debug;
    return fallback;
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (global_level < LogLevel::Warn)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
debugLog(const char *fmt, ...)
{
    if (global_level < LogLevel::Debug)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("debug", fmt, ap);
    va_end(ap);
}

} // namespace catalyzer::sim
