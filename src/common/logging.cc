#include "common/logging.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace aeo {

namespace {
std::atomic<LogLevel> g_log_level{LogLevel::kWarn};

const char*
LevelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::kWarn:
        return "warn";
      case LogLevel::kQuiet:
        return "quiet";
    }
    return "?";
}
}  // namespace

LogLevel
GetLogLevel()
{
    return g_log_level.load(std::memory_order_relaxed);
}

void
SetLogLevel(LogLevel level)
{
    g_log_level.store(level, std::memory_order_relaxed);
}

namespace internal {

// aeo: hot-path-stop -- diagnostic output: logging formats and writes by
// design, and hot-path callers reach it only on warn/failure slow paths.
void
LogMessage(LogLevel level, const std::string& msg)
{
    if (static_cast<int>(level) < static_cast<int>(GetLogLevel())) {
        return;
    }
    std::fprintf(stderr, "[aeo:%s] %s\n", LevelTag(level), msg.c_str());
}

void
PanicMessage(const std::string& msg, const char* file, int line)
{
    std::fprintf(stderr, "[aeo:panic] %s:%d: %s\n", file, line, msg.c_str());
    std::abort();
}

void
AssertFailed(const char* cond, const char* file, int line, const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string message = std::string("assertion failed: ") + cond +
                                StrFormatV(fmt, args);
    va_end(args);
    PanicMessage(message, file, line);
}

}  // namespace internal
}  // namespace aeo
