/**
 * @file
 * Logging and error-reporting primitives.
 *
 * Follows gem5's message taxonomy (without its informational levels, which
 * nothing here emits):
 *  - Warn():   something may not be modelled perfectly but execution can
 *              continue.
 *  - Fatal():  the run cannot continue due to a user/configuration error;
 *              throws aeo::FatalError (callers such as `main` catch it and
 *              exit(1)).
 *  - Panic():  an internal invariant was violated (a library bug); aborts.
 */
#ifndef AEO_COMMON_LOGGING_H_
#define AEO_COMMON_LOGGING_H_

#include <stdexcept>
#include <string>

#include "common/strings.h"

namespace aeo {

/** Severity of a log message; kQuiet prints none. */
enum class LogLevel {
    kWarn = 0,
    kQuiet = 1,
};

/** Error thrown by Fatal(): unrecoverable user/configuration error. */
class FatalError : public std::runtime_error {
  public:
    explicit FatalError(const std::string& what) : std::runtime_error(what) {}
};

/** Returns the process-wide minimum level that will be printed. */
LogLevel GetLogLevel();

/** Sets the process-wide minimum level that will be printed. */
void SetLogLevel(LogLevel level);

namespace internal {
void LogMessage(LogLevel level, const std::string& msg);
[[noreturn]] void PanicMessage(const std::string& msg, const char* file, int line);
/**
 * AEO_ASSERT's failure path: panics with "assertion failed: <cond>" and the
 * formatted @p fmt, which the macro starts with " — ". Out of line and
 * cold, so a passing check costs its caller one compare and a branch.
 */
[[noreturn, gnu::cold]] void AssertFailed(const char* cond, const char* file,
                                          int line, const char* fmt, ...)
    __attribute__((format(printf, 4, 5)));
}  // namespace internal

/** Prints a warning: questionable modelling, execution continues. */
template <typename... Args>
void
Warn(const char* fmt, Args&&... args)
{
    internal::LogMessage(LogLevel::kWarn, StrFormat(fmt, std::forward<Args>(args)...));
}

/** Reports an unrecoverable user/configuration error by throwing FatalError. */
template <typename... Args>
[[noreturn]] void
Fatal(const char* fmt, Args&&... args)
{
    throw FatalError(StrFormat(fmt, std::forward<Args>(args)...));
}

/** Internal-invariant failure: prints and aborts. Use via AEO_PANIC. */
#define AEO_PANIC(...) \
    ::aeo::internal::PanicMessage(::aeo::StrFormat(__VA_ARGS__), __FILE__, __LINE__)

/**
 * Checks an internal invariant; panics with the expression text and the
 * optional printf-style message on failure.
 */
#define AEO_ASSERT(cond, ...)                                                      \
    do {                                                                           \
        if (!(cond)) [[unlikely]] {                                                \
            ::aeo::internal::AssertFailed(#cond, __FILE__, __LINE__,               \
                                          " — " __VA_ARGS__);                      \
        }                                                                          \
    } while (false)

}  // namespace aeo

#endif  // AEO_COMMON_LOGGING_H_
