/**
 * @file
 * Small string utilities: printf-style formatting into std::string,
 * splitting, trimming and joining.
 */
#ifndef AEO_COMMON_STRINGS_H_
#define AEO_COMMON_STRINGS_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace aeo {

namespace internal {
std::string StrFormatImpl(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
/** StrFormatImpl() over a va_list, which it leaves to the caller to end. */
std::string StrFormatV(const char* fmt, va_list args)
    __attribute__((format(printf, 1, 0)));
}  // namespace internal

/**
 * Formats printf-style into a std::string.
 *
 * The format string is checked by the compiler against the arguments.
 */
// aeo: hot-path-stop -- string formatting allocates its result by design;
// hot-path callers only reach it through diagnostic or failure slow paths.
template <typename... Args>
std::string
StrFormat(const char* fmt, Args&&... args)
{
    if constexpr (sizeof...(Args) == 0) {
        return std::string(fmt);
    } else {
        return internal::StrFormatImpl(fmt, std::forward<Args>(args)...);
    }
}

/** Splits @p text on @p sep, keeping empty fields. */
std::vector<std::string> Split(std::string_view text, char sep);

/** Removes leading and trailing whitespace. */
std::string Trim(std::string_view text);

/** Joins @p parts with @p sep between elements. */
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/** Returns true if @p text begins with @p prefix. */
bool StartsWith(std::string_view text, std::string_view prefix);

/** Returns true if @p text ends with @p suffix. */
bool EndsWith(std::string_view text, std::string_view suffix);

/** Parses a double; returns false on malformed input. */
bool ParseDouble(std::string_view text, double* out);

/** Parses a non-negative long; returns false on malformed input. */
bool ParseInt64(std::string_view text, long long* out);

}  // namespace aeo

#endif  // AEO_COMMON_STRINGS_H_
