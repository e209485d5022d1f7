#include "common/strings.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cctype>

namespace aeo {

namespace internal {

// aeo: hot-path-stop -- string formatting allocates its result by design;
// hot-path callers only reach it through diagnostic or failure slow paths.
std::string
StrFormatImpl(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = StrFormatV(fmt, args);
    va_end(args);
    return out;
}

std::string
StrFormatV(const char* fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<size_t>(needed));
        // +1 for the terminating NUL vsnprintf always writes.
        std::vsnprintf(out.data(), static_cast<size_t>(needed) + 1, fmt, args);
    }
    return out;
}

}  // namespace internal

std::vector<std::string>
Split(std::string_view text, char sep)
{
    std::vector<std::string> fields;
    size_t start = 0;
    while (true) {
        const size_t pos = text.find(sep, start);
        if (pos == std::string_view::npos) {
            fields.emplace_back(text.substr(start));
            break;
        }
        fields.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return fields;
}

std::string
Trim(std::string_view text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return std::string(text.substr(begin, end - begin));
}

std::string
Join(const std::vector<std::string>& parts, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) {
            out.append(sep);
        }
        out.append(parts[i]);
    }
    return out;
}

bool
StartsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool
EndsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

namespace {

/**
 * Copies @p text, stripped of surrounding whitespace, into the fixed
 * buffer @p buf as a NUL-terminated string. Returns the stripped length,
 * or 0 if the input is empty/blank or longer than the buffer holds — no
 * numeric literal the parsers accept comes anywhere near that long.
 *
 * Parsing goes through a stack buffer rather than Trim() so the numeric
 * parsers stay allocation-free: they sit on the controller's sysfs read
 * path, which runs every cycle.
 */
size_t
TrimmedToBuf(std::string_view text, char* buf, size_t buf_size)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    const size_t len = end - begin;
    if (len == 0 || len >= buf_size) {
        return 0;
    }
    std::memcpy(buf, text.data() + begin, len);
    buf[len] = '\0';
    return len;
}

}  // namespace

bool
ParseDouble(std::string_view text, double* out)
{
    char buf[64];
    const size_t len = TrimmedToBuf(text, buf, sizeof(buf));
    if (len == 0) {
        return false;
    }
    char* end = nullptr;
    const double value = std::strtod(buf, &end);
    if (end != buf + len) {
        return false;
    }
    *out = value;
    return true;
}

bool
ParseInt64(std::string_view text, long long* out)
{
    char buf[64];
    const size_t len = TrimmedToBuf(text, buf, sizeof(buf));
    if (len == 0) {
        return false;
    }
    char* end = nullptr;
    const long long value = std::strtoll(buf, &end, 10);
    if (end != buf + len) {
        return false;
    }
    *out = value;
    return true;
}

}  // namespace aeo
