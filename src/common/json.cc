#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace aeo {

namespace {

/** Shortest %.17g-style rendering that round-trips the double. */
std::string
FormatNumber(double value)
{
    AEO_ASSERT(std::isfinite(value), "JSON numbers must be finite");
    // Integers (the common case: seeds, cycle counts) print without a
    // fractional part so diffs stay readable.
    if (value == static_cast<double>(static_cast<long long>(value)) &&
        std::fabs(value) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
        return buf;
    }
    // Find the shortest precision that round-trips.
    for (int precision = 1; precision <= 17; ++precision) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value) {
            return buf;
        }
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
EscapeInto(const std::string& text, std::string* out)
{
    out->push_back('"');
    for (const char c : text) {
        switch (c) {
        case '"':
            *out += "\\\"";
            break;
        case '\\':
            *out += "\\\\";
            break;
        case '\n':
            *out += "\\n";
            break;
        case '\r':
            *out += "\\r";
            break;
        case '\t':
            *out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                *out += buf;
            } else {
                out->push_back(c);
            }
        }
    }
    out->push_back('"');
}

}  // namespace

JsonValue
JsonValue::MakeArray()
{
    JsonValue value;
    value.type_ = Type::kArray;
    return value;
}

JsonValue
JsonValue::MakeObject()
{
    JsonValue value;
    value.type_ = Type::kObject;
    return value;
}

bool
JsonValue::AsBool() const
{
    AEO_ASSERT(is_bool(), "JSON value is not a bool");
    return bool_;
}

double
JsonValue::AsDouble() const
{
    AEO_ASSERT(is_number(), "JSON value is not a number");
    return number_;
}

uint64_t
JsonValue::AsUint64() const
{
    return static_cast<uint64_t>(AsDouble());
}

const std::string&
JsonValue::AsString() const
{
    AEO_ASSERT(is_string(), "JSON value is not a string");
    return string_;
}

const std::vector<JsonValue>&
JsonValue::items() const
{
    AEO_ASSERT(is_array(), "JSON value is not an array");
    return items_;
}

void
JsonValue::Append(JsonValue value)
{
    AEO_ASSERT(is_array(), "JSON value is not an array");
    items_.push_back(std::move(value));
}

const std::vector<JsonValue::Member>&
JsonValue::members() const
{
    AEO_ASSERT(is_object(), "JSON value is not an object");
    return members_;
}

void
JsonValue::Set(const std::string& key, JsonValue value)
{
    AEO_ASSERT(is_object(), "JSON value is not an object");
    for (Member& member : members_) {
        if (member.first == key) {
            member.second = std::move(value);
            return;
        }
    }
    members_.emplace_back(key, std::move(value));
}

bool
JsonValue::Has(const std::string& key) const
{
    AEO_ASSERT(is_object(), "JSON value is not an object");
    for (const Member& member : members_) {
        if (member.first == key) {
            return true;
        }
    }
    return false;
}

const JsonValue&
JsonValue::At(const std::string& key) const
{
    AEO_ASSERT(is_object(), "JSON value is not an object");
    for (const Member& member : members_) {
        if (member.first == key) {
            return member.second;
        }
    }
    Fatal("JSON object has no member '%s'", key.c_str());
}

double
JsonValue::GetDouble(const std::string& key, double fallback) const
{
    return Has(key) ? At(key).AsDouble() : fallback;
}

bool
JsonValue::GetBool(const std::string& key, bool fallback) const
{
    return Has(key) ? At(key).AsBool() : fallback;
}

std::string
JsonValue::GetString(const std::string& key, const std::string& fallback) const
{
    return Has(key) ? At(key).AsString() : fallback;
}

namespace {

void
DumpInto(const JsonValue& value, int indent, int depth, std::string* out)
{
    const std::string pad =
        indent > 0 ? std::string(static_cast<size_t>(indent * (depth + 1)), ' ')
                   : std::string();
    const std::string close_pad =
        indent > 0 ? std::string(static_cast<size_t>(indent * depth), ' ')
                   : std::string();
    const char* newline = indent > 0 ? "\n" : "";
    const char* colon = indent > 0 ? ": " : ":";

    switch (value.type()) {
    case JsonValue::Type::kNull:
        *out += "null";
        return;
    case JsonValue::Type::kBool:
        *out += value.AsBool() ? "true" : "false";
        return;
    case JsonValue::Type::kNumber:
        *out += FormatNumber(value.AsDouble());
        return;
    case JsonValue::Type::kString:
        EscapeInto(value.AsString(), out);
        return;
    case JsonValue::Type::kArray: {
        if (value.items().empty()) {
            *out += "[]";
            return;
        }
        *out += "[";
        *out += newline;
        for (size_t i = 0; i < value.items().size(); ++i) {
            *out += pad;
            DumpInto(value.items()[i], indent, depth + 1, out);
            if (i + 1 < value.items().size()) {
                *out += ",";
            }
            *out += newline;
        }
        *out += close_pad;
        *out += "]";
        return;
    }
    case JsonValue::Type::kObject: {
        if (value.members().empty()) {
            *out += "{}";
            return;
        }
        *out += "{";
        *out += newline;
        for (size_t i = 0; i < value.members().size(); ++i) {
            *out += pad;
            EscapeInto(value.members()[i].first, out);
            *out += colon;
            DumpInto(value.members()[i].second, indent, depth + 1, out);
            if (i + 1 < value.members().size()) {
                *out += ",";
            }
            *out += newline;
        }
        *out += close_pad;
        *out += "}";
        return;
    }
    }
}

/** Recursive-descent parser over a raw byte view. */
class Parser {
  public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonParseResult
    Parse()
    {
        JsonParseResult result;
        SkipWhitespace();
        if (!ParseValue(&result.value, &result.error)) {
            return result;
        }
        SkipWhitespace();
        if (pos_ != text_.size()) {
            result.error = Where() + "trailing characters after document";
            return result;
        }
        result.ok = true;
        return result;
    }

  private:
    std::string
    Where() const
    {
        int line = 1;
        int column = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                column = 1;
            } else {
                ++column;
            }
        }
        char buf[48];
        std::snprintf(buf, sizeof(buf), "line %d, column %d: ", line, column);
        return buf;
    }

    void
    SkipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    Literal(const char* word, JsonValue value, JsonValue* out,
            std::string* error)
    {
        const size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0) {
            *error = Where() + "invalid token";
            return false;
        }
        pos_ += len;
        *out = std::move(value);
        return true;
    }

    bool
    ParseValue(JsonValue* out, std::string* error)
    {
        if (pos_ >= text_.size()) {
            *error = Where() + "unexpected end of document";
            return false;
        }
        switch (text_[pos_]) {
        case 'n':
            return Literal("null", JsonValue(), out, error);
        case 't':
            return Literal("true", JsonValue(true), out, error);
        case 'f':
            return Literal("false", JsonValue(false), out, error);
        case '"':
            return ParseString(out, error);
        case '[':
        case '{': {
            // Each level recurses, so an unbounded depth would let a
            // hostile document exhaust the stack.
            if (depth_ == kJsonMaxDepth) {
                *error = Where() + "nesting deeper than " +
                         std::to_string(kJsonMaxDepth) + " levels";
                return false;
            }
            ++depth_;
            const bool ok = text_[pos_] == '[' ? ParseArray(out, error)
                                               : ParseObject(out, error);
            --depth_;
            return ok;
        }
        default:
            return ParseNumber(out, error);
        }
    }

    bool
    ParseString(JsonValue* out, std::string* error)
    {
        ++pos_;  // opening quote
        std::string value;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_];
            if (c == '\\') {
                if (pos_ + 1 >= text_.size()) {
                    break;
                }
                ++pos_;
                switch (text_[pos_]) {
                case '"':
                    c = '"';
                    break;
                case '\\':
                    c = '\\';
                    break;
                case '/':
                    c = '/';
                    break;
                case 'n':
                    c = '\n';
                    break;
                case 'r':
                    c = '\r';
                    break;
                case 't':
                    c = '\t';
                    break;
                case 'b':
                    c = '\b';
                    break;
                case 'f':
                    c = '\f';
                    break;
                case 'u': {
                    if (pos_ + 4 >= text_.size()) {
                        *error = Where() + "truncated \\u escape";
                        return false;
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_ + 1 + static_cast<size_t>(i)];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            *error = Where() + "invalid \\u escape";
                            return false;
                        }
                    }
                    pos_ += 4;
                    // UTF-8 encode the code point (BMP only; the repo never
                    // serializes surrogate pairs).
                    if (code < 0x80) {
                        value.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        value.push_back(
                            static_cast<char>(0xC0 | (code >> 6)));
                        value.push_back(
                            static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        value.push_back(
                            static_cast<char>(0xE0 | (code >> 12)));
                        value.push_back(
                            static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                        value.push_back(
                            static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    ++pos_;
                    continue;
                }
                default:
                    *error = Where() + "invalid escape";
                    return false;
                }
            }
            value.push_back(c);
            ++pos_;
        }
        if (pos_ >= text_.size()) {
            *error = Where() + "unterminated string";
            return false;
        }
        ++pos_;  // closing quote
        *out = JsonValue(std::move(value));
        return true;
    }

    bool
    ParseNumber(JsonValue* out, std::string* error)
    {
        const char* start = text_.c_str() + pos_;
        char* end = nullptr;
        const double value = std::strtod(start, &end);
        if (end == start) {
            *error = Where() + "invalid token";
            return false;
        }
        pos_ += static_cast<size_t>(end - start);
        *out = JsonValue(value);
        return true;
    }

    bool
    ParseArray(JsonValue* out, std::string* error)
    {
        ++pos_;  // '['
        JsonValue array = JsonValue::MakeArray();
        SkipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            *out = std::move(array);
            return true;
        }
        while (true) {
            SkipWhitespace();
            JsonValue item;
            if (!ParseValue(&item, error)) {
                return false;
            }
            array.Append(std::move(item));
            SkipWhitespace();
            if (pos_ >= text_.size()) {
                *error = Where() + "unterminated array";
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                *out = std::move(array);
                return true;
            }
            *error = Where() + "expected ',' or ']'";
            return false;
        }
    }

    bool
    ParseObject(JsonValue* out, std::string* error)
    {
        ++pos_;  // '{'
        JsonValue object = JsonValue::MakeObject();
        SkipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            *out = std::move(object);
            return true;
        }
        while (true) {
            SkipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                *error = Where() + "expected object key";
                return false;
            }
            JsonValue key;
            if (!ParseString(&key, error)) {
                return false;
            }
            SkipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                *error = Where() + "expected ':'";
                return false;
            }
            ++pos_;
            SkipWhitespace();
            JsonValue value;
            if (!ParseValue(&value, error)) {
                return false;
            }
            object.Set(key.AsString(), std::move(value));
            SkipWhitespace();
            if (pos_ >= text_.size()) {
                *error = Where() + "unterminated object";
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                *out = std::move(object);
                return true;
            }
            *error = Where() + "expected ',' or '}'";
            return false;
        }
    }

    const std::string& text_;
    size_t pos_ = 0;
    /** Arrays and objects open around the current position. */
    int depth_ = 0;
};

}  // namespace

std::string
JsonValue::Dump(int indent) const
{
    std::string out;
    DumpInto(*this, indent, 0, &out);
    if (indent > 0) {
        out += "\n";
    }
    return out;
}

JsonParseResult
ParseJson(const std::string& text)
{
    return Parser(text).Parse();
}

}  // namespace aeo
