/**
 * @file
 * A minimal JSON value type with a strict parser and a deterministic
 * serializer.
 *
 * The chaos-campaign engine needs machine-readable artifacts — scenario
 * specs, crash bundles, BENCH_* snapshots — that round-trip exactly: a
 * bundle written by one run must replay bit-identically in another, and CI
 * diffs the serialized bytes. So the serializer is deterministic (object
 * keys keep insertion order, numbers print through one %.17g-then-trim
 * path) and the parser accepts exactly the JSON grammar (no comments, no
 * trailing commas), failing loudly with a line/column message instead of
 * guessing.
 *
 * This is deliberately not a general-purpose JSON library: no SAX
 * interface, no UTF-16 surrogate handling beyond pass-through, no
 * arbitrary-precision numbers. Every number is a double, which is exact
 * for the integers the repo serializes (< 2^53).
 */
#ifndef AEO_COMMON_JSON_H_
#define AEO_COMMON_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace aeo {

/** One JSON value: null, bool, number, string, array or object. */
class JsonValue {
  public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    /** An object member; members keep insertion order. */
    using Member = std::pair<std::string, JsonValue>;

    JsonValue() : type_(Type::kNull) {}
    JsonValue(bool value) : type_(Type::kBool), bool_(value) {}
    JsonValue(double value) : type_(Type::kNumber), number_(value) {}
    JsonValue(int value) : type_(Type::kNumber), number_(value) {}
    JsonValue(int64_t value)
        : type_(Type::kNumber), number_(static_cast<double>(value))
    {
    }
    JsonValue(uint64_t value)
        : type_(Type::kNumber), number_(static_cast<double>(value))
    {
    }
    JsonValue(const char* value) : type_(Type::kString), string_(value) {}
    JsonValue(std::string value)
        : type_(Type::kString), string_(std::move(value))
    {
    }

    /** An empty array/object of the given type. */
    static JsonValue MakeArray();
    static JsonValue MakeObject();

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::kNull; }
    bool is_bool() const { return type_ == Type::kBool; }
    bool is_number() const { return type_ == Type::kNumber; }
    bool is_string() const { return type_ == Type::kString; }
    bool is_array() const { return type_ == Type::kArray; }
    bool is_object() const { return type_ == Type::kObject; }

    /** Typed accessors; Fatal() on a type mismatch. */
    bool AsBool() const;
    double AsDouble() const;
    uint64_t AsUint64() const;
    const std::string& AsString() const;

    /** Array access; Fatal() unless is_array(). */
    const std::vector<JsonValue>& items() const;
    void Append(JsonValue value);

    /** Object access; Fatal() unless is_object(). */
    const std::vector<Member>& members() const;
    /** Sets (or replaces) a member, preserving first-set order. */
    void Set(const std::string& key, JsonValue value);
    /** True if the object has @p key. */
    bool Has(const std::string& key) const;
    /** Member lookup; Fatal() when the key is absent. */
    const JsonValue& At(const std::string& key) const;
    /** Member lookup with a default for absent keys. */
    double GetDouble(const std::string& key, double fallback) const;
    bool GetBool(const std::string& key, bool fallback) const;
    std::string GetString(const std::string& key,
                          const std::string& fallback) const;

    /**
     * Serializes deterministically. @p indent > 0 pretty-prints with that
     * many spaces per level; 0 emits the compact single-line form.
     */
    std::string Dump(int indent = 0) const;

  private:
    Type type_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

/** Outcome of parsing a JSON document. */
struct JsonParseResult {
    bool ok = false;
    JsonValue value;
    /** "line L, column C: why" when !ok. */
    std::string error;
};

/** Deepest nesting of arrays and objects ParseJson() accepts. Committed
 * documents nest at most 5 deep. */
inline constexpr int kJsonMaxDepth = 64;

/**
 * Parses one JSON document (surrounding whitespace allowed). A document
 * nesting deeper than kJsonMaxDepth fails like any other malformed one.
 */
JsonParseResult ParseJson(const std::string& text);

}  // namespace aeo

#endif  // AEO_COMMON_JSON_H_
