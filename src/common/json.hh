/**
 * @file
 * A minimal JSON value model and recursive-descent parser.
 *
 * The repository writes JSON with purpose-built formatters (journal
 * lines, reports, status snapshots) but until now could only *read*
 * the rigid layouts it wrote itself (parseJournalLine's fixed field
 * order, verify's flat-JSON reader). The observability plane needs a
 * general reader: `powerchop status` parses snapshots written by any
 * campaign process, and tests parse flight-recorder dumps. This
 * parser covers the JSON subset those documents use — objects,
 * arrays, strings with the common escapes, doubles, bools, null —
 * with a depth limit so a corrupt file cannot recurse the stack away.
 *
 * Deliberately not a serializer: writers keep their explicit
 * csprintf-style formatting, which is what makes byte-identical
 * report guarantees auditable.
 */

#ifndef POWERCHOP_COMMON_JSON_HH
#define POWERCHOP_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace powerchop
{
namespace json
{

/** A parsed JSON value (tree-owning, copyable). */
class Value
{
  public:
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; the fallback is returned on type mismatch so
     *  readers of possibly-partial documents stay branch-light. @{ */
    bool asBool(bool fallback = false) const
    {
        return isBool() ? bool_ : fallback;
    }
    double asDouble(double fallback = 0.0) const
    {
        return isNumber() ? num_ : fallback;
    }
    std::uint64_t
    asUint64(std::uint64_t fallback = 0) const
    {
        // The upper bound guards the cast itself: converting a double
        // at or above 2^64 (including the Inf that strtod returns for
        // overflowed literals like 1e999) to uint64_t is undefined
        // behaviour, and wire-protocol inputs reach this path.
        return isNumber() && num_ >= 0 && num_ < 18446744073709551616.0
                   ? static_cast<std::uint64_t>(num_)
                   : fallback;
    }
    const std::string &
    asString(const std::string &fallback = emptyString()) const
    {
        return isString() ? str_ : fallback;
    }
    /** @} */

    /** Array elements ([] unless isArray()). */
    const std::vector<Value> &elements() const { return arr_; }

    /** Object members in document order ([] unless isObject()). */
    const std::vector<std::pair<std::string, Value>> &
    members() const
    {
        return obj_;
    }

    /** Member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Convenience scalar lookups on an object. @{ */
    double getDouble(const std::string &key,
                     double fallback = 0.0) const;
    std::uint64_t getUint64(const std::string &key,
                            std::uint64_t fallback = 0) const;
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    bool getBool(const std::string &key, bool fallback = false) const;
    /** @} */

    /** Construction (used by the parser and by tests). @{ */
    static Value makeNull() { return Value(); }
    static Value makeBool(bool b);
    static Value makeNumber(double d);
    static Value makeString(std::string s);
    static Value makeArray(std::vector<Value> v);
    static Value
    makeObject(std::vector<std::pair<std::string, Value>> m);
    /** @} */

  private:
    static const std::string &emptyString();

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;
};

/**
 * Parse `text` as one JSON document.
 *
 * @param text  The document (trailing whitespace tolerated, trailing
 *              garbage rejected).
 * @param out   The parsed value on success.
 * @param error When non-null, receives a one-line diagnostic naming
 *              the byte offset on failure.
 * @return true on success.
 */
bool parse(const std::string &text, Value &out,
           std::string *error = nullptr);

/** JSON string escaping for emitters (quotes not included): `"`,
 *  `\`, newline and tab by name, every other byte below 0x20 as
 *  \u00XX, the rest verbatim. */
std::string escape(const std::string &s);

} // namespace json
} // namespace powerchop

#endif // POWERCHOP_COMMON_JSON_HH
