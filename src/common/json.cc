#include "common/json.hh"

#include <cctype>
#include <cstdlib>

#include "common/logging.hh"

namespace powerchop
{
namespace json
{

namespace
{

/** Nesting bound: deeper documents are rejected, not recursed into.
 *  Status snapshots nest 3-4 levels; 64 leaves generous headroom
 *  while keeping a corrupt or adversarial file from exhausting the
 *  parser's stack. */
constexpr unsigned kMaxDepth = 64;

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const char *what)
    {
        if (error.empty())
            error = csprintf("%s at byte %zu", what, pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = 0;
        while (word[n] != '\0')
            ++n;
        if (text.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("truncated escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode the code point (no surrogate-pair
                // recombination: the repo's emitters only escape
                // control bytes, which stay below U+0800).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(Value &out, unsigned depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of document");

        const char c = text[pos];
        if (c == '{') {
            ++pos;
            std::vector<std::pair<std::string, Value>> members;
            skipWs();
            if (consume('}')) {
                out = Value::makeObject(std::move(members));
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                members.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    break;
                return fail("expected ',' or '}'");
            }
            out = Value::makeObject(std::move(members));
            return true;
        }
        if (c == '[') {
            ++pos;
            std::vector<Value> elements;
            skipWs();
            if (consume(']')) {
                out = Value::makeArray(std::move(elements));
                return true;
            }
            while (true) {
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                elements.push_back(std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    break;
                return fail("expected ',' or ']'");
            }
            out = Value::makeArray(std::move(elements));
            return true;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Value::makeString(std::move(s));
            return true;
        }
        if (c == 't') {
            if (!literal("true"))
                return fail("bad literal");
            out = Value::makeBool(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return fail("bad literal");
            out = Value::makeBool(false);
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return fail("bad literal");
            out = Value::makeNull();
            return true;
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            char *end = nullptr;
            const double d = std::strtod(text.c_str() + pos, &end);
            if (end == text.c_str() + pos)
                return fail("bad number");
            pos = static_cast<std::size_t>(end - text.c_str());
            out = Value::makeNumber(d);
            return true;
        }
        return fail("unexpected character");
    }
};

} // namespace

const std::string &
Value::emptyString()
{
    static const std::string empty;
    return empty;
}

const Value *
Value::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : obj_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

double
Value::getDouble(const std::string &key, double fallback) const
{
    const Value *v = find(key);
    return v ? v->asDouble(fallback) : fallback;
}

std::uint64_t
Value::getUint64(const std::string &key, std::uint64_t fallback) const
{
    const Value *v = find(key);
    return v ? v->asUint64(fallback) : fallback;
}

std::string
Value::getString(const std::string &key,
                 const std::string &fallback) const
{
    const Value *v = find(key);
    return v ? v->asString(fallback) : fallback;
}

bool
Value::getBool(const std::string &key, bool fallback) const
{
    const Value *v = find(key);
    return v ? v->asBool(fallback) : fallback;
}

Value
Value::makeBool(bool b)
{
    Value v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::makeNumber(double d)
{
    Value v;
    v.type_ = Type::Number;
    v.num_ = d;
    return v;
}

Value
Value::makeString(std::string s)
{
    Value v;
    v.type_ = Type::String;
    v.str_ = std::move(s);
    return v;
}

Value
Value::makeArray(std::vector<Value> elements)
{
    Value v;
    v.type_ = Type::Array;
    v.arr_ = std::move(elements);
    return v;
}

Value
Value::makeObject(std::vector<std::pair<std::string, Value>> members)
{
    Value v;
    v.type_ = Type::Object;
    v.obj_ = std::move(members);
    return v;
}

bool
parse(const std::string &text, Value &out, std::string *error)
{
    Parser p(text);
    Value v;
    if (!p.parseValue(v, 0)) {
        if (error)
            *error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (error)
            *error = csprintf("trailing garbage at byte %zu", p.pos);
        return false;
    }
    out = std::move(v);
    return true;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20)
                out += csprintf("\\u%04x", c);
            else
                out += static_cast<char>(c);
        }
    }
    return out;
}

} // namespace json
} // namespace powerchop
