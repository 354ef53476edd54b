#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace powerchop
{

namespace
{

/** The reason a raw value failed integer parsing, or nullptr. */
const char *
uintParseFailure(const char *raw, unsigned long long &out)
{
    if (raw[0] == '-' || raw[0] == '+')
        return "a sign is not accepted";
    // strtoull() skips leading blanks; a whole-string number cannot.
    if (!std::isdigit(static_cast<unsigned char>(raw[0])))
        return "not a number";

    errno = 0;
    char *end = nullptr;
    out = std::strtoull(raw, &end, 10);
    if (end == raw)
        return "not a number";
    if (*end != '\0')
        return "trailing junk after the number";
    if (errno == ERANGE)
        return "overflows 64 bits";
    return nullptr;
}

const char *
doubleParseFailure(const char *raw, double &out)
{
    errno = 0;
    char *end = nullptr;
    out = std::strtod(raw, &end);
    if (end == raw)
        return "not a number";
    if (*end != '\0')
        return "trailing junk after the number";
    if (errno == ERANGE)
        return "out of double range";
    if (!std::isfinite(out))
        return "not a finite number";
    return nullptr;
}

} // namespace

std::optional<std::string>
envString(const char *name)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return std::nullopt;
    return std::string(raw);
}

std::optional<std::uint64_t>
envUint64(const char *name, std::uint64_t min, std::uint64_t max)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return std::nullopt;

    unsigned long long v = 0;
    if (const char *why = uintParseFailure(raw, v)) {
        warn("ignoring %s='%s': %s", name, raw, why);
        return std::nullopt;
    }
    if (v < min || v > max) {
        warn("ignoring %s=%llu: outside [%llu, %llu]", name, v,
             static_cast<unsigned long long>(min),
             static_cast<unsigned long long>(max));
        return std::nullopt;
    }
    return static_cast<std::uint64_t>(v);
}

std::optional<double>
envDouble(const char *name, double min, double max)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return std::nullopt;

    double v = 0;
    if (const char *why = doubleParseFailure(raw, v)) {
        warn("ignoring %s='%s': %s", name, raw, why);
        return std::nullopt;
    }
    if (v < min || v > max) {
        warn("ignoring %s=%g: outside [%g, %g]", name, v, min, max);
        return std::nullopt;
    }
    return v;
}

std::uint64_t
parseUintFlag(const char *flag, const std::string &text,
              std::uint64_t lo, std::uint64_t hi)
{
    unsigned long long v = 0;
    if (uintParseFailure(text.c_str(), v) || v < lo || v > hi) {
        throw UsageError(csprintf(
            "%s wants an integer in [%llu, %llu], got '%s'", flag,
            static_cast<unsigned long long>(lo),
            static_cast<unsigned long long>(hi), text.c_str()));
    }
    return v;
}

double
parseDoubleFlag(const char *flag, const std::string &text, double lo,
                double hi)
{
    double v = 0;
    if (doubleParseFailure(text.c_str(), v) || v < lo || v > hi) {
        throw UsageError(csprintf("%s wants a number in [%g, %g], got "
                                  "'%s'",
                                  flag, lo, hi, text.c_str()));
    }
    return v;
}

} // namespace powerchop
