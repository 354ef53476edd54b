/**
 * @file
 * Centralized parsing of the POWERCHOP_* environment variables and of
 * command-line flags.
 *
 * Every runtime override (instruction budget, worker count, fault
 * rates, output paths) funnels through these helpers so that all of
 * them share the same hardened parsing rules: a sign, trailing junk
 * ("10M"), overflow, or an out-of-range value is rejected with a
 * descriptive warning naming the variable and the reason, and the
 * caller's default is used instead. Numeric flags follow the same
 * whole-string rules but are usage errors. Ad-hoc getenv()/strtoul()
 * call sites are not allowed outside this file.
 *
 * Each command-line tool declares its flags once, as a table of Flag
 * entries: parseFlags() reads argv against the table and flagUsage()
 * prints it.
 */

#ifndef POWERCHOP_COMMON_ENV_HH
#define POWERCHOP_COMMON_ENV_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace powerchop
{

/**
 * Read a string-valued environment variable.
 *
 * @param name Variable name (e.g. "POWERCHOP_RUNNER_JSON").
 * @return the value, or nullopt when unset or empty.
 */
std::optional<std::string> envString(const char *name);

/**
 * Read an unsigned integer environment variable.
 *
 * Rejected with a warning naming the variable and the offending
 * value: empty numbers, a leading sign, trailing junk, overflow, and
 * values outside [min, max].
 *
 * @param name Variable name.
 * @param min  Smallest accepted value.
 * @param max  Largest accepted value.
 * @return the parsed value, or nullopt when unset or invalid.
 */
std::optional<std::uint64_t> envUint64(const char *name,
                                       std::uint64_t min,
                                       std::uint64_t max);

/**
 * Read a floating-point environment variable.
 *
 * Same rejection rules as envUint64(); NaN and infinities are also
 * rejected.
 */
std::optional<double> envDouble(const char *name, double min,
                                double max);

/** A malformed command-line flag or value: the drivers print the
 *  message and their usage text and exit 2. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** parseNumber()'s two cases. @{ */
std::uint64_t parseUintFlag(const char *flag, const std::string &text,
                            std::uint64_t lo, std::uint64_t hi);
double parseDoubleFlag(const char *flag, const std::string &text,
                       double lo, double hi);
/** @} */

/**
 * A numeric flag. The whole value must parse by envUint64()'s rules
 * (a plain decimal integer) for an integral T, by envDouble()'s (a
 * finite number) otherwise, and lie in [lo, hi].
 * @throws UsageError naming the flag, its range and the value.
 */
template <typename T>
T
parseNumber(const char *flag, const std::string &text, T lo = 0,
            T hi = std::numeric_limits<T>::max())
{
    if constexpr (std::is_integral_v<T>)
        return static_cast<T>(parseUintFlag(flag, text, lo, hi));
    else
        return parseDoubleFlag(flag, text, lo, hi);
}

/** One command-line flag, declared once. */
struct Flag
{
    /** Parses and stores a value; gets the flag's name for its error
     *  messages and "" for a switch. */
    using Action =
        std::function<void(const char *name, const std::string &value)>;

    const char *name;  ///< "--insns".
    const char *value; ///< Value placeholder ("N"); nullptr: a switch.
    const char *help;  ///< One usage line.
    Action set;
    /** A sharded campaign hands this flag to its workers. */
    bool forward = false;
};

/**
 * Parse `args` against `flags`, running each flag's action in order,
 * so the last value given wins.
 * @return the tokens of the forwarded flags, verbatim and in order.
 * @throws UsageError on an unknown flag or a missing value, and
 *         whatever an action throws.
 */
std::vector<std::string> parseFlags(const std::vector<Flag> &flags,
                                    const std::vector<std::string> &args);

/** The usage text of `flags`: one "  --name VALUE  help" line each. */
std::string flagUsage(const std::vector<Flag> &flags);

/** The items of a comma-separated flag value; empty items dropped. */
std::vector<std::string> splitList(const std::string &csv);

/** Actions for the common flag shapes. @{ */
inline Flag::Action
setSwitch(bool &out)
{
    return [&out](const char *, const std::string &) { out = true; };
}

inline Flag::Action
setText(std::string &out)
{
    return [&out](const char *, const std::string &v) { out = v; };
}

template <typename T>
Flag::Action
setNumber(T &out, T lo = 0, T hi = std::numeric_limits<T>::max())
{
    return [&out, lo, hi](const char *name, const std::string &value) {
        out = parseNumber<T>(name, value, lo, hi);
    };
}

/** A time-valued flag: the 1e9 s ceiling (about 31 years) keeps every
 *  nanosecond deadline derived from it in range. */
inline Flag::Action
setSeconds(double &out)
{
    return setNumber(out, 0.0, 1e9);
}
/** @} */

} // namespace powerchop

#endif // POWERCHOP_COMMON_ENV_HH
