/**
 * @file
 * Centralized parsing of the POWERCHOP_* environment variables and of
 * numeric command-line flags.
 *
 * Every runtime override (instruction budget, worker count, fault
 * rates, output paths) funnels through these helpers so that all of
 * them share the same hardened parsing rules: a sign, trailing junk
 * ("10M"), overflow, or an out-of-range value is rejected with a
 * descriptive warning naming the variable and the reason, and the
 * caller's default is used instead. Numeric flags follow the same
 * whole-string rules but are usage errors. Ad-hoc getenv()/strtoul()
 * call sites are not allowed outside this file.
 */

#ifndef POWERCHOP_COMMON_ENV_HH
#define POWERCHOP_COMMON_ENV_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

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

} // namespace powerchop

#endif // POWERCHOP_COMMON_ENV_HH
