/**
 * @file
 * Golden snapshot store: known-good SimResult renderings pinned as
 * flat JSON files (tests/goldens/) plus a tolerance-aware differ.
 *
 * A golden file is exactly SimResult::toJson() output — one flat
 * object of string and numeric leaves — captured from a known-good
 * build by `powerchop verify --update-goldens` (or the
 * tools/update_goldens wrapper). The differ compares key-by-key:
 *
 *  - every key present in the golden must exist in the candidate;
 *    a missing key fails (a silently dropped metric is a regression);
 *  - extra candidate keys are tolerated, so adding new metrics does
 *    not invalidate existing goldens;
 *  - string values compare exactly; numeric values compare to a
 *    relative tolerance, because goldens cross compiler and flag
 *    boundaries (-ffp-contract and friends) where the last few ULPs
 *    of a long residency sum legitimately drift. CI uses ~1e-6 —
 *    far above FP drift, far below any real accounting bug.
 *
 * compareResults() is the differential-testing sibling: an exhaustive
 * field-by-field comparison of two in-memory SimResults at tolerance
 * zero (bit-exactness), used to hold the optimized simulate() to the
 * reference simulator's output.
 */

#ifndef POWERCHOP_VERIFY_GOLDEN_HH
#define POWERCHOP_VERIFY_GOLDEN_HH

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sim_result.hh"

namespace powerchop
{
namespace verify
{

/** Thrown on malformed golden JSON. */
class GoldenParseError : public std::runtime_error
{
  public:
    explicit GoldenParseError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** A parsed flat JSON object: one level of string/number leaves. */
struct FlatJson
{
    std::map<std::string, std::string> strings;
    std::map<std::string, double> numbers;

    bool
    has(const std::string &key) const
    {
        return strings.count(key) || numbers.count(key);
    }

    std::size_t size() const { return strings.size() + numbers.size(); }
};

/**
 * Parse a flat JSON object (no nesting, no arrays — the shape
 * SimResult::toJson() emits) with the shared reader in common/json.
 *
 * @param text The JSON text.
 * @param who  Origin for error messages (file name).
 * @return the parsed object.
 * @throws GoldenParseError on malformed JSON or trailing bytes (the
 *         message names the byte offset), a top level that is not an
 *         object, or a member that is not a string or finite number
 *         (the message names the member).
 */
FlatJson parseFlatJson(const std::string &text,
                       const std::string &who = "<json>");

/** One key that failed to match. */
struct GoldenMismatch
{
    std::string key;
    std::string detail;
};

/** Outcome of one golden comparison. */
struct GoldenDiff
{
    std::vector<GoldenMismatch> mismatches;

    bool ok() const { return mismatches.empty(); }

    /** "ok" or a per-key listing. */
    std::string toString() const;
};

/**
 * Compare a candidate against a golden.
 *
 * @param golden    The pinned snapshot (all its keys are required).
 * @param candidate The freshly produced object.
 * @param rel_tol   Relative tolerance for numeric leaves.
 */
GoldenDiff diffGolden(const FlatJson &golden, const FlatJson &candidate,
                      double rel_tol);

/** Canonical golden file name for a run: <workload>-<machine>-<mode>.json */
std::string goldenFileName(const std::string &workload,
                           const std::string &machine,
                           const std::string &mode);

/**
 * Load a golden file.
 *
 * @param path  File path.
 * @param out   Parsed contents on success.
 * @return false when the file does not exist (a missing golden is the
 *         caller's policy decision); malformed contents throw.
 */
bool loadGolden(const std::string &path, FlatJson &out);

/** Write a golden file (the exact JSON text plus a trailing newline). */
void saveGolden(const std::string &path, const std::string &json_text);

/**
 * Exhaustive field-by-field comparison of two SimResults.
 *
 * @param a, b    The results (conventionally: optimized, reference).
 * @param rel_tol 0 demands bit-exact equality — the differential
 *                oracle's contract; golden-style uses are free to
 *                pass a tolerance.
 * @return one mismatch per differing field, empty when identical.
 */
std::vector<GoldenMismatch> compareResults(const SimResult &a,
                                           const SimResult &b,
                                           double rel_tol = 0.0);

} // namespace verify
} // namespace powerchop

#endif // POWERCHOP_VERIFY_GOLDEN_HH
