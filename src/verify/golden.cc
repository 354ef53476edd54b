#include "verify/golden.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace powerchop
{
namespace verify
{

FlatJson
parseFlatJson(const std::string &text, const std::string &who)
{
    json::Value doc;
    std::string error;
    if (!json::parse(text, doc, &error))
        throw GoldenParseError(who + ": " + error);
    if (!doc.isObject()) {
        throw GoldenParseError(csprintf(
            "%s: offset %zu: expected an object", who.c_str(),
            std::min(text.find_first_not_of(" \t\n\r"), text.size())));
    }

    FlatJson out;
    for (const auto &[key, value] : doc.members()) {
        if (value.isString()) {
            out.strings[key] = value.asString();
        } else if (value.isNumber() && std::isfinite(value.asDouble())) {
            out.numbers[key] = value.asDouble();
        } else {
            throw GoldenParseError(csprintf(
                "%s: member \"%s\": expected a string or a finite "
                "number", who.c_str(), key.c_str()));
        }
    }
    return out;
}

std::string
GoldenDiff::toString() const
{
    if (mismatches.empty())
        return "ok";
    std::ostringstream out;
    out << mismatches.size() << " mismatch"
        << (mismatches.size() == 1 ? "" : "es") << ": ";
    for (std::size_t i = 0; i < mismatches.size(); ++i) {
        if (i)
            out << "; ";
        out << mismatches[i].key << " (" << mismatches[i].detail << ")";
    }
    return out.str();
}

namespace
{

bool
near(double a, double b, double rel_tol)
{
    if (a == b)
        return true;
    const double scale =
        std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
    return std::fabs(a - b) <= rel_tol * scale;
}

} // namespace

GoldenDiff
diffGolden(const FlatJson &golden, const FlatJson &candidate,
           double rel_tol)
{
    GoldenDiff diff;

    for (const auto &[key, want] : golden.strings) {
        auto it = candidate.strings.find(key);
        if (it == candidate.strings.end()) {
            diff.mismatches.push_back(
                {key, "missing from candidate"});
        } else if (it->second != want) {
            diff.mismatches.push_back(
                {key, csprintf("\"%s\" != golden \"%s\"",
                               it->second.c_str(), want.c_str())});
        }
    }
    for (const auto &[key, want] : golden.numbers) {
        auto it = candidate.numbers.find(key);
        if (it == candidate.numbers.end()) {
            diff.mismatches.push_back(
                {key, "missing from candidate"});
        } else if (!near(it->second, want, rel_tol)) {
            diff.mismatches.push_back(
                {key, csprintf("%.12g != golden %.12g (diff %.3g, tol "
                               "%g)",
                               it->second, want, it->second - want,
                               rel_tol)});
        }
    }
    return diff;
}

std::string
goldenFileName(const std::string &workload, const std::string &machine,
               const std::string &mode)
{
    return workload + "-" + machine + "-" + mode + ".json";
}

bool
loadGolden(const std::string &path, FlatJson &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = parseFlatJson(buf.str(), path);
    return true;
}

void
saveGolden(const std::string &path, const std::string &json_text)
{
    // Crash-safe replace: an interrupted save can never leave a
    // truncated golden that silently passes or garbles comparisons.
    atomicWriteFile(path, json_text + "\n");
}

std::vector<GoldenMismatch>
compareResults(const SimResult &a, const SimResult &b, double rel_tol)
{
    std::vector<GoldenMismatch> out;

    auto str = [&](const char *key, const std::string &x,
                   const std::string &y) {
        if (x != y)
            out.push_back({key, csprintf("\"%s\" != \"%s\"", x.c_str(),
                                         y.c_str())});
    };
    auto num = [&](const char *key, double x, double y) {
        if (!near(x, y, rel_tol))
            out.push_back(
                {key, csprintf("%.17g != %.17g (diff %.3g)", x, y,
                               x - y)});
    };
    auto cnt = [&](const char *key, std::uint64_t x, std::uint64_t y) {
        if (x != y)
            out.push_back(
                {key, csprintf("%llu != %llu",
                               static_cast<unsigned long long>(x),
                               static_cast<unsigned long long>(y))});
    };

    str("workload", a.workload, b.workload);
    str("machine", a.machine, b.machine);
    str("mode", simModeName(a.mode), simModeName(b.mode));

    cnt("instructions", a.instructions, b.instructions);
    num("cycles", a.cycles, b.cycles);
    num("seconds", a.seconds, b.seconds);
    num("slotOps", a.slotOps, b.slotOps);

    cnt("gating.vpuSwitches", a.gating.vpuSwitches,
        b.gating.vpuSwitches);
    cnt("gating.bpuSwitches", a.gating.bpuSwitches,
        b.gating.bpuSwitches);
    cnt("gating.mlcSwitches", a.gating.mlcSwitches,
        b.gating.mlcSwitches);
    num("gating.vpuGatedCycles", a.gating.vpuGatedCycles,
        b.gating.vpuGatedCycles);
    num("gating.bpuGatedCycles", a.gating.bpuGatedCycles,
        b.gating.bpuGatedCycles);
    num("gating.mlcFullCycles", a.gating.mlcFullCycles,
        b.gating.mlcFullCycles);
    num("gating.mlcHalfCycles", a.gating.mlcHalfCycles,
        b.gating.mlcHalfCycles);
    num("gating.mlcQuarterCycles", a.gating.mlcQuarterCycles,
        b.gating.mlcQuarterCycles);
    num("gating.mlcOneWayCycles", a.gating.mlcOneWayCycles,
        b.gating.mlcOneWayCycles);
    cnt("gating.mlcDirtyWritebacks", a.gating.mlcDirtyWritebacks,
        b.gating.mlcDirtyWritebacks);
    num("gating.stallCycles", a.gating.stallCycles,
        b.gating.stallCycles);

    num("vpuGatedFraction", a.vpuGatedFraction, b.vpuGatedFraction);
    num("bpuGatedFraction", a.bpuGatedFraction, b.bpuGatedFraction);
    num("mlcHalfFraction", a.mlcHalfFraction, b.mlcHalfFraction);
    num("mlcQuarterFraction", a.mlcQuarterFraction,
        b.mlcQuarterFraction);
    num("mlcOneWayFraction", a.mlcOneWayFraction, b.mlcOneWayFraction);
    num("vpuSwitchesPerMcycle", a.vpuSwitchesPerMcycle,
        b.vpuSwitchesPerMcycle);
    num("bpuSwitchesPerMcycle", a.bpuSwitchesPerMcycle,
        b.bpuSwitchesPerMcycle);
    num("mlcSwitchesPerMcycle", a.mlcSwitchesPerMcycle,
        b.mlcSwitchesPerMcycle);

    cnt("pvtLookups", a.pvtLookups, b.pvtLookups);
    cnt("pvtHits", a.pvtHits, b.pvtHits);
    cnt("translationsExecuted", a.translationsExecuted,
        b.translationsExecuted);
    num("pvtMissPerTranslation", a.pvtMissPerTranslation,
        b.pvtMissPerTranslation);

    num("l1HitRate", a.l1HitRate, b.l1HitRate);
    num("mlcHitRate", a.mlcHitRate, b.mlcHitRate);
    cnt("mlcAccesses", a.mlcAccesses, b.mlcAccesses);
    num("mlcAccessesPerKilo", a.mlcAccessesPerKilo,
        b.mlcAccessesPerKilo);

    cnt("branchLookups", a.branchLookups, b.branchLookups);
    cnt("branchMispredicts", a.branchMispredicts, b.branchMispredicts);
    num("branchMispredictRate", a.branchMispredictRate,
        b.branchMispredictRate);
    num("branchesPerKilo", a.branchesPerKilo, b.branchesPerKilo);

    cnt("simdOps", a.simdOps, b.simdOps);
    cnt("simdEmulated", a.simdEmulated, b.simdEmulated);

    num("mlcDrowsyFraction", a.mlcDrowsyFraction, b.mlcDrowsyFraction);
    cnt("drowsyWakes", a.drowsyWakes, b.drowsyWakes);

    cnt("faults.policyCorruptions", a.faults.policyCorruptions,
        b.faults.policyCorruptions);
    cnt("faults.htbDrops", a.faults.htbDrops, b.faults.htbDrops);
    cnt("faults.htbAliases", a.faults.htbAliases, b.faults.htbAliases);
    cnt("faults.controllerFlips", a.faults.controllerFlips,
        b.faults.controllerFlips);
    cnt("faults.wakeupStretches", a.faults.wakeupStretches,
        b.faults.wakeupStretches);
    cnt("safeModeActivations", a.safeModeActivations,
        b.safeModeActivations);
    num("safeModeWindowFraction", a.safeModeWindowFraction,
        b.safeModeWindowFraction);

    num("activity.cycles", a.activity.cycles, b.activity.cycles);
    num("activity.instructions", a.activity.instructions,
        b.activity.instructions);
    num("activity.vpuOps", a.activity.vpuOps, b.activity.vpuOps);
    num("activity.bpuLargeLookups", a.activity.bpuLargeLookups,
        b.activity.bpuLargeLookups);
    num("activity.mlcAccessesFull", a.activity.mlcAccessesFull,
        b.activity.mlcAccessesFull);
    num("activity.mlcAccessesHalf", a.activity.mlcAccessesHalf,
        b.activity.mlcAccessesHalf);
    num("activity.mlcAccessesQuarter", a.activity.mlcAccessesQuarter,
        b.activity.mlcAccessesQuarter);
    num("activity.mlcAccessesOne", a.activity.mlcAccessesOne,
        b.activity.mlcAccessesOne);
    num("activity.vpuGatedCycles", a.activity.vpuGatedCycles,
        b.activity.vpuGatedCycles);
    num("activity.bpuGatedCycles", a.activity.bpuGatedCycles,
        b.activity.bpuGatedCycles);
    num("activity.mlcFullCycles", a.activity.mlcFullCycles,
        b.activity.mlcFullCycles);
    num("activity.mlcHalfCycles", a.activity.mlcHalfCycles,
        b.activity.mlcHalfCycles);
    num("activity.mlcQuarterCycles", a.activity.mlcQuarterCycles,
        b.activity.mlcQuarterCycles);
    num("activity.mlcOneWayCycles", a.activity.mlcOneWayCycles,
        b.activity.mlcOneWayCycles);
    num("activity.mlcDrowsyFraction", a.activity.mlcDrowsyFraction,
        b.activity.mlcDrowsyFraction);
    num("activity.vpuSwitches", a.activity.vpuSwitches,
        b.activity.vpuSwitches);
    num("activity.bpuSwitches", a.activity.bpuSwitches,
        b.activity.bpuSwitches);
    num("activity.mlcSwitches", a.activity.mlcSwitches,
        b.activity.mlcSwitches);

    num("energy.seconds", a.energy.seconds, b.energy.seconds);
    for (unsigned u = 0; u < numUnits; ++u) {
        const Unit unit = static_cast<Unit>(u);
        const std::string base =
            std::string("energy.") + unitName(unit) + ".";
        num((base + "leakage").c_str(), a.energy.unit(unit).leakage,
            b.energy.unit(unit).leakage);
        num((base + "dynamic").c_str(), a.energy.unit(unit).dynamic,
            b.energy.unit(unit).dynamic);
        num((base + "gatingOverhead").c_str(),
            a.energy.unit(unit).gatingOverhead,
            b.energy.unit(unit).gatingOverhead);
    }

    return out;
}

} // namespace verify
} // namespace powerchop
