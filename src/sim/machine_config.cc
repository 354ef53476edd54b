#include "sim/machine_config.hh"

#include "common/logging.hh"

namespace powerchop
{

namespace
{

/** Shared cache-geometry checks, each naming machine and field. */
void
validateCache(const std::string &machine, const char *which,
              const CacheParams &c)
{
    if (c.sizeBytes == 0)
        fatal("%s: %s.sizeBytes must be non-zero", machine.c_str(),
              which);
    if (c.assoc == 0)
        fatal("%s: %s.assoc must be non-zero", machine.c_str(), which);
    if (c.lineBytes == 0)
        fatal("%s: %s.lineBytes must be non-zero", machine.c_str(),
              which);
    if (c.sizeBytes < static_cast<std::uint64_t>(c.assoc) * c.lineBytes)
        fatal("%s: %s.sizeBytes=%llu smaller than one set "
              "(assoc %u x line %u)",
              machine.c_str(), which,
              static_cast<unsigned long long>(c.sizeBytes), c.assoc,
              c.lineBytes);
}

} // namespace

void
MachineConfig::validate() const
{
    core.validate();
    power.validate();

    validateCache(name, "l1", l1);
    validateCache(name, "mlc", mlc);
    if (mlc.assoc < 2)
        fatal("%s: mlc.assoc must be at least 2-way for way gating",
              name.c_str());
    if (l1.sizeBytes >= mlc.sizeBytes)
        fatal("%s: l1.sizeBytes must be smaller than mlc.sizeBytes",
              name.c_str());

    if (vpu.width == 0)
        fatal("%s: vpu.width must be non-zero", name.c_str());
    if (vpu.emulationExpansion < 1.0)
        fatal("%s: vpu.emulationExpansion=%g below 1 (emulation "
              "cannot beat native)",
              name.c_str(), vpu.emulationExpansion);

    if (penalties.mlcSwitchCycles < 0)
        fatal("%s: penalties.mlcSwitchCycles is negative", name.c_str());
    if (penalties.vpuSwitchCycles < 0)
        fatal("%s: penalties.vpuSwitchCycles is negative", name.c_str());
    if (penalties.bpuSwitchCycles < 0)
        fatal("%s: penalties.bpuSwitchCycles is negative", name.c_str());
    if (penalties.vpuSaveRestoreCycles < 0)
        fatal("%s: penalties.vpuSaveRestoreCycles is negative",
              name.c_str());
    if (penalties.mlcWritebackCyclesPerLine < 0)
        fatal("%s: penalties.mlcWritebackCyclesPerLine is negative",
              name.c_str());

    if (timeout.timeoutCycles <= 0)
        fatal("%s: timeout.timeoutCycles must be positive",
              name.c_str());
    if (timeout.switchCycles < 0 || timeout.saveRestoreCycles < 0)
        fatal("%s: timeout switch/saveRestore cycles are negative",
              name.c_str());

    if (drowsy.intervalCycles <= 0)
        fatal("%s: drowsy.intervalCycles must be positive",
              name.c_str());
    if (drowsy.wakePenaltyCycles < 0)
        fatal("%s: drowsy.wakePenaltyCycles is negative", name.c_str());
    if (drowsy.drowsyLeakageFraction < 0 ||
        drowsy.drowsyLeakageFraction > 1) {
        fatal("%s: drowsy.drowsyLeakageFraction outside [0, 1]",
              name.c_str());
    }

    if (powerChop.htb.windowSize == 0)
        fatal("%s: powerChop.htb.windowSize must be non-zero",
              name.c_str());
    if (powerChop.pvt.entries == 0)
        fatal("%s: powerChop.pvt.entries must be non-zero",
              name.c_str());
    if (powerChop.cde.profilingWindows == 0)
        fatal("%s: powerChop.cde.profilingWindows must be non-zero",
              name.c_str());

    powerChop.qos.validate(name);
    faults.validate(name);
    telemetry.validate(name);
}

std::string
MachineConfig::canonicalText() const
{
    std::string s = "machine-config-v1\n";
    const auto add = [&s](const char *field, double v) {
        s += csprintf("%s=%.17g\n", field, v);
    };
    const auto addU = [&s](const char *field, std::uint64_t v) {
        s += csprintf("%s=%llu\n", field,
                      static_cast<unsigned long long>(v));
    };
    const auto addS = [&s](const char *field, const std::string &v) {
        s += csprintf("%s=%s\n", field, v.c_str());
    };

    addS("name", name);

    addS("core.name", core.name);
    addU("core.issueWidth", core.issueWidth);
    add("core.frequencyHz", core.frequencyHz);
    add("core.mispredictPenalty", core.mispredictPenalty);
    add("core.btbMissPenalty", core.btbMissPenalty);
    add("core.mlcHitPenalty", core.mlcHitPenalty);
    add("core.memoryPenalty", core.memoryPenalty);
    add("core.streamMissFactor", core.streamMissFactor);
    add("core.storeStallFraction", core.storeStallFraction);
    add("core.interpreterCpi", core.interpreterCpi);
    add("core.translationCost", core.translationCost);
    addU("core.hotThreshold", core.hotThreshold);

    addU("bpu.largeKind", static_cast<unsigned>(bpu.largeKind));
    addU("bpu.large.localHistoryEntries",
         bpu.large.localHistoryEntries);
    addU("bpu.large.localHistoryBits", bpu.large.localHistoryBits);
    addU("bpu.large.localPatternEntries",
         bpu.large.localPatternEntries);
    addU("bpu.large.globalEntries", bpu.large.globalEntries);
    addU("bpu.large.globalHistoryBits", bpu.large.globalHistoryBits);
    addU("bpu.large.chooserEntries", bpu.large.chooserEntries);
    addU("bpu.largeBtbEntries", bpu.largeBtbEntries);
    addU("bpu.smallPredictorEntries", bpu.smallPredictorEntries);
    addU("bpu.smallBtbEntries", bpu.smallBtbEntries);
    addU("bpu.btbAssoc", bpu.btbAssoc);

    addU("l1.sizeBytes", l1.sizeBytes);
    addU("l1.assoc", l1.assoc);
    addU("l1.lineBytes", l1.lineBytes);
    addU("mlc.sizeBytes", mlc.sizeBytes);
    addU("mlc.assoc", mlc.assoc);
    addU("mlc.lineBytes", mlc.lineBytes);

    addU("vpu.width", vpu.width);
    addU("vpu.numRegisters", vpu.numRegisters);
    add("vpu.emulationExpansion", vpu.emulationExpansion);

    addU("bt.hotThreshold", bt.hotThreshold);
    add("bt.translationCost", bt.translationCost);
    addU("bt.translator.maxTraceBlocks",
         bt.translator.maxTraceBlocks);
    add("bt.nucleus.pvtMissTrapCycles", bt.nucleus.pvtMissTrapCycles);
    add("bt.nucleus.translationTrapCycles",
        bt.nucleus.translationTrapCycles);
    add("bt.nucleus.otherTrapCycles", bt.nucleus.otherTrapCycles);
    addU("bt.regionCacheCapacity", bt.regionCacheCapacity);

    addU("powerChop.htb.entries", powerChop.htb.entries);
    addU("powerChop.htb.windowSize", powerChop.htb.windowSize);
    addU("powerChop.pvt.entries", powerChop.pvt.entries);
    addU("powerChop.pvt.ageBits", powerChop.pvt.ageBits);
    add("powerChop.cde.thresholdVpu", powerChop.cde.thresholdVpu);
    add("powerChop.cde.thresholdBpu", powerChop.cde.thresholdBpu);
    add("powerChop.cde.thresholdMlc1", powerChop.cde.thresholdMlc1);
    add("powerChop.cde.thresholdMlc2", powerChop.cde.thresholdMlc2);
    addU("powerChop.cde.enableQuarterWays",
         powerChop.cde.enableQuarterWays ? 1 : 0);
    add("powerChop.cde.thresholdMlcQuarter",
        powerChop.cde.thresholdMlcQuarter);
    addU("powerChop.cde.profilingWindows",
         powerChop.cde.profilingWindows);
    add("powerChop.cde.workCycles", powerChop.cde.workCycles);
    addU("powerChop.qos.enabled", powerChop.qos.enabled ? 1 : 0);
    add("powerChop.qos.slowdownThreshold",
        powerChop.qos.slowdownThreshold);
    addU("powerChop.qos.violationWindows",
         powerChop.qos.violationWindows);
    addU("powerChop.qos.cooldownWindows",
         powerChop.qos.cooldownWindows);
    add("powerChop.qos.referenceDecay", powerChop.qos.referenceDecay);

    add("penalties.mlcSwitchCycles", penalties.mlcSwitchCycles);
    add("penalties.vpuSwitchCycles", penalties.vpuSwitchCycles);
    add("penalties.bpuSwitchCycles", penalties.bpuSwitchCycles);
    add("penalties.vpuSaveRestoreCycles",
        penalties.vpuSaveRestoreCycles);
    add("penalties.mlcWritebackCyclesPerLine",
        penalties.mlcWritebackCyclesPerLine);

    add("timeout.timeoutCycles", timeout.timeoutCycles);
    add("timeout.switchCycles", timeout.switchCycles);
    add("timeout.saveRestoreCycles", timeout.saveRestoreCycles);

    add("drowsy.intervalCycles", drowsy.intervalCycles);
    add("drowsy.wakePenaltyCycles", drowsy.wakePenaltyCycles);
    add("drowsy.drowsyLeakageFraction", drowsy.drowsyLeakageFraction);

    addS("power.name", power.name);
    add("power.frequencyHz", power.frequencyHz);
    for (unsigned u = 0; u < numUnits; ++u) {
        const Unit unit = static_cast<Unit>(u);
        const std::string base =
            std::string("power.") + unitName(unit) + ".";
        add((base + "areaMm2").c_str(), power.unit(unit).areaMm2);
        add((base + "leakage").c_str(), power.unit(unit).leakage);
        add((base + "energyPerEvent").c_str(),
            power.unit(unit).energyPerEvent);
        add((base + "peakDynamic").c_str(),
            power.unit(unit).peakDynamic);
    }
    add("power.gating.sleepTransistorRatio",
        power.gating.sleepTransistorRatio);
    add("power.gating.switchingFactor", power.gating.switchingFactor);
    add("power.gating.gatedLeakageFraction",
        power.gating.gatedLeakageFraction);
    add("power.mlcEnergyFloor", power.mlcEnergyFloor);

    addU("faults.enabled", faults.enabled ? 1 : 0);
    addU("faults.seed", faults.seed);
    add("faults.policyCorruptRate", faults.policyCorruptRate);
    add("faults.htbDropRate", faults.htbDropRate);
    add("faults.htbAliasRate", faults.htbAliasRate);
    add("faults.controllerFlipRate", faults.controllerFlipRate);
    add("faults.wakeupStretchRate", faults.wakeupStretchRate);
    add("faults.wakeupStretchFactor", faults.wakeupStretchFactor);

    return s;
}

MachineConfig
serverConfig()
{
    MachineConfig m;
    m.name = "server";

    m.core.name = "server-core";
    m.core.issueWidth = 4;
    m.core.frequencyHz = 3.0e9;
    m.core.mispredictPenalty = 15.0;
    m.core.btbMissPenalty = 4.0;
    m.core.mlcHitPenalty = 10.0;
    // Effective (post-overlap) miss cost; modern cores hide much of
    // the raw DRAM latency behind MLP and prefetch.
    m.core.memoryPenalty = 60.0;
    m.core.storeStallFraction = 0.3;
    m.core.interpreterCpi = 8.0;
    m.core.translationCost = 4000.0;
    m.core.hotThreshold = 24;

    // Large BPU: loc/glob tournament, 4K-entry BTB, 16K-entry chooser.
    m.bpu.large.localHistoryEntries = 2048;
    m.bpu.large.localHistoryBits = 10;
    m.bpu.large.localPatternEntries = 4096;
    m.bpu.large.globalEntries = 16384;
    m.bpu.large.globalHistoryBits = 8;
    m.bpu.large.chooserEntries = 16384;
    m.bpu.largeBtbEntries = 4096;
    // Small BPU: local only with a 1K-entry BTB.
    m.bpu.smallPredictorEntries = 1024;
    m.bpu.smallBtbEntries = 1024;
    m.bpu.btbAssoc = 4;

    m.l1 = CacheParams{32 * 1024, 8, 64};
    m.mlc = CacheParams{1024 * 1024, 8, 64};   // 1024KB 8-way

    m.vpu.width = 4;
    m.vpu.numRegisters = 16;
    m.vpu.emulationExpansion = 2.0;

    m.bt.hotThreshold = m.core.hotThreshold;
    m.bt.translationCost = m.core.translationCost;

    m.power = serverPowerParams();
    return m;
}

MachineConfig
mobileConfig()
{
    MachineConfig m;
    m.name = "mobile";

    m.core.name = "mobile-core";
    m.core.issueWidth = 2;
    m.core.frequencyHz = 1.5e9;
    m.core.mispredictPenalty = 10.0;
    m.core.btbMissPenalty = 3.0;
    m.core.mlcHitPenalty = 8.0;
    m.core.memoryPenalty = 45.0;
    m.core.storeStallFraction = 0.3;
    m.core.interpreterCpi = 8.0;
    m.core.translationCost = 4000.0;
    m.core.hotThreshold = 24;

    // Large BPU: loc/glob tournament, 2K-entry BTB, 8K-entry chooser.
    m.bpu.large.localHistoryEntries = 1024;
    m.bpu.large.localHistoryBits = 10;
    m.bpu.large.localPatternEntries = 2048;
    m.bpu.large.globalEntries = 8192;
    m.bpu.large.globalHistoryBits = 8;
    m.bpu.large.chooserEntries = 8192;
    m.bpu.largeBtbEntries = 2048;
    // Small BPU: local only with a 512-entry BTB.
    m.bpu.smallPredictorEntries = 512;
    m.bpu.smallBtbEntries = 512;
    m.bpu.btbAssoc = 4;

    m.l1 = CacheParams{32 * 1024, 4, 64};
    m.mlc = CacheParams{2048 * 1024, 8, 64};   // 2048KB 8-way

    m.vpu.width = 2;
    m.vpu.numRegisters = 16;
    m.vpu.emulationExpansion = 2.0;

    m.bt.hotThreshold = m.core.hotThreshold;
    m.bt.translationCost = m.core.translationCost;

    m.power = mobilePowerParams();
    return m;
}

std::optional<MachineConfig>
findMachine(const std::string &name)
{
    if (name == "server")
        return serverConfig();
    if (name == "mobile")
        return mobileConfig();
    return std::nullopt;
}

MachineConfig
machineByName(const std::string &name)
{
    if (std::optional<MachineConfig> m = findMachine(name))
        return *m;
    fatal("unknown machine '%s' (want server|mobile)", name.c_str());
}

} // namespace powerchop
