/**
 * @file
 * Machine configurations: the two architectural design points of
 * Table I (a Nehalem-class server core and a Cortex-A9-class mobile
 * core), each with the unit geometries PowerChop manages.
 */

#ifndef POWERCHOP_SIM_MACHINE_CONFIG_HH
#define POWERCHOP_SIM_MACHINE_CONFIG_HH

#include <string>

#include "bt/bt_system.hh"
#include "core/fault_injector.hh"
#include "core/gating_controller.hh"
#include "core/powerchop_unit.hh"
#include "core/drowsy_mlc.hh"
#include "power/core_power_model.hh"
#include "telemetry/trace.hh"
#include "uarch/bpu_complex.hh"
#include "uarch/cache.hh"
#include "uarch/core_params.hh"
#include "uarch/vpu.hh"

namespace powerchop
{

/**
 * The hardware-only idle-timeout baseline of Section V-E (TimeoutVpu
 * mode): the VPU is gated off once it has been idle this many cycles
 * and gated back on by the next SIMD op. The paper sweeps the period
 * from 100 to 100K cycles and picks 20K, the best saving under a 5%
 * worst-case slowdown bound.
 */
struct TimeoutParams
{
    /** Idle cycles before the VPU is gated off. */
    double timeoutCycles = 20000.0;

    /** Gate-on/off switch latency (same as PowerChop's VPU). */
    double switchCycles = 30.0;

    /** Register file save/restore per transition. */
    double saveRestoreCycles = 500.0;
};

/** A complete machine design point. */
struct MachineConfig
{
    std::string name = "machine";

    CoreParams core;
    BpuParams bpu;
    CacheParams l1;
    CacheParams mlc;
    VpuParams vpu;
    BtParams bt;
    PowerChopParams powerChop;
    GatingPenalties penalties;
    TimeoutParams timeout;
    DrowsyParams drowsy;
    CorePowerParams power;

    /** Fault injection into the gating stack (disabled by default;
     *  see fault_injector.hh). */
    FaultInjectorParams faults;

    /** Trace-recording configuration (event cap, per-class switches);
     *  only consulted when SimOptions attaches a recorder. */
    telemetry::TelemetryParams telemetry;

    /** Validate the whole configuration: every simulate() call runs
     *  this before building the machine, and each violation is a
     *  fatal() naming the offending field. */
    void validate() const;

    /**
     * Canonical field-by-field text rendering of every parameter
     * that can change simulation results — the campaign layer hashes
     * it into job content keys, so resuming with ANY edited knob
     * rejects the stale journal records by key mismatch. Telemetry
     * parameters are deliberately excluded: they only shape
     * observability and results are bit-identical either way.
     */
    std::string canonicalText() const;
};

/**
 * The server design point (Table I, left column): 4-wide core at
 * 3 GHz; 1024KB 8-way MLC (gateable to 512KB 4-way or 128KB 1-way);
 * 4-wide SIMD VPU; loc/glob tournament BPU with 4K-entry BTB backed
 * by a local-only small predictor with a 1K-entry BTB.
 */
MachineConfig serverConfig();

/**
 * The mobile design point (Table I, right column): 2-wide core at
 * 1.5 GHz; 2048KB 8-way MLC (gateable to 1024KB 4-way or 256KB
 * 1-way); 2-wide SIMD VPU; tournament BPU with 2K-entry BTB backed by
 * a local-only small predictor with a 512-entry BTB.
 */
MachineConfig mobileConfig();

} // namespace powerchop

#endif // POWERCHOP_SIM_MACHINE_CONFIG_HH
