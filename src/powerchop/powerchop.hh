/**
 * @file
 * Umbrella public header for the PowerChop library.
 *
 * Including this header gives access to the full public API: the
 * workload models, the hybrid-core simulator, the PowerChop mechanism
 * (HTB / PVT / CDE / gating controller), the timeout baseline and the
 * power models.
 *
 * Quick start:
 * @code
 *   #include "powerchop/powerchop.hh"
 *   using namespace powerchop;
 *
 *   MachineConfig server = serverConfig();
 *   WorkloadSpec gobmk = findWorkload("gobmk");
 *
 *   SimOptions opts;
 *   opts.mode = SimMode::PowerChop;
 *   opts.maxInstructions = 5'000'000;
 *   SimResult r = simulate(server, gobmk, opts);
 * @endcode
 */

#ifndef POWERCHOP_POWERCHOP_HH
#define POWERCHOP_POWERCHOP_HH

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/env.hh"
#include "common/flight_recorder.hh"
#include "common/journal.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/stop_latch.hh"
#include "common/subprocess.hh"
#include "common/types.hh"

#include "isa/instruction.hh"
#include "isa/program.hh"

#include "workload/generator.hh"
#include "workload/suites.hh"
#include "workload/workload.hh"

#include "bt/bt_system.hh"

#include "uarch/bpu_complex.hh"
#include "uarch/cache.hh"
#include "uarch/mem_hierarchy.hh"
#include "uarch/vpu.hh"

#include "core/cde.hh"
#include "core/fault_injector.hh"
#include "core/gating_controller.hh"
#include "core/htb.hh"
#include "core/policy.hh"
#include "core/powerchop_unit.hh"
#include "core/pvt.hh"
#include "core/qos_watchdog.hh"
#include "core/signature.hh"

#include "power/accumulator.hh"
#include "power/cacti_lite.hh"
#include "power/core_power_model.hh"

#include "telemetry/chrome_trace.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"
#include "telemetry/trace.hh"

#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/machine_config.hh"
#include "sim/shard_supervisor.hh"
#include "sim/sim_result.hh"
#include "sim/sim_runner.hh"
#include "sim/simulator.hh"
#include "sim/statusboard.hh"

#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"

#include "verify/differential.hh"
#include "verify/golden.hh"
#include "verify/invariant_auditor.hh"
#include "verify/reference_simulator.hh"

#endif // POWERCHOP_POWERCHOP_HH
