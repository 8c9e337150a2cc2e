/**
 * @file
 * First-class simulation scenarios.
 *
 * A Scenario is a complete, typed description of one simulation run:
 * which workload, what the compiler encoded into the binary
 * (BinaryConfig), what the hardware consumes (HardwareConfig), and
 * how long to run (RunBudget). Scenarios are plain values — cheap to
 * copy, safe to read from any thread — and are executed by a Runner
 * (runner.hh) resolved by name, so new kinds of runs plug in without
 * touching the campaign driver.
 *
 * The old harness::DviMode three-way enum conflated two independent
 * axes: the binary (plain vs. E-DVI annotated — a compiler choice,
 * comp::EdviPolicy) and the hardware's DVI consumption
 * (uarch::DviConfig). Scenarios keep those axes explicit; the
 * paper's three reporting columns survive as named DviPreset
 * constructors (presetNone / presetIdvi / presetFull), and the
 * speculative dense-E-DVI design point (§4.2, §9) is just one more
 * preset instead of a hand-wired bench binary.
 */

#ifndef DVI_SIM_SCENARIO_HH
#define DVI_SIM_SCENARIO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/emulator.hh"
#include "compiler/compile.hh"
#include "uarch/core_config.hh"
#include "workload/benchmarks.hh"

namespace dvi
{
namespace sim
{

/** The binary axis: what the compiler encodes (§2, §7). */
struct BinaryConfig
{
    comp::EdviPolicy edvi = comp::EdviPolicy::None;
};

/**
 * The hardware axis. `dvi` is authoritative for the DVI knobs; the
 * runner copies it over `core.dvi` before simulating, so a scenario
 * can sweep machine structure and DVI consumption independently.
 */
struct HardwareConfig
{
    uarch::DviConfig dvi = uarch::DviConfig::none();
    uarch::CoreConfig core;
};

/** The run-length axis. */
struct RunBudget
{
    /** Dynamic instruction budget (0 = run to halt). */
    std::uint64_t maxInsts = 0;

    /** Preemption quantum in retired instructions; consumed by the
     * context-switch runner, ignored elsewhere. */
    std::uint64_t quantum = 20000;

    /**
     * Wall-clock deadline in milliseconds (0 = none). Enforced by
     * cooperative cancellation: the simulation loops poll the job's
     * base::CancelToken, which carries the deadline; a job past
     * its deadline fails with kind budget-exceeded. Unlike maxInsts
     * this is a fault threshold, not a stopping point.
     */
    std::uint64_t maxWallMs = 0;

    /**
     * Hard instruction deadline (0 = none): reaching it is a
     * budget-exceeded fault, where reaching maxInsts is a normal
     * end-of-run. Lets campaigns bound runaway scenarios whose
     * nominal budget is "to halt".
     */
    std::uint64_t hardMaxInsts = 0;
};

/**
 * One fully described simulation run. `runner` names the execution
 * strategy in the RunnerRegistry ("timing", "oracle", "switch", or
 * anything a client registered).
 */
struct Scenario
{
    std::string runner = "timing";
    workload::BenchmarkId workload = workload::BenchmarkId::Compress;
    BinaryConfig binary;
    HardwareConfig hardware;

    /** Functional-emulator knobs (oracle and switch runners). */
    arch::EmulatorOptions emu;

    RunBudget budget;

    /** DVI preset token ("none" / "idvi" / "full" / "dense") when the
     * scenario was built from a preset; empty for custom axes. */
    std::string preset;

    /** Free-form row label, e.g. "lvm" vs. "lvm-stack". */
    std::string label;
};

/** Lower-case token for an E-DVI policy ("none" / "callsites" /
 * "dense"). */
std::string edviPolicyName(comp::EdviPolicy policy);

/** Parse an E-DVI policy token, case-insensitively. */
std::optional<comp::EdviPolicy>
parseEdviPolicy(const std::string &name);

/**
 * A named (binary, hardware-DVI) combination. The paper's Fig. 5/6/12
 * columns are the three presets none / idvi / full; dense is the
 * high-density E-DVI design point of §4.2 and §9.
 */
struct DviPreset
{
    std::string name;           ///< canonical lower-case token
    std::string display;        ///< paper-style column heading
    comp::EdviPolicy edvi = comp::EdviPolicy::None;
    uarch::DviConfig hw = uarch::DviConfig::none();
};

/** Baseline: plain binary, all hardware DVI off. */
DviPreset presetNone();

/** I-DVI only: plain binary, convention-inferred kills (§2). */
DviPreset presetIdvi();

/** E-DVI + I-DVI: call-site annotated binary, all sources (§2). */
DviPreset presetFull();

/** Dense E-DVI: after-last-use kills plus full hardware DVI. */
DviPreset presetDense();

/** The paper's three reporting columns, in reporting order. */
const std::vector<DviPreset> &paperPresets();

/** Every named preset (the paper's three plus dense). */
const std::vector<DviPreset> &allPresets();

/** Canonical token of a preset. */
std::string presetName(const DviPreset &preset);

/** Parse a preset token, case-insensitively; nullopt if unknown. */
std::optional<DviPreset> parsePreset(const std::string &name);

/** Comma-separated list of valid preset tokens, for usage errors. */
std::string presetTokens();

/** Apply a preset's binary and hardware axes to a scenario and stamp
 * its `preset` token. */
void applyPreset(Scenario &s, const DviPreset &preset);

} // namespace sim
} // namespace dvi

#endif // DVI_SIM_SCENARIO_HH
