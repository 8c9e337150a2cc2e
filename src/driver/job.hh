/**
 * @file
 * Campaign job descriptions and results.
 *
 * A simulation campaign is an ordered list of independent
 * Scenarios (sim/scenario.hh) that the driver shards across worker
 * threads. Each job wraps one Scenario with its campaign index and
 * deterministic seed, runs through the Runner named by the scenario,
 * and produces a JobResult keyed by that index. Aggregation orders
 * results by index, so a parallel run is bit-identical to a serial
 * one regardless of the completion order the thread pool happens to
 * produce.
 */

#ifndef DVI_DRIVER_JOB_HH
#define DVI_DRIVER_JOB_HH

#include <cstdint>
#include <string>

#include "base/fault.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"

namespace dvi
{
namespace driver
{

/**
 * One schedulable unit of simulation work. Value type: workers copy
 * nothing mutable between each other, so specs can be read from any
 * thread.
 */
struct JobSpec
{
    /** Position in the campaign; fixes result order and the seed. */
    std::size_t index = 0;

    /**
     * Deterministic per-job seed derived from the index (see
     * jobSeed()). Today's models are fully deterministic, so nothing
     * consumes it yet; any future stochastic component (sampling,
     * perturbation studies) must draw from this seed and nothing
     * else, so parallel campaigns stay bit-identical to serial ones.
     */
    std::uint64_t seed = 0;

    /** The complete run description, including its runner name. */
    sim::Scenario scenario;
};

/**
 * Why a job failed, after retries were exhausted. `kind` drives what
 * the campaign did about it (Transient kinds were retried,
 * BudgetExceeded means the wall-clock or instruction deadline fired)
 * and is serialized as its lower-case token in reports.
 */
struct JobError
{
    base::FaultKind kind = base::FaultKind::Permanent;
    std::string message;
};

/** Everything a completed job reports. Deterministic by default:
 * wallSeconds stays zero (and out of every report) unless the
 * campaign ran with profiling enabled. */
struct JobResult
{
    JobSpec spec;

    /**
     * The job was quarantined: every attempt failed, `error` says
     * why, and the run/metrics sections are default-constructed.
     * The campaign still completes; the report carries degraded =
     * true and serializes the error record in this result's slot.
     */
    bool failed = false;
    JobError error;

    /** Attempts beyond the first (successful or not). Never
     * serialized for successful jobs, so a transient-recovered
     * report stays byte-identical to a fault-free one. */
    unsigned retries = 0;

    /** The runner's stats (only the matching section populated). */
    sim::RunResult run;

    /** Static code size of the binary the scenario ran. */
    std::uint64_t textBytes = 0;

    /** Wall-clock of runJob's simulation, in seconds; only measured
     * under CampaignOptions::profile. */
    double wallSeconds = 0.0;

    /** Simulated instructions per wall-clock second; 0 unless
     * profiled. */
    double
    instsPerSec(const sim::Runner &runner) const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(
                         runner.simulatedInsts(run)) /
                         wallSeconds
                   : 0.0;
    }
};

/** SplitMix64 of (index + 1): the deterministic per-job seed. */
std::uint64_t jobSeed(std::size_t index);

} // namespace driver
} // namespace dvi

#endif // DVI_DRIVER_JOB_HH
