/**
 * @file
 * Polymorphic scenario runners.
 *
 * A Runner is an execution strategy for a Scenario: the timing model,
 * the functional LVM oracle, the preemptive context-switch
 * scheduler — or anything a client registers. The campaign driver
 * resolves runners by name through the RunnerRegistry and treats
 * them uniformly, so adding a new kind of run means writing one
 * subclass and registering it; no driver code changes. (This is the
 * SimpleScalar separation of functional and timing simulators that
 * arch/emulator.hh cites, made an extension point.)
 *
 * Runners must be deterministic and thread-safe: run() is called
 * concurrently from campaign worker threads with distinct scenarios
 * and a shared, immutable executable.
 */

#ifndef DVI_SIM_RUNNER_HH
#define DVI_SIM_RUNNER_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "arch/emulator.hh"
#include "base/fault.hh"
#include "compiler/executable.hh"
#include "os/scheduler.hh"
#include "sim/scenario.hh"
#include "uarch/core_stats.hh"

namespace dvi
{
namespace sim
{

/**
 * Everything a completed run reports. Deterministic: no wall clock,
 * host names, or scheduling artifacts. Only the section matching the
 * scenario's runner is populated; the rest stay default-initialized.
 */
struct RunResult
{
    uarch::CoreStats core;      ///< "timing"
    arch::EmulatorStats oracle; ///< "oracle"
    os::SwitchStats sw;         ///< "switch"

    /** IPC for timing runs, 0 otherwise. */
    double ipc = 0.0;
};

/** One named report metric; u64 and f64 keep exact JSON emission. */
struct MetricValue
{
    enum class Type
    {
        U64,
        F64,
    };

    Type type = Type::U64;
    std::uint64_t u = 0;
    double f = 0.0;

    static MetricValue
    ofU64(std::uint64_t v)
    {
        MetricValue m;
        m.type = Type::U64;
        m.u = v;
        return m;
    }

    static MetricValue
    ofF64(double v)
    {
        MetricValue m;
        m.type = Type::F64;
        m.f = v;
        return m;
    }
};

/** Ordered (name, value) pairs a runner contributes to reports. */
using Metrics = std::vector<std::pair<std::string, MetricValue>>;

/** An execution strategy for scenarios. Stateless; one shared
 * instance serves all worker threads. */
class Runner
{
  public:
    virtual ~Runner() = default;

    /** Registry key, e.g. "timing". Lower-case, stable. */
    virtual std::string name() const = 0;

    /** One-line description for listings. */
    virtual std::string description() const = 0;

    /** Execute the scenario against its compiled binary. */
    virtual RunResult run(const Scenario &s,
                          const comp::Executable &exe) const = 0;

    /**
     * The result's report field names, in stable emission order.
     * Called once per runner (the keys are interned by
     * metricKeys()); values are produced separately by
     * metricValues(), so report emission never rebuilds the
     * std::string key set per job.
     */
    virtual std::vector<std::string> metricNames() const = 0;

    /** Append the values matching metricNames(), in the same
     * order, to out (cleared first). */
    virtual void metricValues(const RunResult &r,
                              std::vector<MetricValue> &out)
        const = 0;

    /** Interned key set: metricNames() computed once per runner
     * instance, thread-safe. */
    const std::vector<std::string> &metricKeys() const;

    /** Simulated instructions a result represents (throughput
     * accounting: program instructions for timing runs, retired
     * instructions for functional runs); 0 when not meaningful. */
    virtual std::uint64_t
    simulatedInsts(const RunResult &r) const
    {
        (void)r;
        return 0;
    }

    /** Convenience zip of metricKeys() and metricValues(). */
    Metrics metrics(const RunResult &r) const;

  private:
    mutable std::once_flag keysOnce_;
    mutable std::vector<std::string> keys_;
};

/**
 * Name-to-runner resolution. The built-in runners are registered
 * exactly once (std::call_once) on first use; clients may add their
 * own at any time before the campaign that references them runs.
 *
 * One mutex guards a sorted map; a job does a handful of lookups,
 * so find() simply locks it. Runners are never removed, so a
 * returned pointer stays valid.
 */
class RunnerRegistry
{
  public:
    static RunnerRegistry &instance();

    /** Register a runner under runner->name(); fatal on duplicate. */
    void add(std::unique_ptr<Runner> runner);

    /** Look up by name; nullptr if unknown. */
    const Runner *find(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    RunnerRegistry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<const Runner>> runners_;
};

/** Resolve a runner by name; fatal with the known names if absent. */
const Runner &runnerFor(const std::string &name);

/**
 * Scopes a cooperative-cancellation token onto the calling thread
 * (the obs::SinkScope idiom). The campaign driver installs one per
 * job attempt that has a cancel flag or a wall-clock deadline; the
 * built-in runners pick it up via currentCancel() and thread it into
 * the simulation loops, which poll it and unwind with
 * base::CancelledError once it is requested. Nestable; restores the
 * outer token on exit.
 */
class CancelScope
{
  public:
    explicit CancelScope(const base::CancelToken *cancel);
    ~CancelScope();

    CancelScope(const CancelScope &) = delete;
    CancelScope &operator=(const CancelScope &) = delete;

  private:
    const base::CancelToken *prev_;
};

/** The calling thread's scoped cancel token; nullptr when none. */
const base::CancelToken *currentCancel();

} // namespace sim
} // namespace dvi

#endif // DVI_SIM_RUNNER_HH
