#include "sim/runner.hh"

#include <algorithm>

#include "base/fault.hh"
#include "base/logging.hh"
#include "obs/telemetry.hh"
#include "uarch/core.hh"

namespace dvi
{
namespace sim
{

namespace
{

/** Thread-local cancel token installed by CancelScope. */
thread_local const base::CancelToken *t_cancel = nullptr;

/**
 * The instruction budget a runner should actually simulate:
 * min-nonzero of the nominal budget and the hard deadline. Runs that
 * stop at the hard deadline are then reported as budget-exceeded
 * faults by the caller's post-check.
 */
std::uint64_t
cappedInsts(const RunBudget &b)
{
    if (!b.hardMaxInsts)
        return b.maxInsts;
    if (!b.maxInsts)
        return b.hardMaxInsts;
    return std::min(b.maxInsts, b.hardMaxInsts);
}

/** Throw BudgetExceededError if the run hit the hard deadline. */
void
checkHardDeadline(const RunBudget &b, std::uint64_t insts)
{
    if (b.hardMaxInsts && insts >= b.hardMaxInsts)
        throw base::BudgetExceededError(
            "instruction deadline exceeded: ran " +
            std::to_string(insts) + " insts, hardMaxInsts=" +
            std::to_string(b.hardMaxInsts));
}

/** CoreConfig::sampleHook target: emit a `core-sample` event for
 * the current job on the process-global sink. ctx is the sink. */
void
emitCoreSample(const uarch::CoreStats &stats, void *ctx)
{
    auto *sink = static_cast<obs::TelemetrySink *>(ctx);
    json::Value p = json::Value::object();
    p.set("insts", stats.committedProgInsts);
    p.set("cycles", stats.cycles);
    p.set("ipc", stats.ipc());
    sink->event("core-sample", obs::currentJob(), std::move(p));
}

/** Out-of-order timing model (uarch::Core). */
class TimingRunner : public Runner
{
  public:
    std::string name() const override { return "timing"; }

    std::string
    description() const override
    {
        return "out-of-order timing model (uarch::Core)";
    }

    RunResult
    run(const Scenario &s, const comp::Executable &exe) const override
    {
        uarch::CoreConfig cfg = s.hardware.core;
        cfg.dvi = s.hardware.dvi;
        cfg.emuTier = s.emu.tier;
        cfg.maxInsts = cappedInsts(s.budget);
        cfg.cancel = currentCancel();
        // Mid-run sampling rides the scoped (per-campaign, else
        // process-global) sink: scenarios are sink-agnostic, and the
        // sampled stats go out-of-band, so the RunResult (and every
        // report) is unaffected.
        if (obs::TelemetrySink *sink = obs::currentSink()) {
            if (const std::uint64_t every = obs::coreSampleInsts()) {
                cfg.sampleEveryInsts = every;
                cfg.sampleHook = &emitCoreSample;
                cfg.sampleCtx = sink;
            }
        }
        uarch::Core core(exe, cfg);
        RunResult r;
        r.core = core.run();
        checkHardDeadline(s.budget, r.core.committedProgInsts);
        r.ipc = r.core.ipc();
        return r;
    }

    std::vector<std::string>
    metricNames() const override
    {
        return {"cycles",
                "committedProgInsts",
                "committedKills",
                "ipc",
                "savesSeen",
                "savesEliminated",
                "restoresSeen",
                "restoresEliminated",
                "branchMispredicts",
                "dl1Misses",
                "il1Misses"};
    }

    void
    metricValues(const RunResult &r,
                 std::vector<MetricValue> &out) const override
    {
        out.clear();
        out.push_back(MetricValue::ofU64(r.core.cycles));
        out.push_back(MetricValue::ofU64(r.core.committedProgInsts));
        out.push_back(MetricValue::ofU64(r.core.committedKills));
        out.push_back(MetricValue::ofF64(r.ipc));
        out.push_back(MetricValue::ofU64(r.core.savesSeen));
        out.push_back(MetricValue::ofU64(r.core.savesEliminated));
        out.push_back(MetricValue::ofU64(r.core.restoresSeen));
        out.push_back(MetricValue::ofU64(r.core.restoresEliminated));
        out.push_back(MetricValue::ofU64(r.core.branchMispredicts));
        out.push_back(MetricValue::ofU64(r.core.dl1Misses));
        out.push_back(MetricValue::ofU64(r.core.il1Misses));
    }

    std::uint64_t
    simulatedInsts(const RunResult &r) const override
    {
        return r.core.committedProgInsts;
    }
};

/** Functional emulator with the LVM oracle. */
class OracleRunner : public Runner
{
  public:
    std::string name() const override { return "oracle"; }

    std::string
    description() const override
    {
        return "functional emulator with the LVM oracle";
    }

    RunResult
    run(const Scenario &s, const comp::Executable &exe) const override
    {
        arch::EmulatorOptions eopts = s.emu;
        eopts.cancel = currentCancel();
        arch::Emulator emu(exe, eopts);
        emu.run(cappedInsts(s.budget));
        RunResult r;
        r.oracle = emu.stats();
        checkHardDeadline(s.budget, r.oracle.insts);
        return r;
    }

    std::vector<std::string>
    metricNames() const override
    {
        return {"insts", "progInsts", "kills", "memRefs", "saves",
                "restores", "saveElimOracle", "restoreElimOracle",
                "maxCallDepth"};
    }

    void
    metricValues(const RunResult &r,
                 std::vector<MetricValue> &out) const override
    {
        out.clear();
        out.push_back(MetricValue::ofU64(r.oracle.insts));
        out.push_back(MetricValue::ofU64(r.oracle.progInsts));
        out.push_back(MetricValue::ofU64(r.oracle.kills));
        out.push_back(MetricValue::ofU64(r.oracle.memRefs));
        out.push_back(MetricValue::ofU64(r.oracle.saves));
        out.push_back(MetricValue::ofU64(r.oracle.restores));
        out.push_back(MetricValue::ofU64(r.oracle.saveElimOracle));
        out.push_back(
            MetricValue::ofU64(r.oracle.restoreElimOracle));
        out.push_back(MetricValue::ofU64(r.oracle.maxCallDepth));
    }

    std::uint64_t
    simulatedInsts(const RunResult &r) const override
    {
        return r.oracle.insts;
    }
};

/** Preemptive scheduler with context-switch accounting. */
class SwitchRunner : public Runner
{
  public:
    std::string name() const override { return "switch"; }

    std::string
    description() const override
    {
        return "preemptive scheduler, context-switch accounting";
    }

    RunResult
    run(const Scenario &s, const comp::Executable &exe) const override
    {
        os::SchedulerOptions opts;
        opts.quantum = s.budget.quantum;
        opts.maxTotalInsts = cappedInsts(s.budget);
        os::Scheduler sched(opts);
        arch::EmulatorOptions eopts = s.emu;
        eopts.cancel = currentCancel();
        sched.addThread("t0", exe, eopts);
        sched.run();
        RunResult r;
        r.sw = sched.stats();
        checkHardDeadline(s.budget, r.sw.totalInsts);
        return r;
    }

    std::vector<std::string>
    metricNames() const override
    {
        return {"contextSwitches", "totalInsts",
                "baselineIntSaveRestores", "dviIntSaveRestores",
                "baselineFpSaveRestores", "dviFpSaveRestores",
                "intReductionPercent", "fpReductionPercent",
                "meanLiveIntAtSwitch"};
    }

    void
    metricValues(const RunResult &r,
                 std::vector<MetricValue> &out) const override
    {
        out.clear();
        out.push_back(MetricValue::ofU64(r.sw.contextSwitches));
        out.push_back(MetricValue::ofU64(r.sw.totalInsts));
        out.push_back(
            MetricValue::ofU64(r.sw.baselineIntSaveRestores));
        out.push_back(MetricValue::ofU64(r.sw.dviIntSaveRestores));
        out.push_back(
            MetricValue::ofU64(r.sw.baselineFpSaveRestores));
        out.push_back(MetricValue::ofU64(r.sw.dviFpSaveRestores));
        out.push_back(
            MetricValue::ofF64(r.sw.intReductionPercent()));
        out.push_back(
            MetricValue::ofF64(r.sw.fpReductionPercent()));
        out.push_back(
            MetricValue::ofF64(r.sw.liveIntAtSwitch.mean()));
    }

    std::uint64_t
    simulatedInsts(const RunResult &r) const override
    {
        return r.sw.totalInsts;
    }
};

} // namespace

const std::vector<std::string> &
Runner::metricKeys() const
{
    std::call_once(keysOnce_, [this] { keys_ = metricNames(); });
    return keys_;
}

Metrics
Runner::metrics(const RunResult &r) const
{
    const std::vector<std::string> &keys = metricKeys();
    std::vector<MetricValue> values;
    metricValues(r, values);
    panic_if(values.size() != keys.size(),
             "runner '", name(), "': metricValues produced ",
             values.size(), " values for ", keys.size(), " keys");
    Metrics out;
    out.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        out.emplace_back(keys[i], values[i]);
    return out;
}

RunnerRegistry &
RunnerRegistry::instance()
{
    static RunnerRegistry registry;
    // Built-ins registered exactly once, here rather than via static
    // initializers: the library is linked statically, and an object
    // file whose only job is self-registration would be dropped by
    // the linker.
    static std::once_flag builtins;
    std::call_once(builtins, [] {
        registry.add(std::make_unique<TimingRunner>());
        registry.add(std::make_unique<OracleRunner>());
        registry.add(std::make_unique<SwitchRunner>());
    });
    return registry;
}

void
RunnerRegistry::add(std::unique_ptr<Runner> runner)
{
    std::lock_guard<std::mutex> lk(mu_);
    const std::string key = runner->name();
    fatal_if(runners_.count(key), "runner '", key,
             "' is already registered");
    runners_.emplace(key, std::move(runner));
}

const Runner *
RunnerRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = runners_.find(name);
    return it == runners_.end() ? nullptr : it->second.get();
}

std::vector<std::string>
RunnerRegistry::names() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::string> out;
    out.reserve(runners_.size());
    for (const auto &kv : runners_)
        out.push_back(kv.first);
    return out;  // std::map iteration is already sorted
}

CancelScope::CancelScope(const base::CancelToken *cancel)
    : prev_(t_cancel)
{
    t_cancel = cancel;
}

CancelScope::~CancelScope()
{
    t_cancel = prev_;
}

const base::CancelToken *
currentCancel()
{
    return t_cancel;
}

const Runner &
runnerFor(const std::string &name)
{
    const Runner *runner = RunnerRegistry::instance().find(name);
    if (!runner) {
        std::string known;
        for (const std::string &n : RunnerRegistry::instance().names())
            known += known.empty() ? n : ", " + n;
        fatal("unknown runner '", name, "' (registered: ", known, ")");
    }
    return *runner;
}

} // namespace sim
} // namespace dvi
