/**
 * @file
 * Tests for the fault-tolerance layer: failpoint spec parsing and
 * deterministic firing, the campaign retry/quarantine loop, the
 * wall-clock and instruction hard deadlines, campaign cancel of a
 * job in flight, and the
 * degraded-report contract (partial results, error records, byte
 * identity of everything that did not fail, manifest round-trip).
 *
 * Failpoint state is process-global, so every test arms its sites
 * through the ChaosTest fixture, whose TearDown disarms them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/failpoint.hh"
#include "base/fault.hh"
#include "driver/campaign.hh"
#include "driver/report.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "sim/manifest.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"

namespace dvi
{
namespace
{

class ChaosTest : public ::testing::Test
{
  protected:
    void SetUp() override { fail::reset(); }
    void TearDown() override { fail::reset(); }
};

sim::Scenario
timingScenario(workload::BenchmarkId id, const sim::DviPreset &preset,
               std::uint64_t insts)
{
    sim::Scenario s;
    s.runner = "timing";
    s.workload = id;
    s.budget.maxInsts = insts;
    sim::applyPreset(s, preset);
    return s;
}

/** Two tiny timing jobs — enough to have a survivor next to a
 * quarantined job. */
driver::Campaign
smallCampaign(std::uint64_t insts = 3000)
{
    driver::Campaign c("chaos-campaign");
    c.add(timingScenario(workload::BenchmarkId::Li,
                         sim::presetNone(), insts));
    c.add(timingScenario(workload::BenchmarkId::Li,
                         sim::presetFull(), insts));
    return c;
}

std::uint64_t
gaugeValue(const obs::MetricRegistry &reg, const std::string &name)
{
    for (const auto &g : reg.snapshot().gauges)
        if (g.first == name)
            return g.second;
    return 0;
}

std::uint64_t
counterValue(const obs::MetricRegistry &reg, const std::string &name)
{
    for (const auto &c : reg.snapshot().counters)
        if (c.first == name)
            return c.second;
    return 0;
}

// ------------------------------------------------- spec parsing

TEST_F(ChaosTest, SpecParsing)
{
    EXPECT_EQ(fail::configure(""), "");
    EXPECT_FALSE(fail::armed());

    EXPECT_EQ(fail::configure("a=throw"), "");
    EXPECT_TRUE(fail::armed());
    EXPECT_EQ(fail::configure(
                  "driver.compile=throw@1in20,b=delay:5,seed=42"),
              "");
    EXPECT_EQ(fail::configure("a=throw:permanent@once"), "");
    EXPECT_EQ(fail::configure("a=error@always"), "");

    // Each diagnostic names the offending clause.
    EXPECT_NE(fail::configure("nonsense"), "");
    EXPECT_NE(fail::configure("a=bogus-action"), "");
    EXPECT_NE(fail::configure("a=throw@1in0"), "");
    EXPECT_NE(fail::configure("a=throw@sometimes"), "");
    EXPECT_NE(fail::configure("a=delay:soon"), "");
    EXPECT_NE(fail::configure("seed=xyz"), "");

    // A failed configure installs nothing — the prior spec survives.
    ASSERT_EQ(fail::configure("keep=error"), "");
    EXPECT_NE(fail::configure("broken"), "");
    EXPECT_TRUE(fail::armed());
    EXPECT_TRUE(DVI_FAILPOINT_ERROR("keep"));

    fail::reset();
    EXPECT_FALSE(fail::armed());
    EXPECT_FALSE(DVI_FAILPOINT_ERROR("keep"));
}

TEST_F(ChaosTest, OnceFiresExactlyOnce)
{
    ASSERT_EQ(fail::configure("p=error@once"), "");
    EXPECT_TRUE(DVI_FAILPOINT_ERROR("p"));
    EXPECT_FALSE(DVI_FAILPOINT_ERROR("p"));
    EXPECT_FALSE(DVI_FAILPOINT_ERROR("p"));
    EXPECT_EQ(fail::fireCount("p"), 1u);
    EXPECT_EQ(fail::fireCount("no-such-site"), 0u);
}

TEST_F(ChaosTest, ThrowActionCarriesKindAndSite)
{
    ASSERT_EQ(fail::configure("p=throw:permanent"), "");
    try {
        DVI_FAILPOINT("p");
        FAIL() << "failpoint did not throw";
    } catch (const base::FaultInjected &f) {
        EXPECT_EQ(f.kind(), base::FaultKind::Permanent);
        EXPECT_EQ(f.site(), "p");
        EXPECT_NE(std::string(f.what()).find("'p'"),
                  std::string::npos);
    }

    // The error-style flavor must not unwind even for throw actions.
    ASSERT_EQ(fail::configure("q=throw"), "");
    EXPECT_TRUE(DVI_FAILPOINT_ERROR("q"));
}

TEST_F(ChaosTest, OneInNFiringIsDeterministicPerSeed)
{
    const auto pattern = [](const std::string &spec) {
        fail::reset();
        EXPECT_EQ(fail::configure(spec), "");
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(DVI_FAILPOINT_ERROR("p"));
        return fired;
    };

    const std::vector<bool> a = pattern("p=error@1in3,seed=7");
    const std::vector<bool> b = pattern("p=error@1in3,seed=7");
    EXPECT_EQ(a, b);  // same spec + seed -> identical hit pattern

    // ~1/3 of 64 hits fire: neither none nor all.
    const std::size_t fires =
        static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
    EXPECT_GT(fires, 0u);
    EXPECT_LT(fires, 64u);
}

// ------------------------------------------------- retry policy

TEST_F(ChaosTest, RetryBackoffIsDeterministicAndCapped)
{
    const driver::RetryPolicy p;  // base 10ms, cap 1000ms
    EXPECT_EQ(driver::retryBackoffMs(p, 1), 10u);
    EXPECT_EQ(driver::retryBackoffMs(p, 2), 20u);
    EXPECT_EQ(driver::retryBackoffMs(p, 3), 40u);
    EXPECT_EQ(driver::retryBackoffMs(p, 7), 640u);
    EXPECT_EQ(driver::retryBackoffMs(p, 8), 1000u);   // capped
    EXPECT_EQ(driver::retryBackoffMs(p, 63), 1000u);  // shift-safe
}

// ------------------------------------- campaign fault isolation

TEST_F(ChaosTest, TransientJobFaultRetriesToByteIdenticalReport)
{
    const driver::Campaign c = smallCampaign();
    driver::CampaignOptions copts;
    copts.jobs = 1;
    copts.retry.backoffBaseMs = 1;  // keep the test fast

    obs::TelemetrySink sink;
    std::vector<std::string> lines;
    sink.addLineObserver(
        [&lines](const std::string &l) { lines.push_back(l); });
    copts.telemetry = &sink;

    ASSERT_EQ(fail::configure("driver.job=throw@once"), "");
    const driver::CampaignReport faulted = c.run(copts);
    fail::reset();

    EXPECT_FALSE(faulted.degraded);
    unsigned retries = 0;
    for (const driver::JobResult &r : faulted.results) {
        EXPECT_FALSE(r.failed);
        retries += r.retries;
    }
    EXPECT_EQ(retries, 1u);

    bool sawRetry = false;
    for (const std::string &l : lines)
        sawRetry |= l.find("\"kind\": \"retry\"") != std::string::npos;
    EXPECT_TRUE(sawRetry);

    // The recovered report is byte-identical to a fault-free run:
    // retries are in-process bookkeeping, never serialized for
    // successful jobs.
    driver::CampaignOptions plain;
    plain.jobs = 1;
    EXPECT_EQ(faulted.toJson(), c.run(plain).toJson());
}

TEST_F(ChaosTest, TransientCompileFaultRecompilesAndRecovers)
{
    const driver::Campaign c = smallCampaign();
    driver::CampaignOptions copts;
    copts.jobs = 1;
    copts.retry.backoffBaseMs = 1;

    // The compile failpoint throws out of the cache's call_once, so
    // the once-flag stays unset and the retry recompiles.
    ASSERT_EQ(fail::configure("driver.compile=throw@once"), "");
    const driver::CampaignReport faulted = c.run(copts);
    fail::reset();

    EXPECT_FALSE(faulted.degraded);
    driver::CampaignOptions plain;
    plain.jobs = 1;
    EXPECT_EQ(faulted.toJson(), c.run(plain).toJson());
}

TEST_F(ChaosTest, PermanentJobFaultQuarantinesAndDegrades)
{
    const driver::Campaign c = smallCampaign();
    driver::CampaignOptions copts;
    copts.jobs = 1;

    obs::MetricRegistry metrics;
    copts.metrics = &metrics;
    obs::TelemetrySink sink;
    std::vector<std::string> lines;
    sink.addLineObserver(
        [&lines](const std::string &l) { lines.push_back(l); });
    copts.telemetry = &sink;

    ASSERT_EQ(fail::configure("driver.job=throw:permanent@once"), "");
    const driver::CampaignReport report = c.run(copts);
    fail::reset();

    // The campaign completed: one job quarantined, the rest intact.
    EXPECT_TRUE(report.degraded);
    EXPECT_FALSE(report.cancelled);
    std::size_t failedJobs = 0;
    for (const driver::JobResult &r : report.results) {
        if (!r.failed)
            continue;
        ++failedJobs;
        EXPECT_EQ(r.error.kind, base::FaultKind::Permanent);
        EXPECT_EQ(r.retries, 0u);  // permanent faults never retry
        EXPECT_NE(r.error.message.find("driver.job"),
                  std::string::npos);
    }
    EXPECT_EQ(failedJobs, 1u);
    EXPECT_EQ(counterValue(metrics, "campaign.quarantined"), 1u);
    EXPECT_EQ(counterValue(metrics, "campaign.retries"), 0u);

    // Every surviving job's numbers match a fault-free run exactly.
    driver::CampaignOptions plain;
    plain.jobs = 1;
    const driver::CampaignReport clean = c.run(plain);
    ASSERT_EQ(report.results.size(), clean.results.size());
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        if (report.results[i].failed)
            continue;
        EXPECT_EQ(report.results[i].run.ipc, clean.results[i].run.ipc);
        EXPECT_EQ(report.results[i].textBytes,
                  clean.results[i].textBytes);
    }

    // The serialized report carries the degraded flag and the error
    // record, and the telemetry stream carries the error event.
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"permanent\""), std::string::npos);
    bool sawError = false;
    for (const std::string &l : lines)
        sawError |= l.find("\"kind\": \"error\"") != std::string::npos;
    EXPECT_TRUE(sawError);
}

TEST_F(ChaosTest, DegradedReportRoundTripsAsManifest)
{
    const driver::Campaign c = smallCampaign();
    driver::CampaignOptions copts;
    copts.jobs = 1;
    ASSERT_EQ(fail::configure("driver.job=throw:permanent@once"), "");
    const driver::CampaignReport report = c.run(copts);
    fail::reset();
    ASSERT_TRUE(report.degraded);

    // Reports load back as manifests (they embed their resolved
    // scenarios); a degraded report must too — failed jobs keep
    // their scenario record next to the error.
    sim::CampaignManifest m;
    const std::string err = sim::manifestFromJson(report.toJson(), m);
    EXPECT_EQ(err, "");
    EXPECT_EQ(m.scenarios.size(), report.results.size());
}

// -------------------------------------------- deadlines & cancel

/** Runs of SpinRunner started so far. */
std::atomic<int> g_spinStarts{0};

/** A runner that never finishes on its own: it spins until the
 * scoped cancel token (the job's deadline or its campaign's flag)
 * is requested, then unwinds with CancelledError exactly like the
 * simulation loops. */
class SpinRunner : public sim::Runner
{
  public:
    std::string name() const override { return "spin"; }
    std::string
    description() const override
    {
        return "spins until cancelled (deadline and cancel tests)";
    }

    sim::RunResult
    run(const sim::Scenario &, const comp::Executable &) const override
    {
        ++g_spinStarts;
        const base::CancelToken *cancel = sim::currentCancel();
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(20);
        while (!cancel || !cancel->requested()) {
            if (std::chrono::steady_clock::now() > deadline)
                throw std::runtime_error(
                    "spin runner: cancel never arrived");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        throw base::CancelledError("spin runner cancelled");
    }

    std::vector<std::string>
    metricNames() const override
    {
        return {};
    }
    void
    metricValues(const sim::RunResult &,
                 std::vector<sim::MetricValue> &out) const override
    {
        out.clear();
    }
};

void
registerSpinRunner()
{
    static const bool once = [] {
        sim::RunnerRegistry::instance().add(
            std::make_unique<SpinRunner>());
        return true;
    }();
    (void)once;
}

TEST_F(ChaosTest, WatchdogCancelsStuckJobAndReclaimsWorker)
{
    registerSpinRunner();

    driver::Campaign c("watchdog");
    sim::Scenario stuck;
    stuck.runner = "spin";
    stuck.workload = workload::BenchmarkId::Li;
    stuck.budget.maxInsts = 1000;
    stuck.budget.maxWallMs = 50;
    c.add(stuck);
    // A healthy job behind the stuck one proves the worker thread
    // survives the cancellation and keeps draining the campaign.
    c.add(timingScenario(workload::BenchmarkId::Li,
                         sim::presetNone(), 3000));

    driver::CampaignOptions copts;
    copts.jobs = 1;
    obs::MetricRegistry metrics;
    copts.metrics = &metrics;

    const driver::CampaignReport report = c.run(copts);

    EXPECT_TRUE(report.degraded);
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_TRUE(report.results[0].failed);
    EXPECT_EQ(report.results[0].error.kind,
              base::FaultKind::BudgetExceeded);
    EXPECT_NE(report.results[0].error.message.find("deadline"),
              std::string::npos);
    EXPECT_EQ(report.results[0].retries, 0u);  // deadlines never retry
    EXPECT_FALSE(report.results[1].failed);
    EXPECT_GT(report.results[1].run.ipc, 0.0);
    EXPECT_EQ(gaugeValue(metrics, "campaign.watchdogFires"), 1u);

    // The same stuck job with no deadline: raising the campaign's
    // flag mid-job unwinds it at its next poll.
    driver::Campaign flagged("cancel");
    stuck.budget.maxWallMs = 0;
    flagged.add(stuck);
    std::atomic<bool> cancel{false};
    driver::CampaignOptions fopts;
    fopts.jobs = 1;
    fopts.cancel = &cancel;
    const int spinsBefore = g_spinStarts.load();
    std::chrono::steady_clock::time_point raised;
    std::thread raiser([&] {
        while (g_spinStarts.load() == spinsBefore)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        raised = std::chrono::steady_clock::now();
        cancel.store(true);
    });
    const driver::CampaignReport cancelled = flagged.run(fopts);
    raiser.join();
    EXPECT_LT(std::chrono::steady_clock::now() - raised,
              std::chrono::seconds(1));
    EXPECT_TRUE(cancelled.cancelled);
    ASSERT_EQ(cancelled.results.size(), 1u);
    EXPECT_TRUE(cancelled.results[0].failed);
}

TEST_F(ChaosTest, HardInstructionDeadlineQuarantinesJob)
{
    driver::Campaign c("hard-deadline");
    sim::Scenario s = timingScenario(workload::BenchmarkId::Li,
                                     sim::presetNone(), 20000);
    s.budget.hardMaxInsts = 5000;
    c.add(s);

    driver::CampaignOptions copts;
    copts.jobs = 1;
    const driver::CampaignReport report = c.run(copts);

    EXPECT_TRUE(report.degraded);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_TRUE(report.results[0].failed);
    EXPECT_EQ(report.results[0].error.kind,
              base::FaultKind::BudgetExceeded);
}

// ------------------------------------------------- other sites

TEST_F(ChaosTest, TelemetryWriteFaultDropsLineButKeepsObservers)
{
    // The write failpoint is error-style: the fwrite is skipped (and
    // counted) but line observers still run, so serve streams stay
    // gapless even when the backing file is chaos-degraded.
    const std::string path =
        ::testing::TempDir() + "chaos_telemetry.ndjson";
    ASSERT_EQ(fail::configure("obs.telemetry.write=error@once"), "");
    std::vector<std::string> lines;
    {
        std::unique_ptr<obs::TelemetrySink> sink =
            obs::TelemetrySink::open(path);
        sink->addLineObserver(
            [&lines](const std::string &l) { lines.push_back(l); });
        for (int i = 0; i < 2; ++i) {
            json::Value p = json::Value::object();
            p.set("level", "info");
            p.set("message", "chaos");
            sink->event("log", std::move(p));
        }
        EXPECT_EQ(sink->droppedWrites(), 1u);
    }
    EXPECT_EQ(lines.size(), 2u);  // observers saw every event

    // The file is short the dropped line.
    std::ifstream in(path);
    std::size_t fileLines = 0;
    for (std::string line; std::getline(in, line);)
        ++fileLines;
    EXPECT_EQ(fileLines, 1u);
    std::remove(path.c_str());
}

} // namespace
} // namespace dvi
