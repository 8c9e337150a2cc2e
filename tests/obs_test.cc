/**
 * @file
 * Tests for the observability layer (src/obs/): NDJSON stream
 * well-formedness, wall-clock field isolation, concurrent metric
 * counting, phase tracing, log mirroring — and the headline
 * guarantee that attaching telemetry changes a campaign report by
 * zero bytes.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "driver/campaign.hh"
#include "fuzz/campaign.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace dvi
{
namespace
{

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

driver::Campaign
smallCampaign(std::uint64_t insts = 5000)
{
    driver::Campaign c("obs-test-campaign");
    for (auto id :
         {workload::BenchmarkId::Li, workload::BenchmarkId::Perl})
        for (const sim::DviPreset &preset : sim::paperPresets())
            c.add(timingScenario(id, preset, insts));
    return c;
}

/** Collect a sink's events as deep-copied (kind, job, payload)
 * records via an observer. */
struct Capture
{
    struct Rec
    {
        double ts;
        std::uint64_t seq;
        std::string kind;
        std::uint64_t job;
        json::Value payload;
    };
    std::vector<Rec> events;

    void
    attach(obs::TelemetrySink &sink)
    {
        sink.addObserver([this](const obs::Event &e) {
            events.push_back(
                {e.ts, e.seq, e.kind, e.job, *e.payload});
        });
    }

    std::size_t
    count(const std::string &kind) const
    {
        std::size_t n = 0;
        for (const Rec &r : events)
            n += r.kind == kind;
        return n;
    }
};

/** Run the NDJSON capture of one file-backed campaign. The capture
 * file is named after the running test and the process, so test
 * cases run as concurrent processes never share one. */
std::string
runCampaignToNdjson(unsigned jobs)
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path =
        testing::TempDir() + "obs_test_" + test->test_suite_name() +
        "_" + test->name() + "_" + std::to_string(::getpid()) +
        ".ndjson";
    {
        auto sink = obs::TelemetrySink::open(path);
        driver::CampaignOptions copts;
        copts.jobs = jobs;
        copts.telemetry = sink.get();
        smallCampaign().run(copts);
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    return text;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        EXPECT_NE(nl, std::string::npos)
            << "stream does not end in a newline";
        if (nl == std::string::npos)
            break;
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

bool
isWallClockField(const std::string &name)
{
    for (std::size_t i = 0; i < obs::kNumWallClockFields; ++i)
        if (name == obs::kWallClockFields[i])
            return true;
    return false;
}

/** Copy of an event object with ts and the wall-clock payload
 * fields removed — the deterministic residue. */
json::Value
normalized(const json::Value &event)
{
    json::Value out = json::Value::object();
    for (const auto &m : event.members())
        if (m.first != "ts" && !isWallClockField(m.first))
            out.set(m.first, m.second);
    return out;
}

TEST(Telemetry, EveryLineParsesWithEnvelope)
{
    const std::string text = runCampaignToNdjson(2);
    const std::vector<std::string> lines = splitLines(text);
    ASSERT_FALSE(lines.empty());

    const std::set<std::string> known = {
        "campaign-begin", "job-begin", "job-end", "progress",
        "campaign-end", "phase-begin", "phase-end", "core-sample",
        "metrics", "fuzz-begin", "fuzz-verdict", "fuzz-end", "log"};

    double prev_ts = 0.0;
    std::uint64_t expect_seq = 0;
    for (const std::string &line : lines) {
        const json::ParseResult r = json::parse(line);
        ASSERT_TRUE(r.ok()) << r.error << "\nline: " << line;
        const json::Value &e = r.value;
        ASSERT_TRUE(e.isObject());

        const json::Value *ts = e.find("ts");
        ASSERT_NE(ts, nullptr);
        const double t = ts->number();
        EXPECT_GE(t, prev_ts) << "ts went backwards";
        prev_ts = t;

        const json::Value *seq = e.find("seq");
        ASSERT_NE(seq, nullptr);
        ASSERT_TRUE(seq->isU64());
        EXPECT_EQ(seq->u64(), expect_seq) << "seq not gapless";
        ++expect_seq;

        const json::Value *kind = e.find("kind");
        ASSERT_NE(kind, nullptr);
        ASSERT_TRUE(kind->isString());
        EXPECT_TRUE(known.count(kind->str()))
            << "unknown kind " << kind->str();
    }
}

TEST(Telemetry, PerKindRequiredFields)
{
    const std::string text = runCampaignToNdjson(2);
    const std::uint64_t kJobs = smallCampaign().size();
    std::size_t begins = 0, job_ends = 0, ends = 0;
    for (const std::string &line : splitLines(text)) {
        const json::ParseResult r = json::parse(line);
        ASSERT_TRUE(r.ok()) << r.error;
        const json::Value &e = r.value;
        const std::string kind = e.find("kind")->str();
        if (kind == "campaign-begin") {
            ++begins;
            ASSERT_NE(e.find("campaign"), nullptr);
            ASSERT_NE(e.find("jobs"), nullptr);
            ASSERT_NE(e.find("workers"), nullptr);
            EXPECT_EQ(e.find("jobs")->u64(), kJobs);
        } else if (kind == "job-begin") {
            ASSERT_NE(e.find("job"), nullptr);
            ASSERT_NE(e.find("benchmark"), nullptr);
            ASSERT_NE(e.find("preset"), nullptr);
            ASSERT_NE(e.find("runner"), nullptr);
        } else if (kind == "job-end") {
            ++job_ends;
            ASSERT_NE(e.find("job"), nullptr);
            ASSERT_NE(e.find("insts"), nullptr);
            ASSERT_NE(e.find("wallSeconds"), nullptr);
            ASSERT_NE(e.find("instsPerSec"), nullptr);
        } else if (kind == "progress") {
            ASSERT_NE(e.find("done"), nullptr);
            ASSERT_NE(e.find("total"), nullptr);
            EXPECT_EQ(e.find("total")->u64(), kJobs);
        } else if (kind == "campaign-end") {
            ++ends;
            ASSERT_NE(e.find("cacheHits"), nullptr);
            ASSERT_NE(e.find("cacheMisses"), nullptr);
            // Every job does exactly one cache get, so hits +
            // misses must equal the job count.
            EXPECT_EQ(e.find("cacheHits")->u64() +
                          e.find("cacheMisses")->u64(),
                      kJobs);
        } else if (kind == "phase-end") {
            ASSERT_NE(e.find("phase"), nullptr);
            ASSERT_NE(e.find("durationSeconds"), nullptr);
        }
    }
    EXPECT_EQ(begins, 1u);
    EXPECT_EQ(ends, 1u);
    EXPECT_EQ(job_ends, kJobs);
}

TEST(Telemetry, ContentDeterministicAfterWallClockNormalization)
{
    // Serial runs emit in a deterministic order, so after dropping
    // ts and the wall-clock payload fields the two streams must be
    // byte-identical.
    const std::string a = runCampaignToNdjson(1);
    const std::string b = runCampaignToNdjson(1);
    std::string norm_a, norm_b;
    for (const std::string &line : splitLines(a))
        norm_a += normalized(json::parse(line).value).dump(0) + "\n";
    for (const std::string &line : splitLines(b))
        norm_b += normalized(json::parse(line).value).dump(0) + "\n";
    EXPECT_EQ(norm_a, norm_b);
    EXPECT_NE(a, b) << "two runs' raw streams sharing every "
                       "wall-clock timestamp is vanishingly "
                       "unlikely; is ts stuck at zero?";
}

TEST(Telemetry, ReportByteIdenticalWithTelemetryOn)
{
    const driver::Campaign campaign = smallCampaign();
    driver::CampaignOptions plain;
    plain.jobs = 2;
    const std::string without = campaign.run(plain).toJson();

    auto sink = std::make_unique<obs::TelemetrySink>();
    Capture cap;
    cap.attach(*sink);
    obs::setGlobalSink(sink.get());
    obs::setCoreSampleInsts(1000);
    driver::CampaignOptions wired;
    wired.jobs = 2;
    wired.telemetry = sink.get();
    obs::MetricRegistry metrics;
    wired.metrics = &metrics;
    const std::string with = campaign.run(wired).toJson();
    obs::setGlobalSink(nullptr);
    obs::setCoreSampleInsts(0);

    EXPECT_EQ(without, with);
    // The instrumented run must actually have observed something —
    // including mid-run core samples (5000-inst jobs sampled every
    // 1000 insts).
    EXPECT_GT(cap.count("core-sample"), 0u);
    EXPECT_EQ(cap.count("job-end"), campaign.size());
}

TEST(Telemetry, ObserverSeesStructuredEvents)
{
    obs::TelemetrySink sink;
    Capture cap;
    cap.attach(sink);

    json::Value p = json::Value::object();
    p.set("answer", std::uint64_t{42});
    sink.event("progress", p);
    sink.event("job-begin", 7, json::Value::object());

    ASSERT_EQ(cap.events.size(), 2u);
    EXPECT_EQ(cap.events[0].kind, "progress");
    EXPECT_EQ(cap.events[0].seq, 0u);
    EXPECT_EQ(cap.events[0].job, obs::noJob);
    ASSERT_NE(cap.events[0].payload.find("answer"), nullptr);
    EXPECT_EQ(cap.events[0].payload.find("answer")->u64(), 42u);
    EXPECT_EQ(cap.events[1].kind, "job-begin");
    EXPECT_EQ(cap.events[1].seq, 1u);
    EXPECT_EQ(cap.events[1].job, 7u);
    EXPECT_EQ(sink.eventCount(), 2u);
}

TEST(Telemetry, JobFieldSerializedOnlyWhenPresent)
{
    const std::string path =
        testing::TempDir() + "obs_test_job.ndjson";
    {
        auto sink = obs::TelemetrySink::open(path);
        sink->event("progress", json::Value::object());
        sink->event("job-begin", 3, json::Value::object());
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[512];
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_EQ(std::strstr(buf, "\"job\""), nullptr);
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_NE(std::strstr(buf, "\"job\": 3"), nullptr);
    std::fclose(f);
    std::remove(path.c_str());
}

TEST(Metrics, SnapshotEqualsPerThreadShardSums)
{
    obs::MetricRegistry reg;
    const obs::MetricId a = reg.counter("test.a");
    const obs::MetricId b = reg.counter("test.b");

    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kPerThread = 10000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg, a, b, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                reg.add(a);
                reg.add(b, t + 1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const obs::MetricRegistry::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "test.a");
    EXPECT_EQ(snap.counters[0].second, kThreads * kPerThread);
    EXPECT_EQ(snap.counters[1].first, "test.b");
    // Sum over t of kPerThread * (t + 1).
    EXPECT_EQ(snap.counters[1].second,
              kPerThread * (kThreads * (kThreads + 1) / 2));
}

TEST(Metrics, GaugesHistogramsAndJsonShape)
{
    obs::MetricRegistry reg;
    const obs::MetricId g = reg.gauge("test.depth");
    const obs::MetricId h = reg.histogram("test.lat");
    reg.set(g, 5);
    reg.set(g, 3);
    reg.record(h, 10);
    reg.record(h, 20);

    const json::Value snap = reg.snapshotJson();
    const json::Value *gauges = snap.find("gauges");
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(gauges->find("test.depth"), nullptr);
    EXPECT_EQ(gauges->find("test.depth")->u64(), 3u);
    const json::Value *hists = snap.find("histograms");
    ASSERT_NE(hists, nullptr);
    const json::Value *lat = hists->find("test.lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->find("samples")->u64(), 2u);
    EXPECT_EQ(lat->find("sum")->u64(), 30u);
    EXPECT_EQ(lat->find("min")->u64(), 10u);
    EXPECT_EQ(lat->find("max")->u64(), 20u);
    EXPECT_DOUBLE_EQ(lat->find("mean")->f64(), 15.0);
}

TEST(Metrics, InterningFindsExistingIds)
{
    obs::MetricRegistry reg;
    EXPECT_EQ(reg.counter("x"), reg.counter("x"));
    EXPECT_NE(reg.counter("x"), reg.counter("y"));
}

TEST(Metrics, FlushEmitsOneMetricsEvent)
{
    obs::TelemetrySink sink;
    Capture cap;
    cap.attach(sink);
    obs::MetricRegistry reg;
    reg.add(reg.counter("n"), 2);
    reg.flush(sink);
    ASSERT_EQ(cap.count("metrics"), 1u);
    const json::Value &p = cap.events.back().payload;
    ASSERT_NE(p.find("counters"), nullptr);
    EXPECT_EQ(p.find("counters")->find("n")->u64(), 2u);
}

TEST(Trace, SpanEmitsBeginAndEndWithAnnotations)
{
    obs::TelemetrySink sink;
    Capture cap;
    cap.attach(sink);
    {
        json::Value begin = json::Value::object();
        begin.set("benchmark", "li");
        obs::PhaseSpan span(&sink, "compile", 4, std::move(begin));
        span.annotate("textBytes", std::uint64_t{128});
    }
    ASSERT_EQ(cap.events.size(), 2u);
    EXPECT_EQ(cap.events[0].kind, "phase-begin");
    EXPECT_EQ(cap.events[0].job, 4u);
    EXPECT_EQ(cap.events[0].payload.find("phase")->str(), "compile");
    EXPECT_EQ(cap.events[0].payload.find("benchmark")->str(), "li");
    EXPECT_EQ(cap.events[1].kind, "phase-end");
    EXPECT_EQ(cap.events[1].payload.find("phase")->str(), "compile");
    ASSERT_NE(cap.events[1].payload.find("durationSeconds"),
              nullptr);
    EXPECT_EQ(cap.events[1].payload.find("textBytes")->u64(), 128u);
}

TEST(Trace, NullSinkSpanIsNoop)
{
    obs::PhaseSpan span(nullptr, "compile");
    span.annotate("k", std::uint64_t{1});
    EXPECT_GE(span.elapsedSeconds(), 0.0);
}

TEST(Trace, JobScopeNestsAndRestores)
{
    EXPECT_EQ(obs::currentJob(), obs::noJob);
    {
        obs::JobScope outer(3);
        EXPECT_EQ(obs::currentJob(), 3u);
        {
            obs::JobScope inner(9);
            EXPECT_EQ(obs::currentJob(), 9u);
        }
        EXPECT_EQ(obs::currentJob(), 3u);
    }
    EXPECT_EQ(obs::currentJob(), obs::noJob);
}

TEST(Telemetry, GlobalSinkMirrorsWarningsAsLogEvents)
{
    obs::TelemetrySink sink;
    Capture cap;
    cap.attach(sink);
    obs::setGlobalSink(&sink);
    warn("obs_test mirror check");
    obs::setGlobalSink(nullptr);
    warn("not mirrored");

    ASSERT_EQ(cap.count("log"), 1u);
    const json::Value &p = cap.events.back().payload;
    EXPECT_EQ(p.find("level")->str(), "warn");
    EXPECT_NE(p.find("message")->str().find("mirror check"),
              std::string::npos);
}

TEST(Progress, RendersFromProgressEvents)
{
    const std::string path =
        testing::TempDir() + "obs_test_progress.txt";
    std::FILE *out = std::fopen(path.c_str(), "w+b");
    ASSERT_NE(out, nullptr);
    {
        obs::TelemetrySink sink;
        obs::ProgressRenderer renderer(out);
        sink.addObserver([&renderer](const obs::Event &e) {
            renderer.observe(e);
        });
        json::Value p = json::Value::object();
        p.set("done", std::uint64_t{1});
        p.set("total", std::uint64_t{8});
        p.set("instsPerSec", 2.5e6);
        p.set("queueDepth", std::uint64_t{4});
        sink.event("progress", std::move(p));
        sink.event("campaign-end", json::Value::object());
    }
    std::fflush(out);
    std::rewind(out);
    char buf[512] = {};
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, out);
    std::fclose(out);
    std::remove(path.c_str());
    const std::string text(buf, n);
    EXPECT_NE(text.find("[1/8]"), std::string::npos);
    EXPECT_NE(text.find("2.50 Minsts/s"), std::string::npos);
    EXPECT_EQ(text.back(), '\n') << "campaign-end must finish the "
                                    "line";
}

TEST(Fuzz, TelemetryEmitsVerdictsAndSummary)
{
    fuzz::FuzzConfig cfg;
    cfg.programs = 5;
    cfg.oracle.maxProgInsts = 2000;
    obs::TelemetrySink sink;
    Capture cap;
    cap.attach(sink);
    cfg.telemetry = &sink;
    obs::MetricRegistry metrics;
    cfg.metrics = &metrics;
    const fuzz::FuzzResult r = fuzz::runFuzzCampaign(cfg, nullptr);

    EXPECT_EQ(cap.count("fuzz-begin"), 1u);
    EXPECT_EQ(cap.count("fuzz-verdict"), r.programsRun);
    EXPECT_EQ(cap.count("fuzz-end"), 1u);
    const obs::MetricRegistry::Snapshot snap = metrics.snapshot();
    ASSERT_FALSE(snap.counters.empty());
    EXPECT_EQ(snap.counters[0].first, "fuzz.programs");
    EXPECT_EQ(snap.counters[0].second, r.programsRun);
}

} // namespace
} // namespace dvi
