/**
 * @file
 * Named operational metrics: counters, gauges and histograms.
 *
 * A MetricRegistry holds the process-level operational metrics a
 * resident simulator needs: monotonic counters (jobs completed,
 * instructions simulated, cache hits), last-write-wins gauges (queue
 * depth, worker count), and sample histograms (wrapping the existing
 * dvi::Histogram from stats/ — the simulation-statistics primitives
 * stay what they are; this layer only aggregates and exports).
 *
 * Counters and gauges are one relaxed atomic each: campaign workers
 * bump a counter once per job, dvi-serve once per request, the
 * fuzzer once per program, so a fetch_add never contends enough to
 * matter. A snapshot taken while writers run reads each metric at
 * some point during the call.
 *
 * Snapshots export deterministically: names in registration order,
 * exact u64 values through base/json. flush() emits the snapshot as
 * one `metrics` telemetry event; MetricFlusher does that on a
 * wall-clock period for long runs.
 */

#ifndef DVI_OBS_METRICS_HH
#define DVI_OBS_METRICS_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "obs/telemetry.hh"
#include "stats/histogram.hh"

namespace dvi
{
namespace obs
{

/** Dense id of a registered metric (per registry, per kind). */
using MetricId = std::uint32_t;

/** Counter / gauge / histogram registry. Thread-safe throughout. */
class MetricRegistry
{
  public:
    /** Capacity; registering more counters is fatal (the registry
     * is for a bounded set of operational metrics, not per-entity
     * data). */
    static constexpr std::size_t maxCounters = 256;
    static constexpr std::size_t maxGauges = 64;

    MetricRegistry() = default;
    ~MetricRegistry() = default;

    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** Register (or find, by exact name) a monotonic counter. */
    MetricId counter(const std::string &name);

    /** Register (or find) a last-write-wins gauge. */
    MetricId gauge(const std::string &name);

    /** Register (or find) a sample histogram. */
    MetricId histogram(const std::string &name);

    /** Add to a counter from any thread. */
    void add(MetricId counter, std::uint64_t delta = 1);

    /** Set a gauge (last write wins across threads). */
    void set(MetricId gauge, std::uint64_t value);

    /** Record one histogram sample. */
    void record(MetricId histogram, std::uint64_t value);

    /** Point-in-time aggregate of every registered metric. */
    struct Snapshot
    {
        /** (name, value), registration order. */
        std::vector<std::pair<std::string, std::uint64_t>> counters;
        std::vector<std::pair<std::string, std::uint64_t>> gauges;
        /** (name, copy), registration order. */
        std::vector<std::pair<std::string, Histogram>> histograms;
    };

    Snapshot snapshot() const;

    /**
     * snapshot() as a JSON object:
     *   {"counters":{...},"gauges":{...},"histograms":{name:
     *    {"samples":u64,"sum":u64,"min":u64,"max":u64,"mean":f64}}}
     * Deterministic for deterministic metric values: registration
     * order, exact u64s.
     */
    json::Value snapshotJson() const;

    /** Emit snapshotJson() as one `metrics` event. */
    void flush(TelemetrySink &sink) const;

  private:
    MetricId intern(std::vector<std::string> &names,
                    const std::string &name, std::size_t cap,
                    const char *what);

    mutable std::mutex mu_;
    std::vector<std::string> counterNames_;
    std::vector<std::string> gaugeNames_;
    std::vector<std::string> histogramNames_;
    std::atomic<std::uint64_t> counters_[maxCounters] = {};
    std::atomic<std::uint64_t> gauges_[maxGauges] = {};
    std::vector<std::unique_ptr<Histogram>> histograms_;
    mutable std::mutex histMu_;
};

/**
 * Periodic `metrics` flusher: a background thread that emits the
 * registry snapshot to the sink every `intervalMs` until destroyed.
 * The final end-of-run snapshot is the caller's job (the CLIs flush
 * once after the campaign so short runs still get one).
 */
class MetricFlusher
{
  public:
    MetricFlusher(const MetricRegistry &registry,
                  TelemetrySink &sink, unsigned intervalMs);
    ~MetricFlusher();

    MetricFlusher(const MetricFlusher &) = delete;
    MetricFlusher &operator=(const MetricFlusher &) = delete;

  private:
    const MetricRegistry &registry_;
    TelemetrySink &sink_;
    const unsigned intervalMs_;

    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    std::thread thread_;
};

} // namespace obs
} // namespace dvi

#endif // DVI_OBS_METRICS_HH
