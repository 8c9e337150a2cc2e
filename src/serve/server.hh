/**
 * @file
 * dvi-serve — the resident campaign service.
 *
 * One DviServer is one long-running process serving many campaign
 * requests: a shared ThreadPool runs every campaign's jobs, one
 * TaskGroup per campaign; a process-wide ExecutableCache means a
 * manifest that names an already-compiled (benchmark, policy) pair
 * never compiles again — across requests, not just within one —
 * and a CampaignQueue bounds what the server will hold (HTTP 429 +
 * Retry-After beyond that). Campaign state, progress, and results
 * are served over a small HTTP/1.1 API whose streaming format is
 * exactly the NDJSON telemetry protocol (obs/telemetry.hh):
 *
 *   POST   /campaigns                submit a CampaignManifest ->
 *                                    202 {"id": "cN", ...}
 *                                    400 manifest diagnostic
 *                                    429 over capacity (Retry-After)
 *                                    503 shutting down
 *   GET    /campaigns                all sessions, id order
 *   GET    /campaigns/cN             status + progress counters
 *   GET    /campaigns/cN/report      finished report; byte-identical
 *                                    to `dvi-run --manifest` output
 *                                    (409 until Done)
 *   GET    /campaigns/cN/events      chunked NDJSON telemetry
 *                                    stream (replay + follow;
 *                                    ?follow=0 for replay only)
 *   DELETE /campaigns/cN             cooperative cancel
 *   GET    /healthz                  liveness + load summary
 *   GET    /metrics                  server-wide MetricRegistry
 *                                    snapshot (compile-cache hits,
 *                                    admissions, pool stats)
 *
 * Determinism contract: the driver's report is a pure function of
 * the manifest, the shared pool/cache are invisible to report
 * bytes, and profile=false manifests therefore serve reports that
 * cmp-equal a local `dvi-run --manifest` run — the acceptance
 * criterion tests/serve_test.cc and the serve-smoke CI job enforce.
 */

#ifndef DVI_SERVE_SERVER_HH
#define DVI_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "driver/campaign.hh"
#include "driver/thread_pool.hh"
#include "obs/metrics.hh"
#include "serve/http.hh"
#include "serve/queue.hh"
#include "serve/session.hh"

namespace dvi
{
namespace serve
{

/** Server sizing. */
struct ServeOptions
{
    /** TCP port; 0 = kernel-assigned (see DviServer::port()). */
    std::uint16_t port = 8080;

    /** Campaigns running at once (dispatcher threads). */
    unsigned maxConcurrent = 2;

    /** Campaigns held pending beyond the running set; admission
     * beyond it is refused with 429. */
    std::size_t maxQueue = 8;

    /** Shared pool workers; 0 = one per hardware thread. */
    unsigned workers = 0;

    /** Socket read/write timeout in seconds (0 = none); bounds slow
     * and half-open clients (see HttpServer::setIoTimeout). */
    unsigned ioTimeoutSeconds = 30;

    /** Retry policy applied to every campaign's transient job
     * failures. */
    driver::RetryPolicy retry{};
};

class DviServer
{
  public:
    explicit DviServer(const ServeOptions &opts);

    /** shutdown()s if the caller has not. */
    ~DviServer();

    DviServer(const DviServer &) = delete;
    DviServer &operator=(const DviServer &) = delete;

    /** Bind and start serving; returns once listening. */
    void start();

    /** The bound port (resolves port 0). */
    std::uint16_t port() const { return http_.port(); }

    /**
     * Graceful shutdown: refuse new admissions, cancel pending
     * campaigns, cooperatively cancel running ones (in-flight jobs
     * unwind at their next cancel poll), then stop the HTTP server
     * (open event streams are closed by their sessions reaching a
     * terminal state, or force-closed). Idempotent; ~DviServer
     * calls it too.
     */
    void shutdown();

    /** The process-wide compile cache (shared across campaigns). */
    const driver::ExecutableCache &cache() const { return cache_; }

    /** Campaigns submitted since start (includes refused ones). */
    std::uint64_t campaignsSubmitted() const;

  private:
    struct ServerMetrics;

    void handle(const HttpRequest &req, HttpResponse &res);
    void handleSubmit(const HttpRequest &req, HttpResponse &res);
    void handleList(HttpResponse &res);
    void handleStatus(const std::shared_ptr<CampaignSession> &s,
                      HttpResponse &res);
    void handleReport(const std::shared_ptr<CampaignSession> &s,
                      HttpResponse &res);
    void handleEvents(const HttpRequest &req,
                      const std::shared_ptr<CampaignSession> &s,
                      HttpResponse &res);
    void handleCancel(const std::shared_ptr<CampaignSession> &s,
                      HttpResponse &res);
    void handleHealthz(HttpResponse &res);
    void handleMetrics(HttpResponse &res);

    /** Dispatcher-side campaign execution, start to terminal. */
    void runCampaign(const std::shared_ptr<CampaignSession> &s);

    std::shared_ptr<CampaignSession> find(const std::string &id);

    ServeOptions opts_;
    driver::ThreadPool pool_;
    driver::ExecutableCache cache_;
    obs::MetricRegistry metrics_;
    std::unique_ptr<ServerMetrics> mids_;
    CampaignQueue queue_;
    HttpServer http_;

    mutable std::mutex mu_;
    std::map<std::uint64_t, std::shared_ptr<CampaignSession>>
        sessions_;
    std::atomic<std::uint64_t> nextId_{1};
    std::atomic<bool> shuttingDown_{false};
};

} // namespace serve
} // namespace dvi

#endif // DVI_SERVE_SERVER_HH
