/**
 * @file
 * Campaign admission control and dispatch.
 *
 * The queue is the server's backpressure valve: a bounded pending
 * deque in front of a fixed number of dispatcher threads (one per
 * allowed concurrent campaign). admit() either enqueues a session or
 * refuses it on the spot — QueueFull maps to HTTP 429 + Retry-After
 * upstream — so memory held on behalf of unserved clients is bounded
 * by maxQueue manifests, never by the arrival rate.
 *
 * Dispatchers pop in FIFO order and hand each session to the
 * runner callback (the server's campaign executor, which fans the
 * campaign's jobs into the shared ThreadPool as one TaskGroup). A
 * session whose cancel flag was raised while still queued is flipped
 * straight to Cancelled without running. shutdown() stops admission,
 * cancels everything still pending, raises the cooperative cancel
 * flag on running campaigns, and joins the dispatchers — in-flight
 * jobs unwind at their next cancel poll, nothing is torn down
 * mid-write.
 */

#ifndef DVI_SERVE_QUEUE_HH
#define DVI_SERVE_QUEUE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/session.hh"

namespace dvi
{
namespace serve
{

class CampaignQueue
{
  public:
    /** Executes one admitted session start to terminal state. Runs
     * on a dispatcher thread; must not throw. */
    using Runner =
        std::function<void(const std::shared_ptr<CampaignSession> &)>;

    /** Admission verdicts. */
    enum class Admission
    {
        Admitted,
        QueueFull,
        ShuttingDown,
    };

    /** Starts `maxConcurrent` dispatcher threads. */
    CampaignQueue(unsigned maxConcurrent, std::size_t maxQueue,
                  Runner runner);

    /** shutdown()s if the caller has not. */
    ~CampaignQueue();

    CampaignQueue(const CampaignQueue &) = delete;
    CampaignQueue &operator=(const CampaignQueue &) = delete;

    /** Admit or refuse a session. O(1); never blocks on campaign
     * work. */
    Admission admit(std::shared_ptr<CampaignSession> session);

    /** Remove a still-pending session (flips it to Cancelled);
     * false when it already left the queue — the caller falls back
     * to the cooperative cancel flag. */
    bool cancelPending(const CampaignSession &session);

    std::size_t pending() const;
    unsigned running() const;
    unsigned maxConcurrent() const { return maxConcurrent_; }
    std::size_t maxQueue() const { return maxQueue_; }

    /** Retry-After hint for a 429: a crude, monotone-in-load
     * estimate (seconds), never 0. */
    unsigned retryAfterSeconds() const;

    /** Stop admission, cancel pending sessions, raise cancel on
     * running ones, join dispatchers (in-flight jobs drain
     * cooperatively). Idempotent. */
    void shutdown();

  private:
    void dispatchLoop();

    const unsigned maxConcurrent_;
    const std::size_t maxQueue_;
    const Runner runner_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<CampaignSession>> pending_;
    std::vector<std::shared_ptr<CampaignSession>> active_;
    bool stopping_ = false;
    std::vector<std::thread> dispatchers_;
};

} // namespace serve
} // namespace dvi

#endif // DVI_SERVE_QUEUE_HH
