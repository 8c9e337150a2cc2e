/**
 * @file
 * Thread pool with per-client completion groups.
 *
 * Work reaches the pool only through a TaskGroup. The pool keeps its
 * workers, one mutex and a FIFO of the groups that have a task ready
 * to start; a worker takes the front group, starts that group's
 * oldest task, and puts the group at the back of the FIFO if it
 * still has one ready. Concurrent groups therefore interleave task
 * by task. The pool is completion-order agnostic by design: callers
 * that need deterministic output must key results by a task index
 * (see parallelFor and driver::Campaign).
 */

#ifndef DVI_DRIVER_THREAD_POOL_HH
#define DVI_DRIVER_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dvi
{
namespace driver
{

class TaskGroup;

/** Fixed-size thread pool serving TaskGroups in turn. */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** 0 workers means one per hardware thread. */
    explicit ThreadPool(unsigned num_threads = 0);

    /** Stops the workers and joins them. Every TaskGroup on the
     * pool must be gone first (a group's destructor waits). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /** Tasks a waiting group ran on its own thread, not a worker's.
     * Varies from run to run. */
    std::uint64_t
    stealCount() const
    {
        return helped_.load(std::memory_order_relaxed);
    }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned hardwareThreads();

  private:
    friend class TaskGroup;

    void workerLoop();

    std::vector<std::thread> workers;

    /** Guards everything below and every group's queue and counts. */
    std::mutex mu;
    std::condition_variable cvWork;
    /** Groups with a task ready to start, each at most once. */
    std::deque<TaskGroup *> ready;
    bool stopping = false;
    std::atomic<std::uint64_t> helped_{0};
};

/**
 * Completion scope over a shared pool: wait() returns when the tasks
 * submitted through this group are done, no matter how busy the pool
 * is with other groups — so a resident server can run several
 * campaigns on one pool.
 *
 * The group keeps its not-yet-started tasks in its own FIFO. At most
 * numThreads() of them run at once, waiter included, so a one-worker
 * pool still runs its group serially and in order. wait() helps:
 * while a slot is free it runs the group's queued tasks on the
 * calling thread, so the group finishes even when every worker is
 * held by another group's long tasks. A task runs the same way on
 * either thread — the `pool.task` failpoint, exception capture, and
 * a worker's empty thread-local telemetry scope.
 *
 * The first exception a task throws is captured and rethrown from
 * this group's wait(); concurrent groups never see each other's
 * failures. After wait() returns or throws, the group is reusable.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool);

    /** Waits for stragglers (helping, as wait() does); a pending
     * exception is dropped (it was the caller's to collect via
     * wait()). */
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Enqueue a task. Safe from any thread, including this
     * group's own tasks. */
    void submit(ThreadPool::Task task);

    /** Until every task submitted through this group has finished,
     * run its queued tasks here while a slot is free, else block;
     * rethrows the first exception one raised. */
    void wait();

  private:
    friend class ThreadPool;

    /** The members below are guarded by pool.mu. */
    bool canStart() const
    {
        return !queued.empty() && running < cap;
    }
    /** Keep pool.ready holding this group exactly when canStart(). */
    void updateReady();
    /** Run the front task unlocked (caller holds lk and canStart()). */
    void runFront(std::unique_lock<std::mutex> &lk);
    /** Help while a slot is free, else block, until every task
     * submitted so far has finished. */
    void finish();

    ThreadPool &pool;
    /** Most of the group's tasks that run at once, helping waiter
     * included: the pool's size, so `--jobs 1` stays serial. */
    const std::size_t cap;
    std::condition_variable cv;          ///< a task finished or queued
    std::deque<ThreadPool::Task> queued; ///< submitted, not started
    std::size_t running = 0;
    std::size_t unfinished = 0;          ///< queued or running
    bool inReady = false;
    std::exception_ptr firstError;
};

/**
 * Run fn(i) for i in [0, n) on the pool and wait. Exceptions
 * propagate per TaskGroup::wait(). fn must be safe to invoke
 * concurrently for distinct i. Waits only for its own tasks, so
 * concurrent parallelFors may share one pool.
 */
void parallelFor(ThreadPool &pool, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace driver
} // namespace dvi

#endif // DVI_DRIVER_THREAD_POOL_HH
