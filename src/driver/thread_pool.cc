#include "driver/thread_pool.hh"

#include <algorithm>

#include "base/failpoint.hh"
#include "base/logging.hh"
#include "obs/telemetry.hh"

namespace dvi
{
namespace driver
{

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = hardwareThreads();
    workers.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
    }
    cvWork.notify_all();
    for (auto &w : workers)
        w.join();
}

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        cvWork.wait(lk, [this] { return stopping || !ready.empty(); });
        if (ready.empty())
            return;
        // One task per turn: runFront() requeues the group at the
        // back if it still has a task ready to start.
        TaskGroup &group = *ready.front();
        ready.pop_front();
        group.inReady = false;
        group.runFront(lk);
    }
}

TaskGroup::TaskGroup(ThreadPool &p) : pool(p), cap(p.numThreads()) {}

TaskGroup::~TaskGroup()
{
    finish();
}

void
TaskGroup::updateReady()
{
    if (canStart() == inReady)
        return;
    inReady = !inReady;
    if (inReady) {
        pool.ready.push_back(this);
        pool.cvWork.notify_one();
    } else {
        pool.ready.erase(
            std::find(pool.ready.begin(), pool.ready.end(), this));
    }
}

void
TaskGroup::runFront(std::unique_lock<std::mutex> &lk)
{
    ThreadPool::Task task = std::move(queued.front());
    queued.pop_front();
    ++running;
    updateReady();
    lk.unlock();

    std::exception_ptr error;
    try {
        // A helping waiter may carry its own job and sink scope;
        // the task must see a worker's, which are empty.
        const obs::DetachedScope detached;
        // Chaos site inside the group's try: an injected fault
        // surfaces through wait() as the group's firstError — the
        // path a real task-wrapper failure would take.
        DVI_FAILPOINT("pool.task");
        task();
    } catch (...) {
        error = std::current_exception();
    }
    task = nullptr;  // destroy the captures outside the lock

    lk.lock();
    if (error && !firstError)
        firstError = error;
    --running;
    --unfinished;
    updateReady();
    // Notify under the lock: once it is released, a waiter that sees
    // unfinished == 0 may destroy the group.
    cv.notify_all();
}

void
TaskGroup::submit(ThreadPool::Task task)
{
    panic_if(!task, "TaskGroup::submit: empty task");
    std::lock_guard<std::mutex> lk(pool.mu);
    queued.push_back(std::move(task));
    ++unfinished;
    updateReady();
    cv.notify_all();
}

void
TaskGroup::finish()
{
    std::unique_lock<std::mutex> lk(pool.mu);
    for (;;) {
        cv.wait(lk, [this] { return unfinished == 0 || canStart(); });
        if (unfinished == 0)
            return;
        pool.helped_.fetch_add(1, std::memory_order_relaxed);
        runFront(lk);
    }
}

void
TaskGroup::wait()
{
    finish();
    std::lock_guard<std::mutex> lk(pool.mu);
    if (firstError) {
        std::exception_ptr e = firstError;
        firstError = nullptr;
        std::rethrow_exception(e);
    }
}

void
parallelFor(ThreadPool &pool, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    TaskGroup group(pool);
    for (std::size_t i = 0; i < n; ++i)
        group.submit([&fn, i] { fn(i); });
    group.wait();
}

} // namespace driver
} // namespace dvi
