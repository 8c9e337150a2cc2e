/**
 * @file
 * Unit tests for the thread pool and its TaskGroups: completion,
 * serial order on one worker, index-ordered results, exception
 * propagation, reuse after wait, nested submission, per-group
 * waiting, interleaving of concurrent groups, and clean shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "driver/thread_pool.hh"

namespace dvi
{
namespace
{

TEST(ThreadPool, RunsEveryTask)
{
    driver::ThreadPool pool(4);
    driver::TaskGroup group(pool);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        group.submit([&count] { ++count; });
    group.wait();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, SingleThreadWorks)
{
    // One worker: the group runs serially, in submission order.
    driver::ThreadPool pool(1);
    driver::TaskGroup group(pool);
    std::vector<int> order;
    for (int i = 0; i < 50; ++i)
        group.submit([&order, i] { order.push_back(i); });
    group.wait();
    ASSERT_EQ(order.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ParallelForOrdersResultsByIndex)
{
    driver::ThreadPool pool(4);
    std::vector<std::size_t> out(500, 0);
    driver::parallelFor(pool, out.size(),
                        [&out](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i * i);
}

TEST(ThreadPool, WaitWithNoTasksReturns)
{
    driver::ThreadPool pool(2);
    driver::TaskGroup group(pool);
    group.wait();  // must not hang
    SUCCEED();
}

TEST(ThreadPool, ReusableAfterWait)
{
    driver::ThreadPool pool(3);
    driver::TaskGroup group(pool);
    std::atomic<int> count{0};
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 25; ++i)
            group.submit([&count] { ++count; });
        group.wait();
        EXPECT_EQ(count.load(), 25 * (round + 1));
    }
}

TEST(ThreadPool, PropagatesFirstException)
{
    // Many throwing tasks across every worker: wait() rethrows one
    // of them, once, and every task still ran.
    driver::ThreadPool pool(4);
    driver::TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 64; ++i) {
        group.submit([&ran, i] {
            ++ran;
            if (i % 8 == 5)
                throw std::runtime_error("boom");
        });
    }
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 64);
    group.wait();  // consumed: nothing left to rethrow
}

TEST(ThreadPool, WorkersCanSubmit)
{
    driver::ThreadPool pool(4);
    driver::TaskGroup group(pool);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        group.submit([&group, &count] {
            for (int j = 0; j < 4; ++j)
                group.submit([&count] { ++count; });
        });
    }
    // wait() covers the nested tasks too: each is counted the
    // moment it is submitted, before its parent finishes.
    group.wait();
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork)
{
    // Groups on one pool, destroyed without wait(), one after
    // another: each destructor drains its own tasks and the pool's
    // destructor then joins idle workers without hanging.
    std::atomic<int> count{0};
    {
        driver::ThreadPool pool(2);
        for (int g = 0; g < 4; ++g) {
            driver::TaskGroup group(pool);
            for (int i = 0; i < 25; ++i)
                group.submit([&count] { ++count; });
        }
    }
    EXPECT_EQ(count.load(), 100);
}

TEST(TaskGroup, WaitsOnlyForItsOwnTasks)
{
    // Two groups on one pool: finishing group A must not block on
    // group B's slow tasks — the property dvi-serve needs to run
    // concurrent campaigns on a shared pool. One slow task per
    // worker can hold every worker, so the quick group finishes only
    // because its waiter runs the group's queued tasks itself.
    for (unsigned workers = 1; workers <= 8; ++workers) {
        driver::ThreadPool pool(workers);
        std::atomic<int> fast{0};
        std::atomic<bool> release{false};

        driver::TaskGroup slow(pool);
        for (unsigned i = 0; i < workers; ++i)
            slow.submit([&release] {
                while (!release.load())
                    std::this_thread::yield();
            });

        driver::TaskGroup quick(pool);
        for (int i = 0; i < 16; ++i)
            quick.submit([&fast] { ++fast; });
        quick.wait();  // must return while `slow` is still parked
        EXPECT_EQ(fast.load(), 16) << workers << " workers";

        release.store(true);
        slow.wait();
    }
}

TEST(TaskGroup, ConcurrentGroupsInterleave)
{
    // A group that fills the pool must hand workers back between its
    // tasks: a second group's task, submitted while the first still
    // has most of its tasks queued, runs on a worker long before the
    // first group's queue drains (nobody waits on the second group,
    // so no helping waiter can run it instead).
    driver::ThreadPool pool(2);
    constexpr int kLong = 40;
    std::atomic<int> longStarted{0};
    std::atomic<int> startedWhenShortRan{-1};

    driver::TaskGroup busy(pool);
    for (int i = 0; i < kLong; ++i)
        busy.submit([&longStarted] {
            ++longStarted;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        });
    while (longStarted.load() < 2)  // both workers now in `busy`
        std::this_thread::yield();

    driver::TaskGroup other(pool);
    other.submit([&] { startedWhenShortRan.store(longStarted.load()); });
    while (startedWhenShortRan.load() < 0)
        std::this_thread::yield();
    EXPECT_LT(startedWhenShortRan.load(), kLong / 2);

    busy.wait();
    other.wait();
    EXPECT_EQ(longStarted.load(), kLong);
}

TEST(TaskGroup, PropagatesFirstExceptionAndStaysUsable)
{
    driver::ThreadPool pool(2);
    driver::TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        group.submit([&ran, i] {
            if (i == 3)
                throw std::runtime_error("task boom");
            ++ran;
        });
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 7);

    // The error is consumed; the group accepts more work.
    group.submit([&ran] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 8);
}

TEST(TaskGroup, DestructorWaits)
{
    driver::ThreadPool pool(2);
    std::atomic<int> count{0};
    {
        driver::TaskGroup group(pool);
        for (int i = 0; i < 32; ++i)
            group.submit([&count] { ++count; });
        // No wait(): the destructor must block until all 32 ran.
    }
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(driver::ThreadPool::hardwareThreads(), 1u);
    driver::ThreadPool pool(0);  // 0 = hardware concurrency
    EXPECT_EQ(pool.numThreads(), driver::ThreadPool::hardwareThreads());
    std::atomic<int> count{0};
    driver::parallelFor(pool, 1, [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 1);
}

} // namespace
} // namespace dvi
