/**
 * @file
 * Unit tests for the discrete-event engine.
 */

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"

using namespace jtps;
using sim::EventQueue;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt(30, [&] { order.push_back(3); });
    q.scheduleAt(10, [&] { order.push_back(1); });
    q.scheduleAt(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.scheduleAt(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Tick fired_at = 0;
    q.scheduleAt(100, [&] {
        q.scheduleAfter(50, [&] { fired_at = q.now(); });
    });
    q.run();
    EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueue, PeriodicRunsUntilCancelled)
{
    EventQueue q;
    int count = 0;
    q.schedulePeriodic(10, [&] {
        ++count;
        return count < 5;
    });
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RunUntilLeavesLaterEvents)
{
    EventQueue q;
    int fired = 0;
    q.scheduleAt(10, [&] { ++fired; });
    q.scheduleAt(20, [&] { ++fired; });
    q.scheduleAt(30, [&] { ++fired; });
    q.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.now(), 20u);
    q.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueue, ClearDropsEvents)
{
    EventQueue q;
    int fired = 0;
    q.scheduleAt(10, [&] { ++fired; });
    q.clear();
    q.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, PeriodicInterleavesWithOneShots)
{
    EventQueue q;
    std::vector<std::pair<char, Tick>> log;
    q.schedulePeriodic(7, [&] {
        log.push_back({'p', q.now()});
        return q.now() < 28;
    });
    q.scheduleAt(10, [&] { log.push_back({'o', q.now()}); });
    q.run();
    ASSERT_GE(log.size(), 3u);
    // One-shot at 10 must land between periodic firings at 7 and 14.
    auto it = std::find_if(log.begin(), log.end(),
                           [](auto &e) { return e.first == 'o'; });
    ASSERT_NE(it, log.end());
    EXPECT_EQ(it->second, 10u);
}

TEST(EventQueue, ScheduleAtNowDuringDrainRunsSameTick)
{
    EventQueue q;
    std::vector<std::pair<int, Tick>> log;
    // The first event at tick 10 schedules two more *at now()* while
    // the tick is draining; a later tick-10 event was already queued.
    // All four must run at tick 10 in insertion order.
    q.scheduleAt(10, [&] {
        log.push_back({0, q.now()});
        q.scheduleAt(q.now(), [&] { log.push_back({2, q.now()}); });
        q.scheduleAt(q.now(), [&] { log.push_back({3, q.now()}); });
    });
    q.scheduleAt(10, [&] { log.push_back({1, q.now()}); });
    q.scheduleAt(20, [&] { log.push_back({4, q.now()}); });
    q.run();
    ASSERT_EQ(log.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(log[i].first, i);
        EXPECT_EQ(log[i].second, i < 4 ? 10u : 20u);
    }
}

// ----------------------------------------------------------------------
// Periodic chains: the queue owns each chain's callback only while the
// chain lives. The token's weak pointer expires exactly when the queue
// has released the callback (and everything it captured).
// ----------------------------------------------------------------------

TEST(EventQueue, PeriodicReleasesCallbackWhenItReturnsFalse)
{
    EventQueue q;
    auto token = std::make_shared<int>(0);
    std::weak_ptr<int> watch = token;
    q.schedulePeriodic(10, [token]() { return ++*token < 3; });
    token.reset();
    q.run();
    EXPECT_EQ(q.now(), 30u);
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, ClearReleasesPeriodicCallbacks)
{
    EventQueue q;
    auto token = std::make_shared<int>(0);
    std::weak_ptr<int> watch = token;
    q.schedulePeriodic(10, [token]() {
        ++*token;
        return true;
    });
    token.reset();
    q.runUntil(25);
    EXPECT_EQ(*watch.lock(), 2);
    q.clear();
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelPeriodicEndsTheChain)
{
    EventQueue q;
    auto token = std::make_shared<int>(0);
    std::weak_ptr<int> watch = token;
    int other = 0;
    const sim::PeriodicId id = q.schedulePeriodic(10, [token]() {
        ++*token;
        return true;
    });
    q.schedulePeriodic(10, [&]() { return ++other < 5; });
    token.reset();
    q.runUntil(20);
    q.cancelPeriodic(id);
    EXPECT_TRUE(watch.expired());
    q.run();
    EXPECT_EQ(other, 5);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, PeriodicMayCancelItselfAndStartChains)
{
    EventQueue q;
    std::vector<std::pair<char, Tick>> log;
    sim::PeriodicId self = 0;
    self = q.schedulePeriodic(10, [&]() {
        log.push_back({'a', q.now()});
        // Returning true after cancelling must not revive the chain.
        q.cancelPeriodic(self);
        q.schedulePeriodic(5, [&]() {
            log.push_back({'b', q.now()});
            return q.now() < 20;
        });
        return true;
    });
    q.run();
    EXPECT_EQ(log, (std::vector<std::pair<char, Tick>>{
                       {'a', 10}, {'b', 15}, {'b', 20}}));
}
