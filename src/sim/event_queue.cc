#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace jtps::sim
{

void
EventQueue::scheduleAt(Tick when, EventFn fn)
{
    jtps_assert(when >= now_);
    heap_.push_back(Item{when, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

void
EventQueue::scheduleAfter(Tick delay, EventFn fn)
{
    scheduleAt(now_ + delay, std::move(fn));
}

PeriodicId
EventQueue::schedulePeriodic(Tick period, std::function<bool()> fn)
{
    jtps_assert(period > 0);
    const PeriodicId id = next_periodic_++;
    periodic_.emplace(id, Periodic{period, std::move(fn)});
    scheduleAfter(period, [this, id]() { wakePeriodic(id); });
    return id;
}

void
EventQueue::wakePeriodic(PeriodicId id)
{
    auto it = periodic_.find(id);
    if (it == periodic_.end())
        return; // cancelled or cleared since this wake was queued
    // Hold the callback outside the record while it runs: it may
    // cancel its own chain, clear the queue or start new chains.
    std::function<bool()> fn = std::move(it->second.fn);
    const bool again = fn();
    it = periodic_.find(id);
    if (it == periodic_.end())
        return;
    if (!again) {
        periodic_.erase(it);
        return;
    }
    it->second.fn = std::move(fn);
    scheduleAfter(it->second.period, [this, id]() { wakePeriodic(id); });
}

void
EventQueue::cancelPeriodic(PeriodicId id)
{
    periodic_.erase(id);
}

void
EventQueue::runOne()
{
    jtps_assert(heap_.front().when >= now_);
    // Detach the event before running it: the callback may schedule
    // (growing the heap) or clear() it.
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Item item = std::move(heap_.back());
    heap_.pop_back();
    now_ = item.when;
    item.fn();
}

void
EventQueue::run()
{
    while (!heap_.empty())
        runOne();
}

void
EventQueue::runUntil(Tick until)
{
    while (!heap_.empty() && heap_.front().when <= until)
        runOne();
    if (now_ < until)
        now_ = until;
}

void
EventQueue::clear()
{
    heap_.clear();
    periodic_.clear();
}

} // namespace jtps::sim
