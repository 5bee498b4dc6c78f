/**
 * @file
 * A small discrete-event simulation engine.
 *
 * Simulated time is measured in Ticks (milliseconds). Components
 * (the KSM scanner, GC timers, client drivers, measurement snapshots)
 * schedule callbacks; EventQueue::run() drains them in time order.
 * Events scheduled at the same tick run in insertion order so that a
 * scenario is fully deterministic. An event that schedules at now()
 * while the tick is draining runs later in the same tick, still in
 * insertion order.
 */

#ifndef JTPS_SIM_EVENT_QUEUE_HH
#define JTPS_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "base/types.hh"

namespace jtps::sim
{

/** Callback type for scheduled events. */
using EventFn = std::function<void()>;

/** Handle of one periodic chain (see EventQueue::schedulePeriodic). */
using PeriodicId = std::uint64_t;

/**
 * Time-ordered event queue with support for one-shot and periodic
 * events. Not thread-safe.
 */
class EventQueue
{
  public:
    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to run at absolute tick @p when (>= now). */
    void scheduleAt(Tick when, EventFn fn);

    /** Schedule @p fn to run @p delay ticks from now. */
    void scheduleAfter(Tick delay, EventFn fn);

    /**
     * Schedule @p fn every @p period ticks, starting @p period from now.
     * The callback returns true to keep running, false to cancel.
     * The queue owns the callback until the chain ends, is cancelled
     * or the queue is cleared. @return the chain's id.
     */
    PeriodicId schedulePeriodic(Tick period, std::function<bool()> fn);

    /**
     * End periodic chain @p id: its callback is released now and its
     * pending wake does nothing. A no-op for a chain that already
     * ended; safe from inside any callback, the chain's own included.
     */
    void cancelPeriodic(PeriodicId id);

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Run until the queue is empty. */
    void run();

    /**
     * Run until simulated time reaches @p until (events at exactly
     * @p until still execute). Later events stay queued.
     */
    void runUntil(Tick until);

    /** Drop all pending events and periodic chains without running
     *  them. */
    void clear();

  private:
    /** One pending event. Ordered by (when, seq): the insertion
     *  sequence breaks same-tick ties, so FIFO order within a tick is
     *  preserved exactly as the old ordered-map key did. */
    struct Item
    {
        Tick when;
        std::uint64_t seq;
        EventFn fn;
    };

    /** A live periodic chain. Its pending wake refers to it by id
     *  only, so the record owns nothing that points back at it. */
    struct Periodic
    {
        Tick period;
        std::function<bool()> fn;
    };

    /** Heap predicate: @p a fires after @p b (min-heap via the
     *  standard max-heap algorithms). */
    static bool
    later(const Item &a, const Item &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    void runOne();
    void wakePeriodic(PeriodicId id);

    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    /**
     * Binary min-heap on (when, seq). A simulated run is almost pure
     * push/pop-min churn (every periodic component reschedules itself
     * each wake), which the flat array serves without the per-node
     * allocation and pointer chasing of the former std::map — see
     * BM_EventQueueChurn.
     */
    std::vector<Item> heap_;

    PeriodicId next_periodic_ = 0;
    std::unordered_map<PeriodicId, Periodic> periodic_;
};

} // namespace jtps::sim

#endif // JTPS_SIM_EVENT_QUEUE_HH
