/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue orders callbacks by (tick, priority, sequence).
 * Sequence numbers make same-tick ordering deterministic: events
 * scheduled first run first. All simulation state advances only through
 * this queue, so every run with the same seed is bit-reproducible.
 *
 * Hot-path design (see DESIGN.md §10):
 *  - Callbacks are built and run in place. schedule() constructs the
 *    callable directly in its slot (SmallFn::emplace), slots live in
 *    chunks that never move (64, 128, 256, ... slots), and the winning
 *    callback runs in its slot: no event relocates its closure.
 *  - The queue is a calendar queue with exact order. Near events sit
 *    in a 256-bucket wheel of sorted per-bucket lists (node pool +
 *    occupancy bitmap); events past the wheel's horizon sit in a
 *    binary heap. The next event is the smaller of the two minima.
 *    The bucket width adapts to the observed event spacing.
 *  - Liveness is generation-based: an EventId encodes (slot,
 *    generation). deschedule() is O(1) — it destroys the slot's
 *    callback eagerly (releasing captured shared state immediately),
 *    recycles the slot under a bumped generation, and leaves a dead
 *    POD entry behind. A dead entry is recognised, when it reaches the
 *    minimum, by its stale generation.
 *  - Dead entries are physically bounded: when they outnumber live
 *    ones (beyond a small floor) they are compacted away, so
 *    cancel-heavy workloads (ack-timer churn) cannot inflate the
 *    queue.
 */

#ifndef TF_SIM_EVENT_QUEUE_HH
#define TF_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/trace/buffer.hh"

namespace tf::sim {

/** Relative ordering of events that fire on the same tick. */
enum class EventPriority : int {
    ClockEdge = 0,   ///< clock-domain edges fire first
    Default = 50,
    Stats = 90,      ///< sampling runs after state updates
    Teardown = 100,
};

class EventQueue
{
  public:
    using Callback = EventCallback;

    /** Opaque handle identifying a scheduled event (for deschedule). */
    using EventId = std::uint64_t;
    static constexpr EventId invalidEvent = 0;

    /**
     * Compaction floor: dead entries are tolerated until they exceed
     * both this floor and the live entry count. Bound on the physical
     * queue: heapSize() <= 2 * pending() + kCompactMinDead.
     */
    static constexpr std::size_t kCompactMinDead = 64;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when. The callable is
     * constructed directly in its slot.
     * @return a handle usable with deschedule().
     */
    template <typename F>
    EventId
    schedule(Tick when, F &&cb,
             EventPriority prio = EventPriority::Default)
    {
        TF_ASSERT(when >= _now, "scheduling into the past (%llu < %llu)",
                  (unsigned long long)when, (unsigned long long)_now);
        std::uint32_t slot = allocSlot();
        Slot &s = slotAt(slot);
        s.cb.emplace(std::forward<F>(cb));
        enqueue(when, prio, slot, s.gen);
        return makeId(slot, s.gen);
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <typename F>
    EventId
    scheduleIn(Tick delay, F &&cb,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(_now + delay, std::forward<F>(cb), prio);
    }

    /**
     * Cancel a previously scheduled event. O(1): the callback (and
     * everything it captured) is destroyed immediately; only a small
     * POD entry stays queued until it reaches the minimum or is
     * compacted away. Cancelling an already-fired or unknown id is a
     * no-op.
     */
    void deschedule(EventId id);

    /** Number of events still scheduled (excluding cancelled ones). */
    std::size_t pending() const { return _live; }

    /** True when no runnable events remain. */
    bool empty() const { return _live == 0; }

    /**
     * Run events until the queue drains or @p limit is reached.
     * @param limit absolute stop time; events at t > limit stay queued.
     * @return number of events executed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Run at most @p maxEvents events (drain order). */
    std::uint64_t runEvents(std::uint64_t maxEvents);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return _executed.value(); }

    /**
     * Advance time to @p when without running anything before it.
     * Only legal when no live event is scheduled before @p when.
     */
    void warp(Tick when);

    /**
     * Absolute time of the earliest live event, or maxTick when the
     * queue is drained. Purges cancelled entries off the minimum as a
     * side effect (they carry no information). The parallel engine
     * uses this to compute the next conservative window floor.
     */
    Tick nextEventTick();

    // ---- kernel health (telemetry) ----

    /** Physical queue occupancy, live + not-yet-reclaimed dead. */
    std::size_t heapSize() const { return _wheelCount + _far.size(); }

    /** Cancelled (but not yet reclaimed) entries still queued. */
    std::size_t deadEntries() const { return _dead; }

    /** Lifetime peak of the physical queue occupancy. */
    std::uint64_t heapHighWater() const { return _highWater.value(); }

    /** Events cancelled via deschedule() over the queue's lifetime. */
    std::uint64_t cancelled() const { return _cancelled.value(); }

    /** Dead-entry compaction passes over the queue's lifetime. */
    std::uint64_t compactions() const { return _compactions.value(); }

    /** Attach kernel counters ("sim.eq.*") for telemetry export. */
    void attachStats(StatSet &set);

    /**
     * This queue's span-trace buffer (see src/sim/trace). One buffer
     * per queue keeps recording single-writer (a queue only ever runs
     * on one thread), which is what lets the tracing layer stay
     * lock-free.
     */
    trace::TraceBuffer &trace() { return _trace; }
    const trace::TraceBuffer &trace() const { return _trace; }

  private:
    /**
     * Ordering key of a queued event, (when, key) lexicographic with
     * key = prio << 56 | seq. The callback is not here: entries stay
     * small and trivially copyable, and dead ones linger until they
     * reach the minimum or are compacted.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t key;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** A wheel bucket's list element, drawn from the node pool. */
    struct Node
    {
        Entry e;
        std::uint32_t next; ///< pool index, 0 ends the list
    };

    /** Callback storage; never moves once its chunk is allocated. */
    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 1;
    };

    static constexpr unsigned kBuckets = 256;
    /** Slot numbers start here: chunk k holds [64 << k, 128 << k). */
    static constexpr std::uint32_t kFirstSlot = 64;
    static constexpr unsigned kChunks = 26; // slots up to 2^32 - 1

    static bool
    earlier(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when < b.when : a.key < b.key;
    }

    static constexpr EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(slot) << 32) | gen;
    }

    Slot &
    slotAt(std::uint32_t slot)
    {
        unsigned k = static_cast<unsigned>(std::bit_width(slot)) - 7;
        return _chunks[k][slot - (kFirstSlot << k)];
    }

    std::uint32_t
    allocSlot()
    {
        if (_freeSlots.empty())
            return growSlots();
        std::uint32_t slot = _freeSlots.back();
        _freeSlots.pop_back();
        return slot;
    }

    std::uint32_t growSlots();
    void enqueue(Tick when, EventPriority prio, std::uint32_t slot,
                 std::uint32_t gen);
    void insert(const Entry &e, bool count);
    void pushFar(const Entry &e);
    int firstBucket() const;
    bool peek(Entry &top, int &bucket) const;
    void popTop(int bucket);
    void adaptWidth();
    void rebuild(unsigned shift);
    void retire(Slot &s);
    void setNow(Tick t);
    void maybeCompact();
    void checkOccupancyBound() const;
    template <typename Stop> std::uint64_t drain(Tick limit, Stop stop);

    // Calendar wheel: bucket b holds, sorted, the entries whose day
    // (when >> _shift) is the one day in [_cursor, _cursor + 256)
    // congruent to b. Everything else (later days, and inserts that
    // would walk a long bucket) sits in the _far heap.
    std::array<std::uint32_t, kBuckets> _head{};
    std::array<std::uint64_t, kBuckets / 64> _occupied{};
    std::vector<Node> _nodes; ///< index 0, once grown, is the list end
    std::uint32_t _freeNode = 0;
    std::size_t _wheelCount = 0;
    std::vector<Entry> _far; ///< min-heap under earlier()
    unsigned _shift = 10;    ///< bucket width 2^_shift ticks
    std::uint64_t _cursor = 0; ///< _now >> _shift, never ahead of now

    // Width adaptation window (see adaptWidth()).
    std::uint32_t _pushes = 0;
    std::uint32_t _farPushes = 0;
    std::uint32_t _wheelPushes = 0;
    std::uint32_t _longWalks = 0;

    std::array<std::unique_ptr<Slot[]>, kChunks> _chunks;
    std::uint64_t _slotEnd = kFirstSlot; ///< next never-used slot
    std::vector<std::uint32_t> _freeSlots;

    std::size_t _live = 0;
    std::size_t _dead = 0;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    Counter _executed;
    Counter _cancelled;
    Counter _compactions;
    Counter _highWater;
    trace::TraceBuffer _trace;
};

} // namespace tf::sim

#endif // TF_SIM_EVENT_QUEUE_HH
