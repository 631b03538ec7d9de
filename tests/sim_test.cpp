/**
 * @file
 * Unit tests for the discrete-event kernel, RNG and statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

using namespace tf::sim;

TEST(Ticks, Conversions)
{
    EXPECT_EQ(nanoseconds(1), 1000u);
    EXPECT_EQ(microseconds(1), 1000u * 1000u);
    EXPECT_EQ(milliseconds(1), 1000ull * 1000 * 1000);
    EXPECT_EQ(seconds(1), 1000ull * 1000 * 1000 * 1000);
    EXPECT_DOUBLE_EQ(toNs(nanoseconds(950)), 950.0);
    EXPECT_DOUBLE_EQ(toUs(microseconds(3.5)), 3.5);
    EXPECT_DOUBLE_EQ(toSec(seconds(2)), 2.0);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickFifoAndPriority)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] { order.push_back(1); });
    eq.schedule(50, [&] { order.push_back(2); });
    eq.schedule(50, [&] { order.push_back(0); },
                EventPriority::ClockEdge);
    eq.schedule(50, [&] { order.push_back(3); }, EventPriority::Stats);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, RunWithLimitLeavesLaterEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.schedule(200, [&] { ++fired; });
    std::uint64_t n = eq.run(150);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 150u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ScheduleFromCallback)
{
    EventQueue eq;
    int chain = 0;
    std::function<void()> step = [&] {
        if (++chain < 5)
            eq.scheduleIn(10, step);
    };
    eq.schedule(0, step);
    eq.run();
    EXPECT_EQ(chain, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, Deschedule)
{
    EventQueue eq;
    int fired = 0;
    auto id = eq.schedule(100, [&] { ++fired; });
    eq.schedule(50, [&] { ++fired; });
    eq.deschedule(id);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
    // Descheduling an already-fired id is a no-op.
    eq.deschedule(id);
}

TEST(EventQueue, PendingCountsLiveEventsOnly)
{
    EventQueue eq;
    auto a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, Warp)
{
    EventQueue eq;
    eq.warp(500);
    EXPECT_EQ(eq.now(), 500u);
    int fired = 0;
    eq.schedule(600, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, WarpPastCancelledEventOnly)
{
    // Only a cancelled entry lies before the target, so nothing live
    // is skipped: warp() checks the earliest *live* event.
    EventQueue eq;
    auto id = eq.schedule(10, [] {});
    eq.deschedule(id);
    ASSERT_EQ(eq.pending(), 0u);
    eq.warp(20);
    EXPECT_EQ(eq.now(), 20u);
    int fired = 0;
    eq.scheduleIn(5, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 25u);
}

TEST(ClockDomain, PrototypeFrequency)
{
    ClockDomain clk = prototypeClock();
    // 401 MHz -> 2493 ps period (integer truncation of 2493.77).
    EXPECT_EQ(clk.period(), 2493u);
    EXPECT_NEAR(clk.frequencyHz(), 401e6, 1e6);
}

TEST(ClockDomain, EdgesAndCycles)
{
    ClockDomain clk(1e9); // 1 GHz, 1000 ps period
    EXPECT_EQ(clk.nextEdge(0), 0u);
    EXPECT_EQ(clk.nextEdge(1), 1000u);
    EXPECT_EQ(clk.nextEdge(1000), 1000u);
    EXPECT_EQ(clk.nextEdge(1001), 2000u);
    EXPECT_EQ(clk.cycles(5), 5000u);
    EXPECT_EQ(clk.cycleCount(5500), 5u);
}

TEST(ClockDomain, MesochronousPhase)
{
    ClockDomain clk(1e9, 250);
    EXPECT_EQ(clk.nextEdge(0), 250u);
    EXPECT_EQ(clk.nextEdge(251), 1250u);
}

TEST(ClockDomain, MesochronousEdgeAlignment)
{
    // Three transceiver-group clocks at the prototype frequency with
    // distinct skews (thirds of a period): every edge must stay
    // phase-aligned to its own domain — same frequency, constant
    // offset, zero drift — for arbitrary query times.
    const std::array<Tick, 3> phases = {0, 831, 1662};
    std::vector<ClockDomain> domains;
    for (Tick p : phases)
        domains.push_back(prototypeClock(p));
    const Tick period = domains[0].period();

    const std::array<Tick, 7> queries = {0u,    1u,      830u,   831u,
                                         2493u, 100000u, 999983u};
    for (Tick t : queries) {
        for (const ClockDomain &clk : domains) {
            Tick e = clk.nextEdge(t);
            EXPECT_GE(e, t);
            EXPECT_EQ((e - clk.phase()) % period, 0u);
            // Edges are fixed points; the following edge is exactly
            // one period later and advances the cycle count by one.
            EXPECT_EQ(clk.nextEdge(e), e);
            EXPECT_EQ(clk.nextEdge(e + 1), e + period);
            EXPECT_EQ(clk.cycleCount(e + period),
                      clk.cycleCount(e) + 1);
        }
        // Mesochronous pair: the offset between the domains' next
        // edges is always congruent to their phase skew.
        Tick ea = domains[0].nextEdge(t);
        Tick eb = domains[1].nextEdge(t);
        EXPECT_EQ((eb + period - ea) % period, phases[1] % period);
    }
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    Summary s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, BoundedParetoStaysBounded)
{
    Rng rng(17);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.boundedPareto(1.2, 1.0, 1000.0);
        EXPECT_GE(v, 1.0);
        EXPECT_LE(v, 1000.0);
    }
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(19);
    ZipfGenerator zipf(1000, 1.0);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 200000; ++i)
        ++counts[zipf(rng)];
    EXPECT_GT(counts[0], counts[9]);
    EXPECT_GT(counts[9], counts[99]);
    EXPECT_GT(counts[99], counts[999]);
}

TEST(Zipf, TheoreticalHeadMass)
{
    // With theta = 1.0 over n = 1000, the top item's probability is
    // 1/H_1000 ~= 0.1336.
    Rng rng(23);
    ZipfGenerator zipf(1000, 1.0);
    const int n = 300000;
    int top = 0;
    for (int i = 0; i < n; ++i)
        top += (zipf(rng) == 0);
    double h1000 = 0;
    for (int k = 1; k <= 1000; ++k)
        h1000 += 1.0 / k;
    EXPECT_NEAR(static_cast<double>(top) / n, 1.0 / h1000, 0.01);
}

TEST(Summary, Moments)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SampleStat, Quantiles)
{
    SampleStat s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
    EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
    EXPECT_NEAR(s.quantile(0.9), 90.1, 1e-9);
}

TEST(SampleStat, InterleavedAddAndQuantile)
{
    SampleStat s;
    s.add(3.0);
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
    s.add(5.0); // re-sort required after new sample
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
}

TEST(Histogram, Buckets)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.0);
    h.add(5.5);
    h.add(9.999);
    h.add(10.0);
    h.add(42.0);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(5), 1u);
    EXPECT_EQ(h.bucket(9), 1u);
    EXPECT_DOUBLE_EQ(h.bucketLo(5), 5.0);
    EXPECT_DOUBLE_EQ(h.bucketHi(5), 6.0);
}

TEST(StatSet, PrintsOwnerPrefixedRows)
{
    StatSet set("dram0");
    set.record("reads", 42, "txns", "read requests");
    std::ostringstream os;
    set.print(os);
    EXPECT_NE(os.str().find("dram0.reads"), std::string::npos);
    EXPECT_NE(os.str().find("42"), std::string::npos);
    EXPECT_NE(os.str().find("read requests"), std::string::npos);
}

TEST(SampleStat, WriteCdfMonotone)
{
    SampleStat s;
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        s.add(rng.uniform(10.0, 50.0));
    std::ostringstream os;
    s.writeCdf(os, 50);
    std::istringstream is(os.str());
    double value, fraction;
    double prev_value = -1, prev_fraction = -1;
    int rows = 0;
    while (is >> value >> fraction) {
        EXPECT_GE(value, prev_value);
        EXPECT_GT(fraction, prev_fraction);
        EXPECT_GE(fraction, 0.0);
        EXPECT_LE(fraction, 1.0);
        prev_value = value;
        prev_fraction = fraction;
        ++rows;
    }
    EXPECT_EQ(rows, 51); // 0..points inclusive
    EXPECT_DOUBLE_EQ(prev_fraction, 1.0);
}

TEST(SampleStat, WriteCdfEmptyProducesNothing)
{
    SampleStat s;
    std::ostringstream os;
    s.writeCdf(os);
    EXPECT_TRUE(os.str().empty());
}

TEST(EventQueue, DescheduleFromWithinCallback)
{
    EventQueue eq;
    int fired = 0;
    EventQueue::EventId later = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.deschedule(later); // cancel a not-yet-fired event
    });
    later = eq.schedule(20, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ManyEventsStaySorted)
{
    EventQueue eq;
    Rng rng(9);
    Tick last_seen = 0;
    bool monotone = true;
    for (int i = 0; i < 10000; ++i) {
        Tick when = rng.below(1000000);
        eq.schedule(when, [&, when] {
            monotone = monotone && eq.now() >= last_seen &&
                       eq.now() == when;
            last_seen = eq.now();
        });
    }
    eq.run();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(eq.executed(), 10000u);
}

// ---- dead-timer retention regression (the PR 3 kernel bugfix) ----

TEST(EventQueue, DescheduleReleasesCapturedStateImmediately)
{
    EventQueue eq;
    auto payload = std::make_shared<int>(7);
    std::weak_ptr<int> weak = payload;
    auto id =
        eq.schedule(100, [p = std::move(payload)] { (void)*p; });
    ASSERT_FALSE(weak.expired());
    // The lazy pre-rewrite kernel kept the closure (and its captured
    // shared_ptr) inside the heap until tick 100 was popped.
    eq.deschedule(id);
    EXPECT_TRUE(weak.expired());
    eq.run();
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, CancelChurnKeepsHeapPhysicallyBounded)
{
    // The LlcTx ack-timer pattern: a long-dated timeout is cancelled
    // and re-armed over and over. Dead entries must stay within the
    // documented compaction bound instead of accumulating for a full
    // timeout window.
    EventQueue eq;
    EventQueue::EventId timer = EventQueue::invalidEvent;
    std::size_t worst = 0;
    for (Tick t = 0; t < 100000; ++t) {
        if (timer != EventQueue::invalidEvent)
            eq.deschedule(timer);
        timer = eq.schedule(t + 20000, [] {});
        std::size_t bound =
            2 * eq.pending() + EventQueue::kCompactMinDead;
        worst = std::max(worst, eq.heapSize());
        ASSERT_LE(eq.heapSize(), bound);
    }
    // One live timer; the physical heap must be nowhere near the
    // 20000-entry window the old kernel retained.
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_LE(worst, 2u + 2 * EventQueue::kCompactMinDead);
    EXPECT_GT(eq.compactions(), 0u);
    EXPECT_EQ(eq.cancelled(), 99999u);
}

TEST(EventQueue, CallbacksRunExactlyOnceUnderReentrantScheduling)
{
    // Standalone regression for the owned-heap rewrite (the old
    // kernel moved callbacks out of priority_queue::top() via
    // const_cast): callbacks that schedule and deschedule reentrantly
    // must each run exactly once.
    EventQueue eq;
    std::vector<int> runs(6, 0);
    EventQueue::EventId self = EventQueue::invalidEvent;
    EventQueue::EventId victim = EventQueue::invalidEvent;
    self = eq.schedule(10, [&] {
        ++runs[0];
        eq.deschedule(self);   // own id already retired: no-op
        eq.deschedule(victim); // same-tick later event: cancelled
        // Same-tick insertion from within a callback still runs, once.
        eq.schedule(10, [&] { ++runs[2]; });
        eq.scheduleIn(5, [&] { ++runs[3]; });
    });
    victim = eq.schedule(10, [&] { ++runs[1]; });
    eq.run();
    EXPECT_EQ(runs[0], 1);
    EXPECT_EQ(runs[1], 0);
    EXPECT_EQ(runs[2], 1);
    EXPECT_EQ(runs[3], 1);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, StaleIdAfterSlotReuseIsNoOp)
{
    EventQueue eq;
    int fired = 0;
    auto a = eq.schedule(10, [&] { ++fired; });
    eq.run();
    ASSERT_EQ(fired, 1);
    // The fired event's slot is recycled under a new generation; the
    // stale handle must not cancel the slot's new occupant.
    auto b = eq.schedule(20, [&] { ++fired; });
    eq.deschedule(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
    // Double-deschedule of a cancelled id is also a no-op.
    auto c = eq.schedule(30, [&] { ++fired; });
    eq.deschedule(c);
    eq.deschedule(c);
    eq.deschedule(b); // already fired
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SameTickOrderDeterministicUnderCancellation)
{
    // Two identical seeded workloads with interleaved cancellations
    // must execute the surviving events in the identical
    // (tick, priority, schedule-order) sequence.
    auto trace = [] {
        EventQueue eq;
        Rng rng(31);
        std::vector<int> order;
        std::vector<EventQueue::EventId> ids;
        for (int i = 0; i < 2000; ++i) {
            Tick when = rng.below(50); // dense: many same-tick ties
            auto prio = rng.chance(0.3) ? EventPriority::ClockEdge
                                        : EventPriority::Default;
            ids.push_back(
                eq.schedule(when, [&order, i] { order.push_back(i); },
                            prio));
        }
        for (int i = 0; i < 2000; ++i)
            if (rng.chance(0.4))
                eq.deschedule(ids[i]);
        eq.run();
        return order;
    };
    auto a = trace();
    auto b = trace();
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
}

TEST(EventQueue, AttachStatsExportsKernelCounters)
{
    EventQueue eq;
    StatSet set("sim.eq");
    eq.attachStats(set);
    auto id = eq.schedule(5, [] {});
    eq.deschedule(id);
    eq.schedule(7, [] {});
    eq.run();
    double executed = -1, cancelled = -1, highWater = -1;
    for (const auto &row : set.snapshot()) {
        if (row.name == "executed")
            executed = row.value;
        else if (row.name == "cancelled")
            cancelled = row.value;
        else if (row.name == "heapHighWater")
            highWater = row.value;
    }
    EXPECT_EQ(executed, 1.0);
    EXPECT_EQ(cancelled, 1.0);
    EXPECT_EQ(highWater, 2.0);
}

// ---- differential kernel test: EventQueue against a std::set model ----

namespace {

/**
 * Reference kernel: a std::set keyed on (when, prio, seq) with
 * EventQueue's interface and rules, and none of its machinery.
 */
class RefQueue
{
  public:
    using EventId = std::uint64_t;

    Tick now() const { return _now; }
    std::size_t pending() const { return _order.size(); }
    std::uint64_t executed() const { return _executed; }
    std::uint64_t cancelled() const { return _cancelled; }

    EventId
    schedule(Tick when, std::function<void()> cb, EventPriority prio)
    {
        Key key{when, static_cast<int>(prio), ++_seq};
        _order.insert(key);
        _pending.emplace(_seq, Pending{key, std::move(cb)});
        return _seq;
    }

    void
    deschedule(EventId id)
    {
        auto it = _pending.find(id);
        if (it == _pending.end())
            return;
        _order.erase(it->second.key);
        _pending.erase(it);
        ++_cancelled;
    }

    std::uint64_t
    run(Tick limit = maxTick)
    {
        std::uint64_t n = drain(limit, ~0ULL);
        if (limit != maxTick && _now < limit)
            _now = limit;
        return n;
    }

    std::uint64_t
    runEvents(std::uint64_t maxEvents)
    {
        return drain(maxTick, maxEvents);
    }

    Tick
    nextEventTick() const
    {
        return _order.empty() ? maxTick : std::get<0>(*_order.begin());
    }

    void warp(Tick when) { _now = when; }

  private:
    using Key = std::tuple<Tick, int, std::uint64_t>;
    struct Pending
    {
        Key key;
        std::function<void()> cb;
    };

    std::uint64_t
    drain(Tick limit, std::uint64_t maxEvents)
    {
        std::uint64_t n = 0;
        while (n < maxEvents && !_order.empty() &&
               std::get<0>(*_order.begin()) <= limit) {
            Key key = *_order.begin();
            _order.erase(_order.begin());
            auto it = _pending.find(std::get<2>(key));
            std::function<void()> cb = std::move(it->second.cb);
            _pending.erase(it);
            _now = std::get<0>(key);
            ++_executed;
            ++n;
            cb();
        }
        return n;
    }

    std::set<Key> _order;
    std::unordered_map<std::uint64_t, Pending> _pending; ///< by seq
    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _cancelled = 0;
};

/** Delay shapes the kernel sees in practice (see sim_kernel). */
enum class Shape {
    DenseChains,    ///< 1-80 ps self-rescheduling chains
    DatapathMix,    ///< memcached_etc's stage delays + client parks
    LongTimers,     ///< 20 us - 0.5 ms, past any wheel horizon
    ClockEdgeAtNow, ///< ClockEdge events at now among Default ones
    AckChurn,       ///< every event cancels and re-arms a 20 us timer
    Burst,          ///< one callback in 512 schedules 1100 events
    CancelHeavy,    ///< 0-400 ns, two of three new events cancelled
};

/**
 * A seeded random mix of schedule / deschedule / run(limit) /
 * runEvents(n) / warp / nextEventTick calls, plus callbacks that
 * schedule and cancel reentrantly. Every decision draws from one Rng,
 * so two queues that execute the same order make the same calls; the
 * log records that order and the kernel's counters after every call.
 */
template <typename Q>
class Workload
{
  public:
    static constexpr int kMaxLabels = 30000;

    Workload(Shape shape, std::uint64_t seed)
        : _shape(shape), _rng(seed), _runs(kMaxLabels, 0)
    {}

    std::vector<std::uint64_t>
    drive()
    {
        for (int i = 0; i < 48; ++i)
            add();
        for (int step = 0; step < 400; ++step) {
            switch (_rng.below(6)) {
              case 0:
                for (std::uint64_t k = 1 + _rng.below(8); k > 0; --k)
                    add();
                break;
              case 1:
                if (!_ids.empty())
                    _q.deschedule(_ids[_rng.below(_ids.size())]);
                break;
              case 2:
                note(_q.run(_q.now() + _rng.below(span())));
                break;
              case 3:
                note(_q.runEvents(_rng.below(64)));
                break;
              case 4: {
                Tick next = _q.nextEventTick();
                Tick room = next == maxTick ? span() : next - _q.now();
                _q.warp(_q.now() + _rng.below(room + 1));
                break;
              }
              default:
                note(_q.nextEventTick());
                break;
            }
            noteState();
        }
        note(_q.run());
        noteState();
        for (int r : _runs)
            note(static_cast<std::uint64_t>(r));
        return _log;
    }

  private:
    Tick
    delay()
    {
        static const std::array<Tick, 7> kStage = {
            0,
            nanoseconds(1.28),
            nanoseconds(6.4),
            nanoseconds(40),
            nanoseconds(75),
            nanoseconds(95),
            nanoseconds(115)};
        switch (_shape) {
          case Shape::DatapathMix:
            if (_rng.chance(0.125))
                return microseconds(60) + _rng.below(microseconds(410));
            return kStage[_rng.below(kStage.size())];
          case Shape::LongTimers:
            return microseconds(20) + _rng.below(microseconds(480));
          case Shape::ClockEdgeAtNow:
            return _rng.below(4);
          case Shape::CancelHeavy:
            return _rng.below(nanoseconds(400));
          default:
            return 1 + _rng.below(80);
        }
    }

    Tick
    span() const
    {
        switch (_shape) {
          case Shape::DatapathMix:
            return microseconds(100);
          case Shape::LongTimers:
            return milliseconds(1);
          case Shape::ClockEdgeAtNow:
            return 8;
          case Shape::CancelHeavy:
            return nanoseconds(200);
          default:
            return 200;
        }
    }

    void
    add()
    {
        if (_next == kMaxLabels)
            return;
        EventPriority prio = EventPriority::Default;
        Tick when = _q.now() + delay();
        if (_shape == Shape::ClockEdgeAtNow && _rng.chance(0.5)) {
            prio = EventPriority::ClockEdge;
            when = _q.now();
        }
        schedule(when, prio);
    }

    typename Q::EventId
    schedule(Tick when, EventPriority prio)
    {
        int label = _next++;
        // The closure reads its captures again after fire(): a
        // callable that moved while it ran (say, because fire() grew
        // the slot storage) would show up under ASan.
        auto id = _q.schedule(
            when,
            [this, label] {
                fire(label);
                ++_runs[label];
            },
            prio);
        _ids.push_back(id);
        return id;
    }

    void
    fire(int label)
    {
        note(static_cast<std::uint64_t>(label));
        note(_q.now());
        if (_shape == Shape::AckChurn && _next < kMaxLabels) {
            _q.deschedule(_timer);
            _timer = schedule(_q.now() + microseconds(20),
                              EventPriority::Default);
        }
        if (_shape == Shape::Burst && label % 512 == 0)
            for (int i = 0; i < 1100; ++i)
                add();
        if (_shape == Shape::CancelHeavy) {
            // Dead entries spread over many buckets, so compaction
            // empties some of them.
            for (int i = 0; i < 2; ++i) {
                add();
                _q.deschedule(_ids.back());
            }
        }
        add();
        if (_rng.chance(0.1))
            add();
        if (_rng.chance(0.05) && !_ids.empty())
            _q.deschedule(_ids[_rng.below(_ids.size())]);
    }

    void note(std::uint64_t v) { _log.push_back(v); }

    void
    noteState()
    {
        note(_q.now());
        note(_q.executed());
        note(_q.cancelled());
        note(_q.pending());
    }

    Shape _shape;
    Rng _rng;
    Q _q;
    int _next = 0;
    typename Q::EventId _timer = 0;
    std::vector<typename Q::EventId> _ids;
    std::vector<int> _runs;
    std::vector<std::uint64_t> _log;
};

void
expectMatchesReference(Shape shape)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        auto real = Workload<EventQueue>(shape, seed).drive();
        auto ref = Workload<RefQueue>(shape, seed).drive();
        auto [a, b] = std::mismatch(real.begin(), real.end(),
                                    ref.begin(), ref.end());
        EXPECT_TRUE(a == real.end() && b == ref.end())
            << "seed " << seed << ": logs diverge at entry "
            << (a - real.begin()) << " of " << real.size() << "/"
            << ref.size();
    }
}

} // namespace

TEST(EventQueueDifferential, DenseChains)
{
    expectMatchesReference(Shape::DenseChains);
}

TEST(EventQueueDifferential, DatapathMix)
{
    expectMatchesReference(Shape::DatapathMix);
}

TEST(EventQueueDifferential, LongTimers)
{
    expectMatchesReference(Shape::LongTimers);
}

TEST(EventQueueDifferential, ClockEdgeAtNow)
{
    expectMatchesReference(Shape::ClockEdgeAtNow);
}

TEST(EventQueueDifferential, AckChurn)
{
    expectMatchesReference(Shape::AckChurn);
}

TEST(EventQueueDifferential, CallbackSchedulesOver1000)
{
    expectMatchesReference(Shape::Burst);
}

TEST(EventQueueDifferential, CancelHeavy)
{
    expectMatchesReference(Shape::CancelHeavy);
}

// ---- SmallFn (the kernel's small-buffer callback type) ----

TEST(EventCallback, InlineCaptureAvoidsNullAndInvokes)
{
    int hits = 0;
    EventCallback cb([&hits] { ++hits; });
    EXPECT_TRUE(static_cast<bool>(cb));
    cb();
    cb();
    EXPECT_EQ(hits, 2);
    cb.reset();
    EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(EventCallback, MoveTransfersOwnershipAndReleasesCaptures)
{
    auto payload = std::make_shared<int>(1);
    std::weak_ptr<int> weak = payload;
    EventCallback a([p = std::move(payload)] { (void)p; });
    EventCallback b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_FALSE(weak.expired());
    b = nullptr;
    EXPECT_TRUE(weak.expired());
}

TEST(EventCallback, OversizedCaptureFallsBackToHeapAndStillWorks)
{
    // > 64 bytes of capture takes the heap path; semantics identical.
    std::array<std::uint64_t, 16> big{};
    big[0] = 3;
    big[15] = 4;
    std::uint64_t sum = 0;
    EventCallback cb([big, &sum] { sum = big[0] + big[15]; });
    EventCallback moved(std::move(cb));
    moved();
    EXPECT_EQ(sum, 7u);
}
