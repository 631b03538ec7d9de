/**
 * @file
 * Unit tests for the discrete-event kernel, RNG and statistics, and
 * the heap-footprint checks (which include the cache's tag array).
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/cache.hh"
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

// ------------------------------ SampleStat against a sorted vector

namespace {

/**
 * The reference: every sample kept in a vector, sorted on read, with
 * the type-7 quantile read straight from it. Like SampleStat, it
 * counts a -0.0 sample as +0.0: the sort leaves equal zeros in an
 * unspecified order, so the sign printed at a zero rank would be
 * arbitrary.
 */
class SortedSamples
{
  public:
    void add(double x)
    {
        if (x == 0.0)
            x = 0.0;
        _v.push_back(x);
        _sorted = false;
        _summary.add(x);
    }

    const std::vector<double> &sorted()
    {
        if (!_sorted) {
            std::sort(_v.begin(), _v.end());
            _sorted = true;
        }
        return _v;
    }

    double quantile(double q)
    {
        const std::vector<double> &v = sorted();
        if (v.empty())
            return 0.0;
        double pos = q * static_cast<double>(v.size() - 1);
        auto lo = static_cast<std::size_t>(pos);
        std::size_t hi = std::min(lo + 1, v.size() - 1);
        double frac = pos - static_cast<double>(lo);
        return v[lo] * (1.0 - frac) + v[hi] * frac;
    }

    std::string cdf(std::size_t points)
    {
        std::ostringstream os;
        for (std::size_t i = 0; !sorted().empty() && i <= points; ++i) {
            double q = static_cast<double>(i) / static_cast<double>(points);
            os << quantile(q) << ' ' << q << '\n';
        }
        return os.str();
    }

    const Summary &summary() const { return _summary; }

  private:
    std::vector<double> _v;
    bool _sorted = true;
    Summary _summary;
};

std::string
cdfOf(const SampleStat &s, std::size_t points)
{
    std::ostringstream os;
    s.writeCdf(os, points);
    return os.str();
}

/** Every read of @p s equals the reference's, bit for bit. */
void
expectSame(const SampleStat &s, SortedSamples &ref)
{
    for (int i = 0; i <= 1000; ++i) {
        double q = i / 1000.0;
        ASSERT_EQ(s.quantile(q), ref.quantile(q)) << "q = " << q;
    }
    EXPECT_EQ(cdfOf(s, 100), ref.cdf(100));
    EXPECT_EQ(cdfOf(s, 200), ref.cdf(200));
    EXPECT_EQ(s.count(), ref.summary().count());
    EXPECT_EQ(s.mean(), ref.summary().mean());
    EXPECT_EQ(s.min(), ref.summary().min());
    EXPECT_EQ(s.max(), ref.summary().max());
    EXPECT_EQ(s.stddev(), ref.summary().stddev());
    EXPECT_EQ(s.samples(), ref.sorted());
}

void
addBoth(SampleStat &s, SortedSamples &ref, double x)
{
    s.add(x);
    ref.add(x);
}

} // namespace

TEST(SampleStatDiff, HeavyDuplicates)
{
    Rng rng(11);
    std::vector<double> values(100);
    for (double &v : values)
        v = rng.uniform(100.0, 20000.0);
    SampleStat s;
    SortedSamples ref;
    for (int i = 0; i < 200000; ++i)
        addBoth(s, ref, values[rng.below(values.size())]);
    expectSame(s, ref);
}

TEST(SampleStatDiff, AllDistinct)
{
    // 50k distinct values in a seeded shuffle: the runs, and with
    // them the flush threshold, grow past kFlushFloor.
    std::vector<double> values(50000);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = 0.75 * static_cast<double>(i) + 0.1;
    Rng rng(12);
    for (std::size_t i = values.size() - 1; i > 0; --i)
        std::swap(values[i], values[rng.below(i + 1)]);
    SampleStat s;
    SortedSamples ref;
    for (double v : values)
        addBoth(s, ref, v);
    expectSame(s, ref);
}

TEST(SampleStatDiff, SingleSample)
{
    SampleStat s;
    SortedSamples ref;
    addBoth(s, ref, 42.5);
    expectSame(s, ref);
}

TEST(SampleStatDiff, NegativeAndZeroValues)
{
    Rng rng(13);
    SampleStat s;
    SortedSamples ref;
    for (int i = 0; i < 30000; ++i) {
        double x = 0.0; // a quarter of the samples are zero
        std::uint64_t kind = rng.below(4);
        if (kind == 0)
            x = rng.uniform(-1e3, 0.0);
        else if (kind == 1)
            x = -static_cast<double>(rng.below(8));
        else if (kind == 2)
            x = rng.uniform(0.0, 1e-3);
        addBoth(s, ref, x);
    }
    expectSame(s, ref);
}

TEST(SampleStatDiff, SignedZerosPrintAlikeWheneverRead)
{
    // -0.0 == 0.0, so one run holds both zeros. The stream opens with
    // -0.0; its CDF text must not depend on when the buffer merged.
    Rng rng(19);
    std::vector<double> stream{-0.0};
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t kind = rng.below(3);
        stream.push_back(kind == 0   ? -0.0
                         : kind == 1 ? 0.0
                                     : rng.uniform(-1.0, 1.0));
    }
    std::string first;
    for (std::size_t readEvery : {1, 7, 300, 5000, 0}) {
        SampleStat s;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            s.add(stream[i]);
            if (readEvery != 0 && (i + 1) % readEvery == 0)
                (void)s.quantile(0.5);
        }
        std::string cdf = cdfOf(s, 200);
        SCOPED_TRACE(readEvery);
        EXPECT_EQ(cdf.find("-0 "), std::string::npos) << cdf;
        if (first.empty())
            first = cdf;
        EXPECT_EQ(cdf, first);
    }
}

TEST(SampleStatDiff, InterleavedReadsCrossFlushBoundaries)
{
    // Reads merge a part-filled buffer; the chunk sizes land adds on
    // both sides of the buffer's own flush point.
    const std::size_t f = SampleStat::kFlushFloor;
    Rng rng(14);
    SampleStat s;
    SortedSamples ref;
    double fresh = 0.5;
    const std::size_t chunks[] = {1, 2, f - 3, 1, f, f + 1, 17, 3 * f, 5};
    for (std::size_t chunk : chunks) {
        for (std::size_t i = 0; i < chunk; ++i) {
            // Half repeat earlier values, half open new runs.
            double x = fresh += 1.0;
            if (rng.chance(0.5))
                x = static_cast<double>(rng.below(500));
            addBoth(s, ref, x);
        }
        for (double q : {0.0, 0.25, 0.5, 0.99, 1.0})
            ASSERT_EQ(s.quantile(q), ref.quantile(q))
                << "chunk " << chunk << ", q = " << q;
        ASSERT_EQ(s.samples(), ref.sorted()) << "chunk " << chunk;
    }
    expectSame(s, ref);
}

namespace {

/** Reads @p s, which merges its buffer into the runs. */
void
merge(const SampleStat &s)
{
    (void)s.quantile(0.5);
}

} // namespace

TEST(SampleStatDiff, NewValuesLandAroundAndOnRuns)
{
    // Runs at 10, 20, ..., 1000; each later merge adds values below
    // every run, between runs, above every run, and on existing runs.
    SampleStat s;
    SortedSamples ref;
    for (int i = 1; i <= 100; ++i)
        addBoth(s, ref, 10.0 * i);
    merge(s);
    expectSame(s, ref);

    const std::vector<std::vector<double>> batches{
        {-5.0, 0.0, 1.0, 9.5},                  // before every run
        {15.0, 15.0, 505.0, 995.0, 11.0},       // between runs
        {1000.5, 2000.0, 2000.0, 1e9},          // after every run
        {10.0, 500.0, 1000.0, 1000.0, 10.0},    // on existing runs
        {-7.0, 10.0, 12.5, 500.0, 777.0, 3e9},  // all four at once
    };
    for (const auto &batch : batches) {
        for (double x : batch)
            addBoth(s, ref, x);
        merge(s);
        expectSame(s, ref);
    }
}

TEST(SampleStatDiff, MergesGrowByZeroOneAndSeveralChunks)
{
    const std::size_t c = SampleStat::kChunkRuns;
    SampleStat s;
    SortedSamples ref;
    for (std::size_t i = 0; i < 3 * c; ++i)
        addBoth(s, ref, 2.0 * static_cast<double>(i));
    merge(s);
    expectSame(s, ref);

    // Zero new runs: every buffered value is already a run.
    for (std::size_t i = 0; i < 3 * c; i += 5)
        addBoth(s, ref, 2.0 * static_cast<double>(i));
    merge(s);
    expectSame(s, ref);

    // One chunk: c values, each between two runs.
    for (std::size_t i = 0; i < c; ++i)
        addBoth(s, ref, 2.0 * static_cast<double>(i) + 1.0);
    merge(s);
    expectSame(s, ref);

    // Several chunks, spread over the whole range and beyond it.
    Rng rng(21);
    for (std::size_t i = 0; i < 5 * c + 7; ++i)
        addBoth(s, ref, rng.uniform(-100.0, 400.0));
    merge(s);
    expectSame(s, ref);
}

TEST(SampleStatDiff, ReadsAtChunkBoundarySizes)
{
    // One new run per merge, in a seeded shuffle, so the store passes
    // 32, 33 and 64 runs; every size is read in full.
    const std::size_t c = SampleStat::kChunkRuns;
    std::vector<std::size_t> order(2 * c + 1);
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i + 1;
    Rng rng(23);
    for (std::size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    SampleStat s;
    SortedSamples ref;
    for (std::size_t n = 0; n < order.size(); ++n) {
        // Repeats, so each value's count differs.
        for (std::size_t k = 0; k <= order[n] % 3; ++k)
            addBoth(s, ref, 0.25 * static_cast<double>(order[n]));
        SCOPED_TRACE(n + 1);
        expectSame(s, ref);
    }
}

TEST(SampleStatDiff, CopyAndMoveKeepRunsAndBuffer)
{
    // Several chunks of runs, then samples left in the buffer.
    Rng rng(22);
    SampleStat s;
    SortedSamples ref;
    for (std::size_t i = 0; i < 7 * SampleStat::kChunkRuns; ++i)
        addBoth(s, ref, static_cast<double>(rng.below(100000)));
    merge(s);
    for (int i = 0; i < 100; ++i)
        addBoth(s, ref, static_cast<double>(rng.below(100000)));

    SampleStat copy(s);
    SampleStat assigned;
    assigned.add(1.0);
    assigned = s;
    SampleStat moved(std::move(copy));
    SampleStat moveAssigned;
    moveAssigned = std::move(assigned);
    static_assert(std::is_nothrow_move_constructible_v<SampleStat>);
    static_assert(std::is_nothrow_move_assignable_v<SampleStat>);

    s.add(-1.0); // the source moves on; the copies do not see it
    expectSame(moved, ref);
    expectSame(moveAssigned, ref);
    // The copies merge on their own: a further add to one copy shows
    // in that copy alone.
    moved.add(5e5);
    SortedSamples more = ref;
    more.add(5e5);
    expectSame(moved, more);
    expectSame(moveAssigned, ref);
}

TEST(SampleStatDiff, ResetStartsOver)
{
    Rng rng(15);
    SampleStat s;
    for (int i = 0; i < 10000; ++i)
        s.add(static_cast<double>(rng.below(300)));
    EXPECT_GT(s.quantile(0.5), 0.0);
    for (int i = 0; i < 100; ++i) // leave some samples unmerged
        s.add(1e6);
    s.reset();
    SortedSamples empty;
    expectSame(s, empty);

    SortedSamples ref;
    for (int i = 0; i < 9000; ++i)
        addBoth(s, ref, rng.uniform(-5.0, 5.0));
    expectSame(s, ref);
}

TEST(SampleStatDiff, FrozenCopyMatches)
{
    Rng rng(16);
    SampleStat s;
    SortedSamples ref;
    StatSet set("unit");
    set.attach("lat", s, "ns");
    // 10,000 adds leave samples in the buffer, so the copy holds both.
    for (int i = 0; i < 10000; ++i)
        addBoth(s, ref, static_cast<double>(rng.below(700)) * 0.5);
    set.freeze();
    for (int i = 0; i < 5000; ++i) // the live stat moves on
        s.add(1e9);

    std::map<std::string, double> rows;
    for (const StatEntry &e : set.snapshot())
        rows[e.name] = e.value;
    EXPECT_EQ(rows.at("lat.count"),
              static_cast<double>(ref.summary().count()));
    EXPECT_EQ(rows.at("lat.mean"), ref.summary().mean());
    EXPECT_EQ(rows.at("lat.p50"), ref.quantile(0.50));
    EXPECT_EQ(rows.at("lat.p95"), ref.quantile(0.95));
    EXPECT_EQ(rows.at("lat.p99"), ref.quantile(0.99));
}

namespace {

/** Bytes the allocator has handed out: arena chunks plus mmapped ones. */
std::size_t
heapInUse()
{
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
    struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
#else
    return 0;
#endif
}

/** Keeps the calibration block observable, so it is really made. */
void *volatile gHeapProbe = nullptr;

/**
 * Whether heapInUse() sees a 1 MiB block come and go; @p seen gets
 * what it saw. A sanitizer's allocator bypasses the one mallinfo2
 * reports on.
 */
bool
heapIsAccounted(std::size_t &seen)
{
    constexpr std::size_t kMiB = 1 << 20;
    std::size_t base = heapInUse();
    gHeapProbe = std::malloc(kMiB);
    seen = heapInUse() - base;
    std::free(gHeapProbe);
    return seen >= kMiB && seen <= kMiB + 64 * 1024;
}

} // namespace

TEST(SampleStatFootprint, GrowsWithDistinctValuesNotSamples)
{
    std::size_t seen = 0;
    if (!heapIsAccounted(seen))
        GTEST_SKIP() << "no heap accounting: saw " << seen << " B";

    // A million samples were 8 MiB as raw doubles; a thousand
    // distinct values need a few KiB of runs and the add buffer.
    SampleStat s;
    Rng rng(17);
    std::size_t before = heapInUse();
    for (int i = 0; i < 1000000; ++i)
        s.add(static_cast<double>(rng.below(1000)));
    EXPECT_LT(heapInUse(), before + 256 * 1024);
    EXPECT_EQ(s.quantile(1.0), 999.0);
    EXPECT_LT(heapInUse(), before + 256 * 1024);
}

TEST(SampleStatFootprint, AddBufferSizedByRuns)
{
    std::size_t seen = 0;
    if (!heapIsAccounted(seen))
        GTEST_SKIP() << "no heap accounting: saw " << seen << " B";

    // 30 distinct values merge every kFlushFloor samples: a 256-double
    // buffer (2 KiB) per stat. A floor of 4,096 made it 32 KiB, 1.5 MiB
    // over 48 stats.
    std::size_t before = heapInUse();
    std::vector<SampleStat> stats(48);
    Rng rng(20);
    for (SampleStat &s : stats)
        for (int i = 0; i < 20000; ++i)
            s.add(static_cast<double>(rng.below(30)));
    EXPECT_LT(heapInUse(), before + 256 * 1024);
    EXPECT_EQ(stats.back().quantile(1.0), 29.0);
}

TEST(StatSetFootprint, FrozenCopiesHeldOutOfLine)
{
    std::size_t seen = 0;
    if (!heapIsAccounted(seen))
        GTEST_SKIP() << "no heap accounting: saw " << seen << " B";

    // An attachment holds a pointer to its frozen copy, not the copy's
    // 104 B slot, until freeze() fills it.
    std::vector<Counter> counters(1000);
    std::size_t before = heapInUse();
    StatSet set("unit");
    for (std::size_t i = 0; i < counters.size(); ++i)
        set.attach("c" + std::to_string(i), counters[i]);
    EXPECT_LT(heapInUse(), before + 160 * 1024);
    EXPECT_EQ(set.attachedCount(), 1000u);

    counters[7].inc(3);
    set.freeze();
    counters[7].inc(5); // the frozen copy keeps the value at freeze()
    std::map<std::string, double> rows;
    for (const StatEntry &e : set.snapshot())
        rows[e.name] = e.value;
    EXPECT_EQ(rows.at("c7"), 3.0);
}

TEST(QuantileSketchFootprint, GrowsWithOccupiedRangeNotLayout)
{
    std::size_t seen = 0;
    if (!heapIsAccounted(seen))
        GTEST_SKIP() << "no heap accounting: saw " << seen << " B";

    // 900-1,100 ns occupies 11 buckets of the global layout. Stored
    // from bucket 0, the same stream took 2,403 buckets (18.8 KiB).
    QuantileSketch q;
    Rng rng(18);
    std::size_t before = heapInUse();
    for (int i = 0; i < 1000000; ++i)
        q.add(rng.uniform(900.0, 1100.0));
    EXPECT_LT(heapInUse(), before + 1024);
    EXPECT_EQ(q.count(), 1000000u);
}

TEST(CacheFootprint, EightByteTagWordPerLine)
{
    std::size_t seen = 0;
    if (!heapIsAccounted(seen))
        GTEST_SKIP() << "no heap accounting: saw " << seen << " B";

    // 8 MiB of 128 B lines, 8-way: 65,536 tag words (512 KiB) and
    // 8,192 per-set counts (32 KiB). A 24 B record per line was
    // 1.5 MiB.
    tf::mem::Cache cache({8 * 1024 * 1024, 8, 128});
    std::size_t before = heapInUse();
    for (std::uint32_t set = 0; set < cache.sets(); ++set)
        cache.access(tf::mem::Addr{set} * 128, true);
    EXPECT_LE(heapInUse(), before + 600 * 1024);
    EXPECT_EQ(cache.misses(), cache.sets());
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
