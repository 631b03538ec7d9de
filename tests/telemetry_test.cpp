/**
 * @file
 * Telemetry subsystem tests: the quantile sketch, StatSet attach /
 * freeze / resetAll semantics, the deterministic JSON writer, the
 * hierarchical registry's export schema, byte-identical same-seed
 * exports, and datapath failover counters reaching the registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "sim/json.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "tflow/rig.hh"

using namespace tf;
using tf::mem::Addr;
using tf::mem::TxnType;

// -------------------------------------------- QuantileSketch

TEST(QuantileSketch, QuantilesAreMonotoneAndBounded)
{
    sim::QuantileSketch q;
    for (int i = 1; i <= 10000; ++i)
        q.add(static_cast<double>(i));

    EXPECT_EQ(q.count(), 10000u);
    EXPECT_DOUBLE_EQ(q.min(), 1.0);
    EXPECT_DOUBLE_EQ(q.max(), 10000.0);
    EXPECT_NEAR(q.mean(), 5000.5, 1.0);

    double last = q.quantile(0.0);
    for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
        double v = q.quantile(p);
        EXPECT_GE(v, last) << "quantile not monotone at p=" << p;
        EXPECT_GE(v, q.min());
        EXPECT_LE(v, q.max());
        last = v;
    }
    // Log-linear buckets: ~3% relative error at worst.
    EXPECT_NEAR(q.quantile(0.5), 5000.0, 5000.0 * 0.05);
    EXPECT_NEAR(q.quantile(0.99), 9900.0, 9900.0 * 0.05);
}

TEST(QuantileSketch, HandlesZeroAndResets)
{
    sim::QuantileSketch q;
    q.add(0.0);
    q.add(0.0);
    q.add(8.0);
    EXPECT_EQ(q.count(), 3u);
    EXPECT_DOUBLE_EQ(q.min(), 0.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.3), 0.0);
    // Floor ranking: rank 2 of {0, 0, 8} is the non-zero sample.
    EXPECT_GT(q.quantile(1.0), 0.0);

    q.reset();
    EXPECT_EQ(q.count(), 0u);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 0.0);
}

TEST(QuantileSketch, ShardedMergeMatchesUnsharded)
{
    // Buckets share a fixed global layout, so a merge of N shards is
    // bucket-exact against the unsharded sketch: every quantile and
    // every counter agrees, with zero drift -- the --jobs trace
    // attribution merge relies on this.
    constexpr int kShards = 7;
    sim::QuantileSketch whole;
    sim::QuantileSketch shards[kShards];
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20000; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        // Wide dynamic range incl. zeros: exercises every bucket path.
        double v = static_cast<double>(state >> 40) / 256.0;
        if (i % 97 == 0)
            v = 0.0;
        whole.add(v);
        shards[i % kShards].add(v);
    }

    sim::QuantileSketch merged;
    for (const auto &shard : shards)
        merged.merge(shard);

    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
    EXPECT_NEAR(merged.mean(), whole.mean(),
                std::abs(whole.mean()) * 1e-12);
    for (double p : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95,
                     0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(merged.quantile(p), whole.quantile(p))
            << "quantile drift at p=" << p;

    // Merging into a non-empty sketch and merging empties both work.
    sim::QuantileSketch empty;
    merged.merge(empty);
    EXPECT_EQ(merged.count(), whole.count());
    empty.merge(whole);
    EXPECT_EQ(empty.count(), whole.count());
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), whole.quantile(0.5));
}

// ------------------------------ QuantileSketch vs. a dense layout

namespace {

/**
 * Reference for QuantileSketchDiff: the same sketch over the same
 * global layout, stored densely -- a vector indexed from bucket 0 up
 * to the highest occupied one, zero-filled below.
 */
class DenseSketch
{
  public:
    void add(double x, std::uint64_t weight = 1)
    {
        if (!std::isfinite(x))
            return;
        _count += weight;
        _sum += x * static_cast<double>(weight);
        _min = std::min(_min, x);
        _max = std::max(_max, x);
        if (x <= 0.0) {
            _zeroCount += weight;
            return;
        }
        std::size_t idx = indexOf(x);
        if (idx >= _buckets.size())
            _buckets.resize(idx + 1, 0);
        _buckets[idx] += weight;
    }

    void merge(const DenseSketch &other)
    {
        if (other._count == 0)
            return;
        if (other._buckets.size() > _buckets.size())
            _buckets.resize(other._buckets.size(), 0);
        for (std::size_t i = 0; i < other._buckets.size(); ++i)
            _buckets[i] += other._buckets[i];
        _zeroCount += other._zeroCount;
        _count += other._count;
        _sum += other._sum;
        _min = std::min(_min, other._min);
        _max = std::max(_max, other._max);
    }

    std::uint64_t count() const { return _count; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }

    double quantile(double q) const
    {
        if (_count == 0)
            return 0.0;
        auto rank = static_cast<std::uint64_t>(
            q * static_cast<double>(_count - 1));
        if (rank < _zeroCount)
            return std::min(_min, 0.0);
        std::uint64_t seen = _zeroCount;
        for (std::size_t i = 0; i < _buckets.size(); ++i) {
            seen += _buckets[i];
            if (seen > rank)
                return std::clamp(bucketValue(i), _min, _max);
        }
        return _max;
    }

    DenseSketch delta(const DenseSketch &prev) const
    {
        DenseSketch out;
        if (_count == prev._count)
            return out;
        out._count = _count - prev._count;
        out._zeroCount = _zeroCount - prev._zeroCount;
        out._sum = _sum - prev._sum;
        out._buckets = _buckets;
        for (std::size_t i = 0; i < prev._buckets.size(); ++i)
            out._buckets[i] -= prev._buckets[i];
        const double inf = std::numeric_limits<double>::infinity();
        out._min = out._zeroCount ? std::min(_min, 0.0) : inf;
        out._max = out._zeroCount ? 0.0 : -inf;
        for (std::size_t i = 0; i < out._buckets.size(); ++i) {
            if (!out._buckets[i])
                continue;
            out._min = std::min(out._min, bucketValue(i));
            out._max = std::max(out._max, bucketValue(i + 1));
        }
        out._min = std::max(out._min, _min);
        out._max = std::min(out._max, _max);
        return out;
    }

  private:
    using Q = sim::QuantileSketch;

    std::vector<std::uint64_t> _buckets;
    std::uint64_t _zeroCount = 0;
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();

    static std::size_t indexOf(double x)
    {
        int exp = 0;
        double mant = std::frexp(x, &exp);
        exp = std::clamp(exp, Q::kMinExp, Q::kMaxExp);
        auto sub = static_cast<int>((mant - 0.5) * 2.0 * Q::kSubBuckets);
        sub = std::clamp(sub, 0, Q::kSubBuckets - 1);
        return static_cast<std::size_t>(exp - Q::kMinExp) * Q::kSubBuckets +
               static_cast<std::size_t>(sub);
    }

    static double bucketValue(std::size_t index)
    {
        int exp = static_cast<int>(index / Q::kSubBuckets) + Q::kMinExp;
        auto sub = static_cast<double>(index % Q::kSubBuckets);
        return std::ldexp(0.5 + sub / (2.0 * Q::kSubBuckets), exp);
    }
};

/** A sketch and its dense reference, fed the same stream. */
struct SketchPair
{
    sim::QuantileSketch sketch;
    DenseSketch ref;

    void add(double x, std::uint64_t weight = 1)
    {
        sketch.add(x, weight);
        ref.add(x, weight);
    }

    void merge(const SketchPair &other)
    {
        sketch.merge(other.sketch);
        ref.merge(other.ref);
    }
};

/** Every read of @p s equals the reference's, bit for bit. */
void
expectSame(const sim::QuantileSketch &s, const DenseSketch &ref)
{
    for (int i = 0; i <= 1000; ++i) {
        double q = i / 1000.0;
        ASSERT_EQ(s.quantile(q), ref.quantile(q)) << "q = " << q;
    }
    EXPECT_EQ(s.count(), ref.count());
    EXPECT_EQ(s.mean(), ref.mean());
    EXPECT_EQ(s.min(), ref.min());
    EXPECT_EQ(s.max(), ref.max());
}

void
expectSame(const SketchPair &p)
{
    expectSame(p.sketch, p.ref);
}

/** @p n values spread log-uniformly over [lo, hi]. */
void
addLogUniform(SketchPair &p, sim::Rng &rng, int n, double lo, double hi)
{
    for (int i = 0; i < n; ++i)
        p.add(std::exp(rng.uniform(std::log(lo), std::log(hi))));
}

} // namespace

TEST(QuantileSketchDiff, AscendingStream)
{
    SketchPair p;
    for (int i = 1; i <= 20000; ++i)
        p.add(0.37 * i);
    expectSame(p);
}

TEST(QuantileSketchDiff, DescendingStreamGrowsTheFront)
{
    // Every add lands below the stored range.
    SketchPair p;
    for (double x = 1e7; x > 1e-2; x *= 0.97)
        p.add(x);
    expectSame(p);
}

TEST(QuantileSketchDiff, RandomOverTwelveDecades)
{
    sim::Rng rng(21);
    SketchPair p;
    addLogUniform(p, rng, 50000, 1e-3, 1e9);
    expectSame(p);
}

TEST(QuantileSketchDiff, SingleValue)
{
    SketchPair p;
    p.add(950.0);
    expectSame(p);
}

TEST(QuantileSketchDiff, ZerosAndNegativesOnly)
{
    sim::Rng rng(22);
    SketchPair p;
    for (int i = 0; i < 5000; ++i)
        p.add(rng.chance(0.3) ? 0.0 : -rng.uniform(0.0, 1e6));
    expectSame(p);
}

TEST(QuantileSketchDiff, ZeroMixedWithPositive)
{
    sim::Rng rng(23);
    SketchPair p;
    for (int i = 0; i < 20000; ++i)
        p.add(rng.chance(0.2) ? 0.0 : rng.uniform(500.0, 3000.0));
    expectSame(p);
}

TEST(QuantileSketchDiff, NonFiniteValuesIgnored)
{
    const double inf = std::numeric_limits<double>::infinity();
    SketchPair p;
    p.add(std::nan(""));
    p.add(inf);
    p.add(-inf);
    EXPECT_EQ(p.sketch.count(), 0u);
    expectSame(p);
    sim::Rng rng(24);
    for (int i = 0; i < 3000; ++i) {
        p.add(rng.uniform(1.0, 1e4));
        if (i % 7 == 0)
            p.add(i % 2 ? inf : std::nan(""));
    }
    expectSame(p);
}

TEST(QuantileSketchDiff, WeightsAboveOne)
{
    sim::Rng rng(25);
    SketchPair p;
    for (int i = 0; i < 5000; ++i)
        p.add(rng.uniform(10.0, 1e5), 1 + rng.below(1000));
    p.add(0.0, 123);
    expectSame(p);
}

TEST(QuantileSketchDiff, ValuesPastBothExponentClamps)
{
    // Below 2^-65 and from 2^64 on, values share the end octaves.
    sim::Rng rng(26);
    SketchPair p;
    for (int i = 0; i < 2000; ++i) {
        p.add(std::ldexp(rng.uniform(0.5, 1.0), -70));
        p.add(std::ldexp(rng.uniform(0.5, 1.0), 70));
        p.add(rng.uniform(1.0, 2.0));
    }
    expectSame(p);
}

TEST(QuantileSketchDiff, MergeOfEveryRangeShapeBothWays)
{
    sim::Rng rng(27);
    auto stream = [&rng](double lo, double hi) {
        SketchPair p;
        addLogUniform(p, rng, 3000, lo, hi);
        return p;
    };
    SketchPair zeros;
    zeros.add(0.0, 5);
    zeros.add(-3.0);
    const SketchPair base = stream(1e2, 1e4);
    const std::map<std::string, SketchPair> others = {
        {"disjoint above", stream(1e6, 1e8)},
        {"disjoint below", stream(1e-2, 1.0)},
        {"overlapping", stream(1e3, 1e6)},
        {"nested", stream(5e2, 2e3)},
        {"enclosing", stream(1.0, 1e7)},
        {"empty", SketchPair{}},
        {"zero-only", zeros},
    };
    for (const auto &[name, other] : others) {
        SCOPED_TRACE(name);
        SketchPair into = base;
        into.merge(other);
        expectSame(into);
        SketchPair from = other;
        from.merge(base);
        expectSame(from);
    }
}

TEST(QuantileSketchDiff, DeltaAgainstANarrowerPrefix)
{
    sim::Rng rng(28);
    SketchPair live;
    addLogUniform(live, rng, 4000, 1e3, 1e4);
    const SketchPair prefix = live;
    // The window widens the range on both sides and adds zeros.
    addLogUniform(live, rng, 4000, 1.0, 1e7);
    live.add(0.0, 9);
    expectSame(live.sketch.delta(prefix.sketch), live.ref.delta(prefix.ref));

    // A window that only re-fills buckets the prefix already held.
    const SketchPair wide = live;
    addLogUniform(live, rng, 500, 2e3, 3e3);
    expectSame(live.sketch.delta(wide.sketch), live.ref.delta(wide.ref));

    // Nothing new: the empty delta.
    sim::QuantileSketch none = live.sketch.delta(live.sketch);
    EXPECT_EQ(none.count(), 0u);
    expectSame(none, live.ref.delta(live.ref));
}

TEST(QuantileSketchDiff, ResetStartsOver)
{
    sim::Rng rng(29);
    SketchPair p;
    addLogUniform(p, rng, 3000, 1.0, 1e6);
    p.sketch.reset();
    expectSame(p.sketch, DenseSketch{});

    DenseSketch ref;
    for (int i = 0; i < 3000; ++i) {
        double x = rng.uniform(1e-2, 10.0);
        p.sketch.add(x);
        ref.add(x);
    }
    expectSame(p.sketch, ref);
}

TEST(QuantileSketchDiff, FrozenCopyMatches)
{
    sim::Rng rng(30);
    SketchPair p;
    sim::StatSet set("unit");
    set.attach("lat", p.sketch, "ns");
    addLogUniform(p, rng, 5000, 800.0, 5000.0);
    set.freeze();
    for (int i = 0; i < 1000; ++i) // the live sketch moves on
        p.sketch.add(1e9);

    std::map<std::string, double> rows;
    for (const sim::StatEntry &e : set.snapshot())
        rows[e.name] = e.value;
    EXPECT_EQ(rows.at("lat.count"), static_cast<double>(p.ref.count()));
    EXPECT_EQ(rows.at("lat.mean"), p.ref.mean());
    EXPECT_EQ(rows.at("lat.p50"), p.ref.quantile(0.50));
    EXPECT_EQ(rows.at("lat.p95"), p.ref.quantile(0.95));
    EXPECT_EQ(rows.at("lat.p99"), p.ref.quantile(0.99));
}

TEST(QuantileSketchDeathTest, DeltaRejectsAPrefixBucketOutsideTheRange)
{
    // Not a prefix: prev holds buckets above and below every bucket
    // of the later sketch, where its own counts are zero.
    sim::QuantileSketch prev;
    prev.add(1e6);
    sim::QuantileSketch above;
    above.add(1.0);
    above.add(2.0);
    EXPECT_DEATH(above.delta(prev), "bucket went backwards");
    prev.reset();
    prev.add(1e-3);
    EXPECT_DEATH(above.delta(prev), "bucket went backwards");
}

// -------------------------------------------- JsonWriter

TEST(JsonWriter, DeterministicFormatting)
{
    std::ostringstream os;
    sim::JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("int", std::uint64_t{42});
    w.field("real", 2.5);
    w.field("text", "a\"b\nc");
    w.name("arr");
    w.beginArray();
    w.value(1);
    w.value(true);
    w.valueNull();
    w.endArray();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\"int\":42,\"real\":2.5,\"text\":\"a\\\"b\\nc\","
              "\"arr\":[1,true,null]}");
}

// -------------------------------------------- StatSet semantics

TEST(StatSet, ResetAllClearsAttachedStatsAndRecordedRows)
{
    sim::Counter c;
    sim::SampleStat s;
    sim::StatSet set("unit");
    set.attach("count", c, "txns");
    set.attach("lat", s, "ns");

    c.inc(5);
    s.add(10.0);
    set.record("adhoc", 1.0);

    set.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(s.count(), 0u);
    EXPECT_TRUE(set.entries().empty());

    // Post-reset activity is visible again: no staleness.
    c.inc(2);
    std::ostringstream os;
    sim::JsonWriter w(os, false);
    set.writeJson(w);
    EXPECT_NE(os.str().find("\"count\":2"), std::string::npos);
}

TEST(StatSet, FreezeSurvivesOwnerDeath)
{
    sim::StatSet set("unit");
    {
        auto c = std::make_unique<sim::Counter>();
        c->inc(7);
        set.attach("count", *c, "txns");
        set.freeze();
    } // counter destroyed; the frozen copy must carry the value

    std::ostringstream os;
    sim::JsonWriter w(os, false);
    set.writeJson(w);
    EXPECT_NE(os.str().find("\"count\":7"), std::string::npos);
}

TEST(StatsRegistry, PathsSortedAndSubtreeReset)
{
    sim::StatsRegistry reg;
    sim::Counter a, b;
    reg.at("z.leaf").attach("n", a);
    reg.at("a.leaf").attach("n", b);
    a.inc(3);
    b.inc(4);

    auto paths = reg.paths();
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_EQ(paths[0], "a.leaf");
    EXPECT_EQ(paths[1], "z.leaf");

    // Prefix-scoped reset leaves the other subtree untouched.
    reg.resetAll("a");
    EXPECT_EQ(b.value(), 0u);
    EXPECT_EQ(a.value(), 3u);
}

// -------------------------------------------- datapath exports

namespace {

/** Two-channel bonded datapath with its stats registered. */
struct TelemetryRig
{
    sim::EventQueue eq;
    sim::Rng rng;
    flow::Rig bare;
    flow::Datapath *dp = &bare.dp;
    sim::StatsRegistry reg;

    static flow::FlowParams
    fastFailover()
    {
        flow::FlowParams params;
        params.maxReplayRounds = 4;
        params.ackTimeout = sim::microseconds(2);
        return params;
    }

    explicit TelemetryRig(std::uint64_t seed)
        : rng(seed), bare("dp", eq, fastFailover(), rng)
    {
        dp->attach(0, flow::Rig::kDonorBase, 1, {0, 1});
        dp->registerStats(reg, "tflow");
    }

    void
    drive(int total, bool expectSuccess = true)
    {
        int issued = 0;
        int done = 0;
        std::function<void()> pump = [&]() {
            while (issued < total && issued - done < 64) {
                Addr addr = ocapi::kM1WindowBase +
                            static_cast<Addr>(issued % 1024) * 128;
                auto txn = mem::makeTxn(TxnType::ReadReq, addr);
                txn->onComplete = [&, expectSuccess](mem::MemTxn &t) {
                    if (expectSuccess) {
                        EXPECT_FALSE(t.error);
                    }
                    ++done;
                    pump();
                };
                ++issued;
                dp->issue(std::move(txn));
            }
        };
        pump();
        eq.run();
    }
};

} // namespace

TEST(TelemetryExport, RegistryCarriesTheDatapathSchema)
{
    TelemetryRig rig(42);
    rig.drive(500);
    std::string json = rig.reg.toJson();

    // One entry per component path, counters under each.
    for (const char *needle :
         {"\"tflow\"", "\"tflow.compute\"", "\"tflow.compute.rmmu\"",
          "\"tflow.compute.routing\"", "\"tflow.llc.ch0.txA\"",
          "\"tflow.llc.ch1.rxB\"", "\"tflow.llc.ch0.wireAB\"",
          "\"tflow.stealing\"", "\"tflow.c1\"", "\"hits\"",
          "\"creditStalls\"", "\"framesSent\"", "\"routed.ch0\"",
          "\"serviceNs\"", "\"linkDownEvents\""}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;
    }
    // 500 error-free reads: issued == completed == 500.
    EXPECT_NE(json.find("\"issued\": 500"), std::string::npos);
    EXPECT_NE(json.find("\"completed\": 500"), std::string::npos);
}

TEST(TelemetryExport, SameSeedRunsExportIdenticalJson)
{
    auto runOnce = []() {
        TelemetryRig rig(1234);
        rig.drive(2000);
        return rig.reg.toJson();
    };
    std::string first = runOnce();
    std::string second = runOnce();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(TelemetryExport, FailoverCountersReachTheRegistry)
{
    TelemetryRig rig(7);
    rig.drive(500);
    rig.dp->failChannel(0);
    // Salvaged requests may complete as duplicates-after-error;
    // tolerate errors while the failure is being detected.
    rig.drive(500, /*expectSuccess=*/false);
    ASSERT_TRUE(rig.dp->channelDown(0));

    std::string json = rig.reg.toJson();
    EXPECT_NE(json.find("\"linkDownEvents\": 1"), std::string::npos);
    // The dead channel's Tx recorded its link-down escalation and
    // the Wire dropped frames while it was down.
    const sim::StatSet *tx = rig.reg.find("tflow.llc.ch0.txA");
    ASSERT_NE(tx, nullptr);
    std::ostringstream os;
    sim::JsonWriter w(os, false);
    tx->writeJson(w);
    EXPECT_NE(os.str().find("\"linkDowns\":1"), std::string::npos);

    // Survivor keeps routing: per-channel routed counter moved.
    EXPECT_GT(rig.dp->routing().routedOnChannel(1), 0u);
}
