/**
 * @file
 * Telemetry subsystem tests: the quantile sketch, StatSet attach /
 * freeze / resetAll semantics, the deterministic JSON writer, the
 * hierarchical registry's export schema, byte-identical same-seed
 * exports, and datapath failover counters reaching the registry.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>

#include "sim/json.hh"
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
