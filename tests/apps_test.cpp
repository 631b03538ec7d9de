/**
 * @file
 * Tests for the workload models: STREAM traffic accounting,
 * Memcached LRU/Zipf behaviour, VoltDB partitioning/metrics, and
 * Elasticsearch fan-out -- including the cross-configuration
 * relationships the paper's evaluation rests on.
 */

#include <gtest/gtest.h>

#include "apps/elastic.hh"
#include "apps/memcached.hh"
#include "apps/stream.hh"
#include "apps/voltdb.hh"

using namespace tf;
using namespace tf::apps;

namespace {

sys::TestbedParams
smallBed(sys::Setup setup)
{
    sys::TestbedParams tp;
    tp.setup = setup;
    tp.donatedBytes = 128ULL * 1024 * 1024;
    tp.node.cache = mem::CacheParams{2 * 1024 * 1024, 8, 128};
    return tp;
}

} // namespace

TEST(StreamT, BytesPerElementMatchMcCalpin)
{
    EXPECT_EQ(StreamBenchmark::bytesPerElement(StreamKernel::Copy),
              16u);
    EXPECT_EQ(StreamBenchmark::bytesPerElement(StreamKernel::Scale),
              16u);
    EXPECT_EQ(StreamBenchmark::bytesPerElement(StreamKernel::Add),
              24u);
    EXPECT_EQ(StreamBenchmark::bytesPerElement(StreamKernel::Triad),
              24u);
}

TEST(StreamT, LocalFasterThanDisaggregated)
{
    StreamParams sp;
    sp.elements = 128 * 1024; // 1 MiB arrays, fast test
    sp.threads = 4;
    sp.iterations = 1;

    double local_gibs, remote_gibs;
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq, smallBed(sys::Setup::Local));
        local_gibs =
            StreamBenchmark(tb, sp).run(StreamKernel::Copy).bestGiBs;
    }
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq,
                        smallBed(sys::Setup::SingleDisaggregated));
        remote_gibs =
            StreamBenchmark(tb, sp).run(StreamKernel::Copy).bestGiBs;
    }
    EXPECT_GT(local_gibs, 2.0 * remote_gibs);
    EXPECT_GT(remote_gibs, 1.0); // still GiB/s-class, not MB/s
}

TEST(StreamT, BondingBeatsSingleUnderLoad)
{
    // Store-and-forward framing keeps the wire the bottleneck, which
    // is the regime where the paper's bonding gain shows (VI-C). With
    // cut-through the single channel already saturates the C1
    // pipeline on this duplex workload, so the gap closes — covered
    // by CutThroughLiftsSingleChannel below.
    StreamParams sp;
    sp.elements = 256 * 1024;
    sp.threads = 8;
    sp.iterations = 1;
    auto bed = [](sys::Setup setup) {
        sys::TestbedParams tp = smallBed(setup);
        tp.flow.cutThrough = false;
        tp.flow.frameFlits = 16;
        return tp;
    };
    double single, bonded;
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq, bed(sys::Setup::SingleDisaggregated));
        single =
            StreamBenchmark(tb, sp).run(StreamKernel::Copy).bestGiBs;
    }
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq, bed(sys::Setup::BondingDisaggregated));
        bonded =
            StreamBenchmark(tb, sp).run(StreamKernel::Copy).bestGiBs;
    }
    EXPECT_GT(bonded, single * 1.1);
    // The C1 128B ceiling keeps bonding well below 2x (Section VI-C).
    EXPECT_LT(bonded, single * 1.9);
}

TEST(StreamT, CutThroughLiftsSingleChannel)
{
    // Cut-through framing (the default) on a single channel must
    // clearly beat the store-and-forward single channel: the frame
    // padding and in-order release overhead is what it removes.
    StreamParams sp;
    sp.elements = 256 * 1024;
    sp.threads = 8;
    sp.iterations = 1;
    auto measure = [&](bool ct, std::uint32_t flits) {
        sim::EventQueue eq;
        sys::TestbedParams tp =
            smallBed(sys::Setup::SingleDisaggregated);
        tp.flow.cutThrough = ct;
        tp.flow.frameFlits = flits;
        sys::Testbed tb(eq, tp);
        return StreamBenchmark(tb, sp).run(StreamKernel::Copy).bestGiBs;
    };
    double storeForward = measure(false, 16);
    double cutThrough = measure(true, 64);
    // This duplex workload is close to C1-bound, so the lift is the
    // padding + in-order-release overhead only (~15-20%), not the
    // full wire-bound gap.
    EXPECT_GT(cutThrough, storeForward * 1.1);
}

TEST(MemcachedT, HitRatioTracksCacheToKeySpaceRatio)
{
    sim::EventQueue eq;
    sys::Testbed tb(eq, smallBed(sys::Setup::Local));
    MemcachedParams mp;
    mp.cacheItems = 20000;
    mp.keySpaceItems = 30000; // 10:15 GiB scaled
    mp.bufferRegionBytes = 16ULL * 1024 * 1024;
    mp.clientThreads = 16;
    mp.requestsPerThread = 400;
    MemcachedBenchmark bench(tb, mp);
    auto r = bench.run();
    // Paper reports 80-82% under the same ratio and Zipf(1.0).
    EXPECT_GT(r.hitRatio, 0.70);
    EXPECT_LT(r.hitRatio, 0.92);
    EXPECT_EQ(r.getLatencyUs.count() + r.setLatencyUs.count(),
              16u * 400u);
}

TEST(MemcachedT, GetSetRatioApproximately30To1)
{
    sim::EventQueue eq;
    sys::Testbed tb(eq, smallBed(sys::Setup::Local));
    MemcachedParams mp;
    mp.cacheItems = 5000;
    mp.keySpaceItems = 8000;
    mp.bufferRegionBytes = 16ULL * 1024 * 1024;
    mp.clientThreads = 8;
    mp.requestsPerThread = 500;
    MemcachedBenchmark bench(tb, mp);
    auto r = bench.run();
    double ratio = static_cast<double>(r.getLatencyUs.count()) /
                   static_cast<double>(r.setLatencyUs.count());
    EXPECT_GT(ratio, 20.0);
    EXPECT_LT(ratio, 45.0);
}

TEST(MemcachedT, DisaggregationAddsLatencyNotCollapse)
{
    MemcachedParams mp;
    mp.cacheItems = 20000;
    mp.keySpaceItems = 30000;
    mp.bufferRegionBytes = 16ULL * 1024 * 1024;
    mp.clientThreads = 16;
    mp.requestsPerThread = 300;

    double local_mean, remote_mean;
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq, smallBed(sys::Setup::Local));
        local_mean = MemcachedBenchmark(tb, mp)
                         .run()
                         .getLatencyUs.mean();
    }
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq,
                        smallBed(sys::Setup::SingleDisaggregated));
        remote_mean = MemcachedBenchmark(tb, mp)
                          .run()
                          .getLatencyUs.mean();
    }
    EXPECT_GT(remote_mean, local_mean);
    // Cache-friendliness keeps the penalty modest (paper: <= ~7%).
    EXPECT_LT(remote_mean, local_mean * 1.25);
}

TEST(VoltDbT, CompletesAllOps)
{
    // Every YCSB mix: E's scans and inserts, F's read-modify-writes.
    for (YcsbWorkload wl :
         {YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::C,
          YcsbWorkload::D, YcsbWorkload::E, YcsbWorkload::F}) {
        sim::EventQueue eq;
        sys::Testbed tb(eq, smallBed(sys::Setup::Local));
        VoltDbParams vp;
        vp.workload = wl;
        vp.partitions = 8;
        vp.totalRows = 32768;
        vp.totalOps = 1000;
        vp.clientThreads = 200;
        VoltDbBenchmark bench(tb, vp);
        auto r = bench.run();
        EXPECT_EQ(r.latencyUs.count(), 1000u) << ycsbName(wl);
        EXPECT_GT(r.throughputOps, 0.0) << ycsbName(wl);
        EXPECT_GT(r.ucc, 0.0) << ycsbName(wl);
        EXPECT_GT(r.packageIpc, 0.0) << ycsbName(wl);
    }
}

TEST(VoltDbT, MorePartitionsHelpMixedWorkload)
{
    VoltDbParams vp;
    vp.workload = YcsbWorkload::A;
    vp.totalRows = 32768;
    vp.totalOps = 6000;
    double tput4, tput32;
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq, smallBed(sys::Setup::Local));
        vp.partitions = 4;
        tput4 = VoltDbBenchmark(tb, vp).run().throughputOps;
    }
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq, smallBed(sys::Setup::Local));
        vp.partitions = 32;
        vp.rowsPerPartition = 0; // re-derive
        tput32 = VoltDbBenchmark(tb, vp).run().throughputOps;
    }
    EXPECT_GT(tput32, tput4 * 1.3);
}

TEST(VoltDbT, DisaggregationRaisesStallsAndUcc)
{
    VoltDbParams vp;
    vp.workload = YcsbWorkload::A;
    vp.partitions = 16;
    vp.totalRows = 32768;
    vp.totalOps = 6000;

    VoltDbResult local, remote;
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq, smallBed(sys::Setup::Local));
        local = VoltDbBenchmark(tb, vp).run();
    }
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq,
                        smallBed(sys::Setup::SingleDisaggregated));
        vp.rowsPerPartition = 0;
        remote = VoltDbBenchmark(tb, vp).run();
    }
    // Fig. 6 text: back-end stalls 55.5% local vs 80.9% remote; the
    // relationships (higher stalls, higher UCC, lower IPC) must hold.
    EXPECT_GT(remote.backendStallFraction,
              local.backendStallFraction);
    EXPECT_GT(remote.ucc, local.ucc * 0.95);
    EXPECT_LT(remote.packageIpc, local.packageIpc);
}

TEST(ElasticT, CompletesAllQueries)
{
    sim::EventQueue eq;
    sys::Testbed tb(eq, smallBed(sys::Setup::Local));
    ElasticParams ep;
    ep.shards = 5;
    ep.challenge = EsChallenge::MA;
    ep.totalOps = 200;
    ElasticBenchmark bench(tb, ep);
    auto r = bench.run();
    EXPECT_EQ(r.latencyUs.count(), 200u);
    EXPECT_GT(r.throughputOps, 0.0);
}

TEST(ElasticT, ShardScalingDegradesSyncHeavyChallenge)
{
    ElasticParams ep;
    ep.challenge = EsChallenge::RSTQ;
    ep.totalOps = 100;
    double t5, t32;
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq, smallBed(sys::Setup::Local));
        ep.shards = 5;
        t5 = ElasticBenchmark(tb, ep).run().throughputOps;
    }
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq, smallBed(sys::Setup::Local));
        ep.shards = 32;
        t32 = ElasticBenchmark(tb, ep).run().throughputOps;
    }
    EXPECT_LT(t32, t5); // merge/sync cost grows with shards
}

TEST(ElasticT, ScaleOutBeatsDisaggregatedOnRtq)
{
    ElasticParams ep;
    ep.challenge = EsChallenge::RTQ;
    ep.shards = 16;
    ep.shardBytes = 4ULL * 1024 * 1024;
    ep.totalOps = 120;
    double scale_out, single;
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq, smallBed(sys::Setup::ScaleOut));
        scale_out = ElasticBenchmark(tb, ep).run().throughputOps;
    }
    {
        sim::EventQueue eq;
        sys::Testbed tb(eq,
                        smallBed(sys::Setup::SingleDisaggregated));
        single = ElasticBenchmark(tb, ep).run().throughputOps;
    }
    EXPECT_GT(scale_out, single);
}
