/**
 * @file
 * Tests for the system layer: node host-bus routing, CPU occupancy
 * model, memory path bursts, the five testbed configurations, and the
 * host-memory footprint of timing-only app models.
 */

#include <gtest/gtest.h>

#include "apps/memcached.hh"
#include "apps/stream.hh"
#include "system/memory_path.hh"
#include "system/testbed.hh"

using namespace tf;
using namespace tf::sys;

TEST(CpuSetT, SerialisesBeyondCapacity)
{
    sim::EventQueue eq;
    CpuSet cpu("c", eq, 2);
    std::vector<sim::Tick> done;
    for (int i = 0; i < 4; ++i)
        cpu.exec(sim::microseconds(10),
                 [&] { done.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(done.size(), 4u);
    // Two run immediately, two queue behind them.
    EXPECT_EQ(done[0], sim::microseconds(10));
    EXPECT_EQ(done[1], sim::microseconds(10));
    EXPECT_EQ(done[2], sim::microseconds(20));
    EXPECT_EQ(done[3], sim::microseconds(20));
    EXPECT_EQ(cpu.busyTime(), sim::microseconds(40));
    EXPECT_EQ(cpu.tasksRun(), 4u);
}

TEST(NodeT, RoutesLocalAndRemote)
{
    sim::EventQueue eq;
    sim::Rng rng(1);
    NodeParams params;
    Node nodeA("a", eq, params);
    Node nodeB("b", eq, params);

    flow::Datapath dp("dp", eq, flow::FlowParams{},
                      ocapi::M1Window{0x2000000000ULL, 1ULL << 28},
                      nodeB.pasids(), nodeB.dram(), rng,
                      params.sectionBytes);
    nodeA.attachDatapath(dp);
    auto pasid = nodeB.pasids().allocate();
    ASSERT_TRUE(nodeB.pasids().registerRegion(pasid, 0x100000000ULL,
                                              1ULL << 28));
    dp.stealing().setPasid(pasid);
    dp.attach(0, 0x100000000ULL, 1, {0});

    int completed = 0;
    auto local = mem::makeTxn(mem::TxnType::ReadReq, 0x1000);
    local->onComplete = [&](mem::MemTxn &) { ++completed; };
    nodeA.issue(local);
    auto remote =
        mem::makeTxn(mem::TxnType::ReadReq, 0x2000000000ULL);
    remote->onComplete = [&](mem::MemTxn &) { ++completed; };
    nodeA.issue(remote);
    eq.run();
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(nodeA.localAccesses(), 1u);
    EXPECT_EQ(nodeA.remoteAccesses(), 1u);
}

namespace {

struct PathFixture : ::testing::Test
{
    sim::EventQueue eq;
    NodeParams params;
    std::unique_ptr<Node> node;
    std::unique_ptr<os::AddressSpace> space;
    std::unique_ptr<MemoryPath> path;

    void
    SetUp() override
    {
        node = std::make_unique<Node>("n", eq, params);
        space = std::make_unique<os::AddressSpace>(
            node->mm(), node->localNode());
        path = std::make_unique<MemoryPath>(*node);
    }
};

} // namespace

TEST_F(PathFixture, BurstCompletesAllMisses)
{
    mem::Addr va = space->mmap(1 << 20);
    std::vector<mem::Addr> lines;
    for (int i = 0; i < 256; ++i)
        lines.push_back(va + static_cast<mem::Addr>(i) * 128);
    bool done = false;
    path->burst(*space, lines, false, 8, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(path->misses(), 256u);
    EXPECT_EQ(path->hits(), 0u);
}

TEST_F(PathFixture, CacheHitsSkipMemory)
{
    mem::Addr va = space->mmap(1 << 20);
    std::vector<mem::Addr> lines;
    for (int i = 0; i < 64; ++i)
        lines.push_back(va + static_cast<mem::Addr>(i) * 128);
    bool first = false, second = false;
    path->burst(*space, lines, false, 8, [&] { first = true; });
    eq.run();
    std::uint64_t dram_reads = node->dram().reads();
    path->burst(*space, lines, false, 8, [&] { second = true; });
    eq.run();
    EXPECT_TRUE(first && second);
    EXPECT_EQ(path->hits(), 64u);
    EXPECT_EQ(node->dram().reads(), dram_reads); // no new traffic
}

TEST_F(PathFixture, StreamingStoresBypassCache)
{
    mem::Addr va = space->mmap(1 << 20);
    std::vector<Access> acc;
    for (int i = 0; i < 32; ++i)
        acc.push_back(Access{va + static_cast<mem::Addr>(i) * 128,
                             true});
    bool done = false;
    path->burstMixed(*space, acc, 8, [&] { done = true; }, true);
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(node->dram().writes(), 32u);
    // Lines were not cached: a read burst misses.
    std::vector<mem::Addr> lines;
    for (int i = 0; i < 32; ++i)
        lines.push_back(va + static_cast<mem::Addr>(i) * 128);
    path->burst(*space, lines, false, 8, [] {});
    eq.run();
    EXPECT_EQ(path->hits(), 0u);
}

TEST(TestbedT, LocalSetupHasNoDatapath)
{
    sim::EventQueue eq;
    TestbedParams tp;
    tp.setup = Setup::Local;
    Testbed tb(eq, tp);
    EXPECT_EQ(tb.datapath(), nullptr);
    auto policy = tb.serverPolicy();
    EXPECT_EQ(policy.mode, os::AllocPolicy::Mode::Bind);
    EXPECT_EQ(policy.nodes,
              std::vector<os::NodeId>{tb.serverA().localNode()});
}

TEST(TestbedT, DisaggregatedSetupOnlinesRemoteMemory)
{
    sim::EventQueue eq;
    TestbedParams tp;
    tp.setup = Setup::SingleDisaggregated;
    tp.donatedBytes = 128ULL * 1024 * 1024;
    Testbed tb(eq, tp);
    ASSERT_NE(tb.datapath(), nullptr);
    EXPECT_EQ(tb.serverA().mm().totalPages(tb.serverA().tflowNode()),
              128ULL * 1024 * 1024 / tp.node.pageBytes);
    // The donor gave up the sections.
    EXPECT_LT(tb.serverB().mm().freePages(tb.serverB().localNode()),
              tp.node.bootSections * tp.node.sectionBytes /
                  tp.node.pageBytes);
}

TEST(TestbedT, BondingUsesTwoChannels)
{
    sim::EventQueue eq;
    TestbedParams tp;
    tp.setup = Setup::BondingDisaggregated;
    tp.donatedBytes = 64ULL * 1024 * 1024;
    Testbed tb(eq, tp);
    os::AddressSpace space(tb.serverA().mm(),
                           tb.serverA().localNode(),
                           tb.serverPolicy());
    MemoryPath path(tb.serverA());
    mem::Addr va = space.mmap(1 << 20);
    std::vector<mem::Addr> lines;
    for (int i = 0; i < 512; ++i)
        lines.push_back(va + static_cast<mem::Addr>(i) * 128);
    path.burst(space, lines, false, 16, [] {});
    eq.run();
    EXPECT_GT(tb.datapath()->channel(0).wireAB().framesSent(), 0u);
    EXPECT_GT(tb.datapath()->channel(1).wireAB().framesSent(), 0u);
}

TEST(TestbedT, InterleavedPolicySplitsPages)
{
    sim::EventQueue eq;
    TestbedParams tp;
    tp.setup = Setup::Interleaved;
    tp.donatedBytes = 128ULL * 1024 * 1024;
    Testbed tb(eq, tp);
    os::AddressSpace space(tb.serverA().mm(),
                           tb.serverA().localNode(),
                           tb.serverPolicy());
    mem::Addr va = space.mmap(64 * tp.node.pageBytes);
    for (int i = 0; i < 64; ++i)
        space.translate(va + static_cast<mem::Addr>(i) *
                                 tp.node.pageBytes);
    auto res = space.residency();
    EXPECT_EQ(res[tb.serverA().localNode()], 32u);
    EXPECT_EQ(res[tb.serverA().tflowNode()], 32u);
}

TEST(TestbedT, AllSetupsConstruct)
{
    for (auto setup :
         {Setup::Local, Setup::SingleDisaggregated,
          Setup::BondingDisaggregated, Setup::Interleaved,
          Setup::ScaleOut}) {
        sim::EventQueue eq;
        TestbedParams tp;
        tp.setup = setup;
        tp.donatedBytes = 64ULL * 1024 * 1024;
        Testbed tb(eq, tp);
        EXPECT_STREQ(setupName(tb.setup()), setupName(setup));
        EXPECT_EQ(tb.network().hopCount("client", "serverA"), 1u);
        EXPECT_EQ(tb.network().hopCount("serverA", "serverB"), 1u);
    }
}

TEST(TestbedT, TimingOnlyAppsAllocateNoBackingPages)
{
    // App models move no data, so donor DRAM reads and writes must
    // never make the sparse backing store allocate a page.
    sim::EventQueue eq;
    TestbedParams tp;
    tp.setup = Setup::BondingDisaggregated;
    tp.donatedBytes = 64ULL * 1024 * 1024;
    tp.node.cache = mem::CacheParams{2 * 1024 * 1024, 8, 128};
    Testbed tb(eq, tp);

    apps::MemcachedParams mp;
    mp.cacheItems = 2000;
    mp.keySpaceItems = 3000;
    mp.bufferRegionBytes = 4ULL * 1024 * 1024;
    mp.clientThreads = 4;
    mp.requestsPerThread = 50;
    apps::MemcachedResult mr = apps::MemcachedBenchmark(tb, mp).run();
    EXPECT_GT(mr.getLatencyUs.count(), 0u);

    apps::StreamParams sp;
    sp.elements = 64 * 1024;
    sp.threads = 4;
    sp.iterations = 1;
    apps::StreamBenchmark(tb, sp).run(apps::StreamKernel::Triad);

    EXPECT_GT(tb.serverB().dram().reads(), 0u);
    EXPECT_GT(tb.serverB().dram().writes(), 0u);
    for (Node *n : {&tb.serverA(), &tb.serverB(), &tb.client()})
        EXPECT_EQ(n->store().touchedPages(), 0u) << n->name();
}
