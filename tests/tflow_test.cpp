/**
 * @file
 * Tests for the RMMU, routing layer, and the assembled datapath
 * (compute endpoint <-> channels <-> stealing endpoint <-> donor DRAM).
 */

#include <gtest/gtest.h>

#include <map>

#include "mem/dram.hh"
#include "tflow/datapath.hh"

using namespace tf;
using namespace tf::flow;
using tf::mem::Addr;
using tf::mem::TxnPtr;
using tf::mem::TxnType;

// ----------------------------------------------------------- RMMU

TEST(SectionTableT, IndexAndMap)
{
    SectionTable table(1 << 20, 16); // 1 MiB sections
    EXPECT_EQ(table.indexOf(0), 0u);
    EXPECT_EQ(table.indexOf((1 << 20) - 1), 0u);
    EXPECT_EQ(table.indexOf(1 << 20), 1u);
    EXPECT_EQ(table.indexOf(5u << 20), 5u);

    table.map(3, 0xdead0000, 7, true);
    EXPECT_TRUE(table.entry(3).valid);
    EXPECT_EQ(table.mappedCount(), 1u);
    table.unmap(3);
    EXPECT_FALSE(table.entry(3).valid);
    EXPECT_EQ(table.mappedCount(), 0u);
}

TEST(RmmuT, TranslatesWithinSection)
{
    SectionTable table(1 << 20, 16);
    table.map(2, 0x80000000, 5, false);
    Rmmu rmmu("rmmu", std::move(table));

    auto txn = mem::makeTxn(TxnType::ReadReq, (2u << 20) + 0x1234);
    ASSERT_TRUE(rmmu.translate(*txn));
    EXPECT_EQ(txn->addr, 0x80001234u);
    EXPECT_EQ(txn->networkId, 5);
    EXPECT_FALSE(txn->bonded);
    EXPECT_EQ(rmmu.translations(), 1u);
}

TEST(RmmuT, FaultOnUnmappedSection)
{
    SectionTable table(1 << 20, 16);
    Rmmu rmmu("rmmu", std::move(table));
    auto txn = mem::makeTxn(TxnType::ReadReq, 0x1000);
    Addr before = txn->addr;
    EXPECT_FALSE(rmmu.translate(*txn));
    EXPECT_EQ(txn->addr, before); // untouched on fault
    EXPECT_EQ(rmmu.faults(), 1u);
}

TEST(RmmuT, AdjacentSectionsToDifferentDonorRanges)
{
    SectionTable table(1 << 20, 8);
    table.map(0, 0x10000000, 1, false);
    table.map(1, 0x90000000, 2, false); // non-contiguous donor ranges
    Rmmu rmmu("rmmu", std::move(table));

    auto a = mem::makeTxn(TxnType::ReadReq, 0x0fff80);
    auto b = mem::makeTxn(TxnType::ReadReq, 0x100000);
    ASSERT_TRUE(rmmu.translate(*a));
    ASSERT_TRUE(rmmu.translate(*b));
    EXPECT_EQ(a->addr, 0x100fff80u);
    EXPECT_EQ(b->addr, 0x90000000u);
    EXPECT_EQ(a->networkId, 1);
    EXPECT_EQ(b->networkId, 2);
}

// --------------------------------------------------------- Routing

TEST(RoutingT, SingleChannelFlow)
{
    RoutingLayer routing;
    routing.setRoute(3, {1});
    auto txn = mem::makeTxn(TxnType::ReadReq, 0);
    txn->networkId = 3;
    txn->bonded = false;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(routing.route(*txn), 1);
}

TEST(RoutingT, BondedRoundRobin)
{
    RoutingLayer routing;
    routing.setRoute(3, {0, 1});
    auto txn = mem::makeTxn(TxnType::ReadReq, 0);
    txn->networkId = 3;
    txn->bonded = true;
    std::vector<int> picks;
    for (int i = 0; i < 6; ++i)
        picks.push_back(routing.route(*txn));
    EXPECT_EQ(picks, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(RoutingT, BondedFlagOffUsesFirstChannelOnly)
{
    RoutingLayer routing;
    routing.setRoute(3, {0, 1});
    auto txn = mem::makeTxn(TxnType::ReadReq, 0);
    txn->networkId = 3;
    txn->bonded = false;
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(routing.route(*txn), 0);
}

TEST(RoutingT, UnknownFlowDropped)
{
    RoutingLayer routing;
    auto txn = mem::makeTxn(TxnType::ReadReq, 0);
    txn->networkId = 9;
    EXPECT_EQ(routing.route(*txn), -1);
    EXPECT_EQ(routing.dropped(), 1u);
}

TEST(RoutingT, ConcurrentFlowsShareChannel)
{
    RoutingLayer routing;
    routing.setRoute(1, {0, 1});
    routing.setRoute(2, {1});
    auto bonded = mem::makeTxn(TxnType::ReadReq, 0);
    bonded->networkId = 1;
    bonded->bonded = true;
    auto plain = mem::makeTxn(TxnType::ReadReq, 0);
    plain->networkId = 2;
    EXPECT_EQ(routing.route(*bonded), 0);
    EXPECT_EQ(routing.route(*plain), 1);
    EXPECT_EQ(routing.route(*bonded), 1);
    EXPECT_EQ(routing.flows(), 2u);
}

TEST(RoutingT, BondedFlowDegradesOntoSurvivors)
{
    RoutingLayer routing;
    routing.setRoute(3, {0, 1, 2, 3});
    auto txn = mem::makeTxn(TxnType::ReadReq, 0);
    txn->networkId = 3;
    txn->bonded = true;

    routing.markChannelDown(1);
    std::vector<int> picks;
    for (int i = 0; i < 6; ++i)
        picks.push_back(routing.route(*txn));
    EXPECT_EQ(picks, (std::vector<int>{0, 2, 3, 0, 2, 3}));
    EXPECT_EQ(routing.degradedTxns(), 6u);
    EXPECT_EQ(routing.failoverEvents(), 1u);
    EXPECT_EQ(routing.unroutableDropped(), 0u);

    // Recovery spreads back over the full set.
    routing.markChannelUp(1);
    picks.clear();
    for (int i = 0; i < 4; ++i)
        picks.push_back(routing.route(*txn));
    EXPECT_EQ(picks, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(routing.degradedTxns(), 6u); // no longer degraded
}

TEST(RoutingT, KnownFlowAllChannelsDownIsUnroutableNotDropped)
{
    RoutingLayer routing;
    routing.setRoute(3, {0, 1});
    routing.markChannelDown(0);
    routing.markChannelDown(1);
    auto txn = mem::makeTxn(TxnType::ReadReq, 0);
    txn->networkId = 3;
    txn->bonded = true;
    EXPECT_EQ(routing.route(*txn), -1);
    EXPECT_EQ(routing.unroutableDropped(), 1u);
    EXPECT_EQ(routing.dropped(), 0u); // distinct from unknown flows

    auto unknown = mem::makeTxn(TxnType::ReadReq, 0);
    unknown->networkId = 9;
    EXPECT_EQ(routing.route(*unknown), -1);
    EXPECT_EQ(routing.dropped(), 1u);
    EXPECT_EQ(routing.unroutableDropped(), 1u);
}

TEST(RoutingT, NonBondedFlowUnroutableWhenPinnedChannelDies)
{
    RoutingLayer routing;
    routing.setRoute(3, {0, 1});
    routing.markChannelDown(0);
    auto txn = mem::makeTxn(TxnType::ReadReq, 0);
    txn->networkId = 3;
    txn->bonded = false; // pinned to channel 0, cannot spread
    EXPECT_EQ(routing.route(*txn), -1);
    EXPECT_EQ(routing.unroutableDropped(), 1u);
}

TEST(RoutingT, WeightedRouteRebalancesOnFailure)
{
    RoutingLayer routing;
    routing.setWeightedRoute(3, {0, 1, 2}, {3, 2, 1});
    auto txn = mem::makeTxn(TxnType::ReadReq, 0);
    txn->networkId = 3;
    txn->bonded = true;

    routing.markChannelDown(0); // the heaviest channel dies
    std::map<int, int> counts;
    for (int i = 0; i < 300; ++i)
        ++counts[routing.route(*txn)];
    EXPECT_EQ(counts.count(0), 0u);
    // Weights 2:1 over the survivors.
    EXPECT_EQ(counts[1], 200);
    EXPECT_EQ(counts[2], 100);
}

// -------------------------------------------------------- Datapath

namespace {

constexpr Addr kWindowBase = 0x2000000000ULL;
constexpr std::uint64_t kWindowSize = 1ULL << 30;   // 1 GiB
constexpr std::uint64_t kSectionBytes = 1ULL << 24; // 16 MiB (tests)
constexpr Addr kDonorBase = 0x100000000ULL;

struct DatapathFixture : ::testing::Test
{
    sim::EventQueue eq;
    sim::Rng rng{2024};
    mem::BackingStore donorStore;
    std::unique_ptr<mem::Dram> donorDram;
    ocapi::PasidRegistry pasids;
    std::unique_ptr<Datapath> dp;
    ocapi::Pasid pasid = ocapi::invalidPasid;

    void
    build(FlowParams params = FlowParams{})
    {
        donorDram = std::make_unique<mem::Dram>(
            "donorDram", eq, mem::DramParams{}, &donorStore);
        dp = std::make_unique<Datapath>(
            "dp", eq, params,
            ocapi::M1Window{kWindowBase, kWindowSize}, pasids,
            *donorDram, rng, kSectionBytes);
        pasid = pasids.allocate();
        ASSERT_TRUE(
            pasids.registerRegion(pasid, kDonorBase, kWindowSize));
        dp->stealing().setPasid(pasid);
        // Map section 0 un-bonded on channel 0.
        dp->attach(0, kDonorBase, 1, {0});
    }

    TxnPtr
    issueAndRun(TxnType type, Addr real,
                const std::vector<std::uint8_t> &data = {})
    {
        auto txn = mem::makeTxn(type, real);
        if (!data.empty())
            txn->data = data;
        TxnPtr got;
        txn->onComplete = [&](mem::MemTxn &t) {
            got = TxnPtr(&t);
        };
        dp->issue(txn);
        eq.run();
        return got;
    }
};

} // namespace

TEST_F(DatapathFixture, WriteThenReadRoundTripsData)
{
    build();
    std::vector<std::uint8_t> payload(128);
    for (int i = 0; i < 128; ++i)
        payload[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(255 - i);

    auto wr = issueAndRun(TxnType::WriteReq, kWindowBase + 0x4000,
                          payload);
    ASSERT_TRUE(wr);
    EXPECT_FALSE(wr->error);

    auto rd = issueAndRun(TxnType::ReadReq, kWindowBase + 0x4000);
    ASSERT_TRUE(rd);
    EXPECT_FALSE(rd->error);
    EXPECT_EQ(rd->data, payload);

    // The bytes physically live in donor memory at the donor base.
    std::vector<std::uint8_t> donor_bytes(128);
    donorStore.read(kDonorBase + 0x4000, donor_bytes.data(), 128);
    EXPECT_EQ(donor_bytes, payload);
}

TEST_F(DatapathFixture, UnloadedReadLatencyNear950nsBudget)
{
    build();
    auto rd = issueAndRun(TxnType::ReadReq, kWindowBase + 0x100);
    ASSERT_TRUE(rd);
    double mean = dp->compute().rttNs().mean();
    // 950 ns flit RTT + serialization + C1 + donor DRAM access.
    EXPECT_GT(mean, 950.0);
    EXPECT_LT(mean, 1300.0);
}

TEST_F(DatapathFixture, FaultsOnUnmappedSection)
{
    build();
    // Section 1 (offset 16 MiB) is not attached.
    auto rd = issueAndRun(TxnType::ReadReq,
                          kWindowBase + kSectionBytes + 0x100);
    ASSERT_TRUE(rd);
    EXPECT_TRUE(rd->error);
    EXPECT_EQ(dp->compute().rmmuFaults(), 1u);
}

TEST_F(DatapathFixture, DetachStopsTraffic)
{
    build();
    auto ok = issueAndRun(TxnType::ReadReq, kWindowBase + 0x100);
    ASSERT_TRUE(ok);
    EXPECT_FALSE(ok->error);

    dp->detach(0);
    auto bad = issueAndRun(TxnType::ReadReq, kWindowBase + 0x100);
    ASSERT_TRUE(bad);
    EXPECT_TRUE(bad->error);
}

TEST_F(DatapathFixture, BondedFlowUsesBothChannels)
{
    build();
    dp->attach(1, kDonorBase + kSectionBytes, 2, {0, 1});
    int completed = 0;
    for (int i = 0; i < 64; ++i) {
        auto txn = mem::makeTxn(
            TxnType::ReadReq,
            kWindowBase + kSectionBytes + static_cast<Addr>(i) * 128);
        txn->onComplete = [&](mem::MemTxn &) { ++completed; };
        dp->issue(txn);
    }
    eq.run();
    EXPECT_EQ(completed, 64);
    // Both channels carried traffic.
    EXPECT_GT(dp->channel(0).wireAB().framesSent(), 0u);
    EXPECT_GT(dp->channel(1).wireAB().framesSent(), 0u);
}

TEST_F(DatapathFixture, ManyOutstandingAllComplete)
{
    build();
    const int n = 5000;
    int completed = 0;
    for (int i = 0; i < n; ++i) {
        auto txn = mem::makeTxn(
            TxnType::ReadReq,
            kWindowBase + (static_cast<Addr>(i) * 128) % kSectionBytes);
        txn->onComplete = [&](mem::MemTxn &) { ++completed; };
        dp->issue(txn);
    }
    eq.run();
    EXPECT_EQ(completed, n);
    EXPECT_EQ(dp->compute().outstanding(), 0u);
    EXPECT_EQ(dp->compute().queued(), 0u);
}

TEST_F(DatapathFixture, LossyNetworkStillCorrect)
{
    FlowParams params;
    params.frameErrorRate = 0.02;
    params.ackTimeout = sim::microseconds(10);
    build(params);

    // Write a pattern, read it back through the lossy network.
    std::vector<std::uint8_t> payload(128, 0x77);
    auto wr = issueAndRun(TxnType::WriteReq, kWindowBase, payload);
    ASSERT_TRUE(wr);
    int completed = 0;
    bool all_match = true;
    for (int i = 0; i < 500; ++i) {
        auto txn = mem::makeTxn(TxnType::ReadReq, kWindowBase);
        txn->onComplete = [&](mem::MemTxn &t) {
            ++completed;
            all_match = all_match && t.data == payload && !t.error;
        };
        dp->issue(txn);
    }
    eq.run();
    EXPECT_EQ(completed, 500);
    EXPECT_TRUE(all_match);
}

TEST_F(DatapathFixture, TagLimitQueuesExcess)
{
    FlowParams params;
    params.maxTags = 8;
    build(params);
    int completed = 0;
    for (int i = 0; i < 64; ++i) {
        auto txn = mem::makeTxn(
            TxnType::ReadReq, kWindowBase + static_cast<Addr>(i) * 128);
        txn->onComplete = [&](mem::MemTxn &) { ++completed; };
        dp->issue(txn);
    }
    EXPECT_GT(dp->compute().queued(), 0u);
    eq.run();
    EXPECT_EQ(completed, 64);
    EXPECT_GT(dp->compute().tagStalls(), 0u);
}

TEST_F(DatapathFixture, C1AuthorisationEnforced)
{
    build();
    // Attach a section whose donor range was never pinned/registered:
    // the C1 master must fault it, and the host must see the error.
    dp->attach(2, 0xdead000000ULL, 3, {0});
    auto rd = issueAndRun(TxnType::ReadReq,
                          kWindowBase + 2 * kSectionBytes);
    ASSERT_TRUE(rd);
    EXPECT_TRUE(rd->error);
    EXPECT_EQ(dp->c1().faults(), 1u);
}

TEST_F(DatapathFixture, ReadBandwidthSingleChannel)
{
    build();
    // Closed-loop: keep 128 reads outstanding for a while; sustained
    // bandwidth should approach the ~10 GiB/s the paper reports for
    // reads on one 100 Gb/s channel (response frames carry 160B per
    // 128B line).
    const int outstanding = 128;
    const int total = 30000;
    int issued = 0;
    int completed = 0;
    std::function<void()> issueOne = [&]() {
        if (issued >= total)
            return;
        auto txn = mem::makeTxn(
            TxnType::ReadReq,
            kWindowBase +
                (static_cast<Addr>(issued) * 128) % kSectionBytes);
        ++issued;
        txn->onComplete = [&](mem::MemTxn &) {
            ++completed;
            issueOne();
        };
        dp->issue(txn);
    };
    for (int i = 0; i < outstanding; ++i)
        issueOne();
    eq.run();
    ASSERT_EQ(completed, total);
    double secs = sim::toSec(eq.now());
    double gib = static_cast<double>(total) * 128 /
                 (1024.0 * 1024 * 1024) / secs;
    EXPECT_GT(gib, 8.0);
    EXPECT_LT(gib, 12.5);
}

TEST(RoutingT, WeightedRouteProportionalSplit)
{
    RoutingLayer routing;
    routing.setWeightedRoute(4, {0, 1}, {3, 1});
    auto txn = mem::makeTxn(TxnType::ReadReq, 0);
    txn->networkId = 4;
    txn->bonded = true;
    int ch0 = 0, ch1 = 0;
    for (int i = 0; i < 400; ++i)
        (routing.route(*txn) == 0 ? ch0 : ch1)++;
    EXPECT_EQ(ch0, 300);
    EXPECT_EQ(ch1, 100);
}

TEST(RoutingT, WeightedRouteSmoothInterleaving)
{
    // Smooth WRR must interleave, not burst: with weights 2:1 the
    // pattern over any window of 3 holds 2x ch0, 1x ch1.
    RoutingLayer routing;
    routing.setWeightedRoute(4, {0, 1}, {2, 1});
    auto txn = mem::makeTxn(TxnType::ReadReq, 0);
    txn->networkId = 4;
    txn->bonded = true;
    std::vector<int> picks;
    for (int i = 0; i < 9; ++i)
        picks.push_back(routing.route(*txn));
    for (int w = 0; w + 3 <= 9; w += 3) {
        int ch0 = 0;
        for (int i = w; i < w + 3; ++i)
            ch0 += (picks[static_cast<std::size_t>(i)] == 0);
        EXPECT_EQ(ch0, 2);
    }
}

TEST(RoutingT, WeightedRouteUnbondedStillPinned)
{
    RoutingLayer routing;
    routing.setWeightedRoute(4, {1, 0}, {1, 5});
    auto txn = mem::makeTxn(TxnType::ReadReq, 0);
    txn->networkId = 4;
    txn->bonded = false;
    // Non-bonded flows use the first listed channel only.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(routing.route(*txn), 1);
}
