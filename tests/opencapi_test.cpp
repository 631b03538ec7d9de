/**
 * @file
 * Unit tests for the OpenCAPI attachment model: PASID registry,
 * crossing stages, M1 window and C1 master.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "opencapi/c1_master.hh"
#include "opencapi/crossing.hh"
#include "opencapi/m1_window.hh"
#include "opencapi/pasid.hh"

using namespace tf;
using namespace tf::ocapi;
using tf::mem::Addr;
using tf::mem::TxnPtr;
using tf::mem::TxnType;

TEST(Pasid, AllocateAndRegister)
{
    PasidRegistry reg;
    Pasid p = reg.allocate();
    EXPECT_NE(p, invalidPasid);
    EXPECT_TRUE(reg.registerRegion(p, 0x10000, 0x1000));
    EXPECT_TRUE(reg.authorised(p, 0x10000, 128));
    EXPECT_TRUE(reg.authorised(p, 0x10f80, 128));
    EXPECT_FALSE(reg.authorised(p, 0x10f81, 128)); // crosses the end
    EXPECT_FALSE(reg.authorised(p, 0xffff, 1));
}

TEST(Pasid, UnknownPasidRejected)
{
    PasidRegistry reg;
    EXPECT_FALSE(reg.registerRegion(12345, 0x0, 0x1000));
}

TEST(Pasid, OverlapRejected)
{
    PasidRegistry reg;
    Pasid a = reg.allocate();
    Pasid b = reg.allocate();
    ASSERT_TRUE(reg.registerRegion(a, 0x1000, 0x1000));
    EXPECT_FALSE(reg.registerRegion(b, 0x1800, 0x1000)); // overlaps
    EXPECT_FALSE(reg.registerRegion(b, 0x0800, 0x1000)); // overlaps
    EXPECT_TRUE(reg.registerRegion(b, 0x2000, 0x1000));  // adjacent OK
}

TEST(Pasid, CrossPasidAccessDenied)
{
    PasidRegistry reg;
    Pasid a = reg.allocate();
    Pasid b = reg.allocate();
    ASSERT_TRUE(reg.registerRegion(a, 0x1000, 0x1000));
    EXPECT_FALSE(reg.authorised(b, 0x1000, 128));
}

TEST(Pasid, ReleaseDropsRegions)
{
    PasidRegistry reg;
    Pasid p = reg.allocate();
    ASSERT_TRUE(reg.registerRegion(p, 0x1000, 0x1000));
    reg.release(p);
    EXPECT_FALSE(reg.authorised(p, 0x1000, 128));
    EXPECT_EQ(reg.regionCount(), 0u);
}

TEST(Pasid, UnregisterExactBase)
{
    PasidRegistry reg;
    Pasid p = reg.allocate();
    ASSERT_TRUE(reg.registerRegion(p, 0x1000, 0x1000));
    EXPECT_FALSE(reg.unregisterRegion(p, 0x1800));
    EXPECT_TRUE(reg.unregisterRegion(p, 0x1000));
    EXPECT_EQ(reg.regionCount(), 0u);
}

TEST(M1Window, Translation)
{
    M1Window win{0x2000000000ULL, 1ULL << 30};
    EXPECT_TRUE(win.contains(0x2000000000ULL));
    EXPECT_TRUE(win.contains(0x203fffffffULL));
    EXPECT_FALSE(win.contains(0x2040000000ULL));
    EXPECT_EQ(win.toInternal(0x2000001000ULL), 0x1000u);
    EXPECT_EQ(win.toReal(0x1000), 0x2000001000ULL);
}

TEST(Crossing, LatencyOnly)
{
    sim::EventQueue eq;
    CrossingStage stage("s", eq, {sim::nanoseconds(75), 0});
    sim::Tick arrival = 0;
    stage.connect([&](TxnPtr) { arrival = eq.now(); });
    stage.push(mem::makeTxn(TxnType::ReadReq, 0));
    eq.run();
    EXPECT_EQ(arrival, sim::nanoseconds(75));
}

TEST(Crossing, PipelinedSerialisation)
{
    sim::EventQueue eq;
    // 32 GB/s: a 5-flit (160B) write request serialises in 5 ns.
    CrossingStage stage("s", eq, {sim::nanoseconds(100), 32e9});
    std::vector<sim::Tick> arrivals;
    stage.connect([&](TxnPtr) { arrivals.push_back(eq.now()); });
    for (int i = 0; i < 4; ++i)
        stage.push(mem::makeTxn(TxnType::WriteReq, 0));
    eq.run();
    ASSERT_EQ(arrivals.size(), 4u);
    // First: 5 ns ser + 100 ns latency; then 5 ns apart (pipelined).
    EXPECT_EQ(arrivals[0], sim::nanoseconds(105));
    EXPECT_EQ(arrivals[1], sim::nanoseconds(110));
    EXPECT_EQ(arrivals[3], sim::nanoseconds(120));
}

TEST(Crossing, SerialisationOfEverySizeMatchesTheFormula)
{
    // Interleaved sizes, some pushed while the stage is busy: each
    // delivery tick is the one the formula gives its wire bytes, also
    // for sizes that share a slot of the stage's per-size memo (1, 9
    // and 129 flits).
    sim::EventQueue eq;
    const double bw = 21.3e9;
    const sim::Tick lat = sim::nanoseconds(40);
    CrossingStage stage("s", eq, {lat, bw});
    std::vector<sim::Tick> arrivals;
    stage.connect([&](TxnPtr) { arrivals.push_back(eq.now()); });

    struct Item
    {
        TxnType type;
        std::uint32_t size;
        std::uint32_t flits;
    };
    const Item items[] = {{TxnType::ReadReq, 128, 1},
                          {TxnType::WriteReq, 128, 5},
                          {TxnType::ReadResp, 256, 9},
                          {TxnType::ReadResp, 4096, 129}};
    const std::size_t order[] = {0, 1, 2, 1, 0, 2, 2, 1,
                                 3, 0, 1, 2, 0, 0, 2, 1};
    std::vector<sim::Tick> want;
    sim::Tick nextFree = 0;
    for (std::size_t k = 0; k < 80; ++k) {
        const Item &it = items[order[k % 16]];
        sim::Tick at = sim::nanoseconds(3) * k;
        double bytes = static_cast<double>(it.flits * 32);
        sim::Tick ser = sim::seconds(bytes / bw);
        sim::Tick start = std::max(at, nextFree);
        nextFree = start + ser;
        want.push_back(start + ser + lat);
        eq.schedule(at, [&stage, it] {
            TxnPtr txn = mem::makeTxn(it.type, 0, it.size);
            ASSERT_EQ(mem::flitCount(*txn), it.flits);
            stage.push(std::move(txn));
        });
    }
    eq.run();
    EXPECT_EQ(arrivals, want);
}

namespace {

struct C1Fixture : ::testing::Test
{
    sim::EventQueue eq;
    mem::BackingStore store;
    mem::DramParams dparams;
    std::unique_ptr<mem::Dram> dram;
    PasidRegistry pasids;
    std::unique_ptr<C1Master> c1;
    Pasid pasid = invalidPasid;

    void
    SetUp() override
    {
        dparams.accessLatency = sim::nanoseconds(90);
        dparams.bandwidthBps = 110e9;
        dram = std::make_unique<mem::Dram>("dram", eq, dparams, &store);
        c1 = std::make_unique<C1Master>("c1", eq, C1Params{}, pasids,
                                        *dram);
        pasid = pasids.allocate();
        ASSERT_TRUE(pasids.registerRegion(pasid, 0x100000, 1 << 20));
    }
};

} // namespace

TEST_F(C1Fixture, AuthorizedAccessReachesDram)
{
    auto txn = mem::makeTxn(TxnType::ReadReq, 0x100000);
    bool done = false;
    c1->connect([&](TxnPtr t) {
        done = true;
        EXPECT_FALSE(t->error);
        EXPECT_EQ(t->data.size(), mem::cachelineBytes);
    });
    c1->master(pasid, txn);
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(c1->transactions(), 1u);
    EXPECT_EQ(c1->faults(), 0u);
}

TEST_F(C1Fixture, UnauthorizedAccessFaults)
{
    auto txn = mem::makeTxn(TxnType::ReadReq, 0x0); // unregistered
    bool done = false;
    c1->connect([&](TxnPtr t) {
        done = true;
        EXPECT_TRUE(t->error);
    });
    c1->master(pasid, txn);
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(c1->faults(), 1u);
    EXPECT_EQ(dram->reads(), 0u);
}

TEST_F(C1Fixture, BandwidthCeiling128B)
{
    // Saturate the C1 command pipeline with 128B writes; sustained
    // bandwidth must land near the paper's ~16 GiB/s ceiling and well
    // below the 20 GiB/s achievable with 256B bursts.
    const int n = 20000;
    int completed = 0;
    c1->connect([&](TxnPtr) { ++completed; });
    for (int i = 0; i < n; ++i) {
        auto txn = mem::makeTxn(
            TxnType::WriteReq,
            0x100000 + (static_cast<Addr>(i) * 128) % (1 << 20));
        txn->data.assign(128, 0x5a);
        c1->master(pasid, txn);
    }
    eq.run();
    ASSERT_EQ(completed, n);
    double secs = sim::toSec(eq.now());
    double gib = static_cast<double>(n) * 128 /
                 (1024.0 * 1024 * 1024) / secs;
    EXPECT_GT(gib, 14.0);
    EXPECT_LT(gib, 18.5);
}

TEST_F(C1Fixture, BandwidthHigherWith256B)
{
    const int n = 10000;
    int completed = 0;
    c1->connect([&](TxnPtr) { ++completed; });
    for (int i = 0; i < n; ++i) {
        auto txn = mem::makeTxn(
            TxnType::WriteReq,
            0x100000 + (static_cast<Addr>(i) * 256) % (1 << 20), 256);
        txn->data.assign(256, 0x5a);
        c1->master(pasid, txn);
    }
    eq.run();
    ASSERT_EQ(completed, n);
    double secs = sim::toSec(eq.now());
    double gib = static_cast<double>(n) * 256 /
                 (1024.0 * 1024 * 1024) / secs;
    // Paper: ~20 GiB/s with 256B transactions.
    EXPECT_GT(gib, 18.5);
    EXPECT_LT(gib, 23.0);
}
