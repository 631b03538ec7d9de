/**
 * @file
 * End-to-end property tests: random mixed traffic through the full
 * datapath checked against a shadow reference memory, swept over
 * frame loss and channel bonding; plus a two-tenant control-plane
 * scenario sharing the physical channels.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "ctrl/control_plane.hh"
#include "os/address_space.hh"
#include "tflow/rig.hh"

using namespace tf;
using tf::mem::Addr;
using tf::mem::TxnPtr;
using tf::mem::TxnType;

namespace {

constexpr Addr kWindowBase = ocapi::kM1WindowBase;
constexpr std::uint64_t kWindowSize = 1ULL << 28;
constexpr std::uint64_t kSection = flow::Rig::kSection;

struct FuzzParams
{
    double errorRate;
    bool bonded;
    std::uint64_t seed;
};

// Names the ctest entries by field, not by the struct's raw bytes,
// whose padding differs from build to build.
void
PrintTo(const FuzzParams &p, std::ostream *os)
{
    *os << "errorRate=" << p.errorRate << (p.bonded ? ",bonded" : ",single");
    *os << ",seed=" << p.seed;
}

class DatapathFuzz : public ::testing::TestWithParam<FuzzParams>
{
};

} // namespace

TEST_P(DatapathFuzz, ShadowMemoryAgreesUnderRandomTraffic)
{
    const FuzzParams fp = GetParam();
    sim::EventQueue eq;
    sim::Rng rng(fp.seed);
    flow::FlowParams params;
    params.frameErrorRate = fp.errorRate;
    params.ackTimeout = sim::microseconds(10);
    flow::Rig rig("dp", eq, params, rng);
    flow::Datapath &dp = rig.dp;
    std::vector<int> channels = fp.bonded ? std::vector<int>{0, 1}
                                          : std::vector<int>{0};
    dp.attach(0, flow::Rig::kDonorBase, 1, channels);

    // Shadow model: last value written per line. ThymesisFlow
    // guarantees per-line ordering only through completion: issue a
    // new access to a line only after the previous one finished.
    constexpr int kLines = 64;
    std::map<int, std::uint8_t> shadow; // line -> expected fill byte
    std::vector<bool> busy(kLines, false);
    int issued = 0;
    int mismatches = 0;
    const int total = 4000;
    sim::Rng traffic(fp.seed ^ 0xabcdef);

    std::function<void()> issueOne = [&]() {
        if (issued >= total)
            return;
        // Find a non-busy line.
        int line = static_cast<int>(traffic.below(kLines));
        for (int tries = 0; busy[static_cast<std::size_t>(line)] &&
                            tries < kLines;
             ++tries)
            line = (line + 1) % kLines;
        if (busy[static_cast<std::size_t>(line)])
            return; // everything in flight; retried on completion
        ++issued;
        busy[static_cast<std::size_t>(line)] = true;
        Addr addr = kWindowBase +
                    static_cast<Addr>(line) * mem::cachelineBytes;
        bool write = traffic.chance(0.4);
        auto txn = mem::makeTxn(write ? TxnType::WriteReq
                                      : TxnType::ReadReq,
                                addr);
        if (write) {
            auto fill = static_cast<std::uint8_t>(traffic.below(256));
            txn->data.assign(mem::cachelineBytes, fill);
            shadow[line] = fill;
            txn->onComplete = [&, line](mem::MemTxn &t) {
                busy[static_cast<std::size_t>(line)] = false;
                if (t.error)
                    ++mismatches;
                issueOne();
            };
        } else {
            txn->onComplete = [&, line](mem::MemTxn &t) {
                busy[static_cast<std::size_t>(line)] = false;
                std::uint8_t expect =
                    shadow.count(line) ? shadow[line] : 0;
                if (t.error || t.data.size() != mem::cachelineBytes)
                    ++mismatches;
                else
                    for (auto byte : t.data)
                        if (byte != expect) {
                            ++mismatches;
                            break;
                        }
                issueOne();
            };
        }
        dp.issue(txn);
    };

    for (int i = 0; i < 32; ++i)
        issueOne();
    eq.run();

    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(issued, total);
    EXPECT_EQ(dp.compute().outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LossBondingSeeds, DatapathFuzz,
    ::testing::Values(FuzzParams{0.0, false, 1},
                      FuzzParams{0.0, true, 2},
                      FuzzParams{0.02, false, 3},
                      FuzzParams{0.02, true, 4},
                      FuzzParams{0.1, true, 5},
                      FuzzParams{0.1, false, 6}));

// ------------------------------------------------------------------
// Two tenants through the control plane, sharing physical channels.
// ------------------------------------------------------------------

TEST(MultiTenant, TwoFlowsShareChannelsIndependently)
{
    sim::EventQueue eq;
    sim::Rng rng(77);

    os::NumaTopology topoA, topoB;
    os::NodeId localA = topoA.addNode("a.local", true);
    os::NodeId tflowA = topoA.addNode("a.tflow", false);
    topoA.setDistance(localA, tflowA, 80);
    os::NodeId localB = topoB.addNode("b.local", true);
    os::MemoryManager mmA(topoA, kSection, 64 * 1024);
    os::MemoryManager mmB(topoB, kSection, 64 * 1024);
    ASSERT_TRUE(mmA.onlineSection(localA, 0));
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(
            mmB.onlineSection(localB, static_cast<Addr>(i) * kSection));

    ocapi::PasidRegistry pasidsA, pasidsB;
    agent::Agent agentA("agentA", mmA, pasidsA, "tok");
    agent::Agent agentB("agentB", mmB, pasidsB, "tok");
    mem::BackingStore storeB;
    mem::Dram dramB("dramB", eq, mem::DramParams{}, &storeB);
    flow::Datapath dp("dp", eq, flow::FlowParams{},
                      ocapi::M1Window{kWindowBase, kWindowSize},
                      pasidsB, dramB, rng, kSection);

    ctrl::ControlPlane cp(eq, "tok");
    cp.addUser("admin", ctrl::Role::Admin);
    cp.registerHost("A", agentA, mmA);
    cp.registerHost("B", agentB, mmB);
    cp.registerDatapath("A", "B", dp);

    auto id1 = cp.allocate("admin", "A", "B", kSection, tflowA, 2,
                           localB);
    auto id2 = cp.allocate("admin", "A", "B", kSection, tflowA, 1,
                           localB);
    ASSERT_TRUE(id1.has_value());
    ASSERT_TRUE(id2.has_value());

    // Distinct network ids per allocation; both usable concurrently.
    const auto *r1 = cp.allocation(*id1);
    const auto *r2 = cp.allocation(*id2);
    ASSERT_NE(r1, nullptr);
    ASSERT_NE(r2, nullptr);
    EXPECT_NE(r1->attachment.networkId, r2->attachment.networkId);

    int completed = 0;
    for (const auto *rec : {r1, r2}) {
        Addr base = rec->attachment.hotplugBases.front();
        for (int i = 0; i < 64; ++i) {
            auto txn = mem::makeTxn(
                TxnType::ReadReq,
                base + static_cast<Addr>(i) * mem::cachelineBytes);
            txn->onComplete = [&](mem::MemTxn &t) {
                EXPECT_FALSE(t.error);
                ++completed;
            };
            dp.issue(txn);
        }
    }
    eq.run();
    EXPECT_EQ(completed, 128);

    // Tear down one tenant; the other keeps working.
    EXPECT_TRUE(cp.deallocate("admin", *id1));
    auto txn = mem::makeTxn(TxnType::ReadReq,
                            r2->attachment.hotplugBases.front());
    bool ok = false;
    txn->onComplete = [&](mem::MemTxn &t) { ok = !t.error; };
    dp.issue(txn);
    eq.run();
    EXPECT_TRUE(ok);
}
