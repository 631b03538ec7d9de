/**
 * @file
 * Agent tests: memory-stealing role, compute-side attach/detach, and
 * the full agent-driven integration path (steal -> attach -> hotplug
 * -> allocate -> ld/st over the wire -> detach).
 */

#include <gtest/gtest.h>

#include "agent/agent.hh"
#include "mem/dram.hh"
#include "os/address_space.hh"

using namespace tf;
using namespace tf::agent;
using tf::mem::Addr;
using tf::mem::TxnPtr;
using tf::mem::TxnType;

namespace {

constexpr std::uint64_t kSection = 1 << 22; // 4 MiB
constexpr std::uint64_t kPage = 64 * 1024;
constexpr Addr kWindowBase = ocapi::kM1WindowBase;
constexpr std::uint64_t kWindowSize = 1ULL << 28; // 256 MiB
const std::string kToken = "cp-secret";

/** Two hosts: "compute" (hostA) and "donor" (hostB), one datapath. */
struct AgentFixture : ::testing::Test
{
    sim::EventQueue eq;
    sim::Rng rng{7};

    // Host A (compute side)
    os::NumaTopology topoA;
    std::unique_ptr<os::MemoryManager> mmA;
    os::NodeId localA = os::invalidNode;
    os::NodeId tflowNode = os::invalidNode;
    ocapi::PasidRegistry pasidsA;
    std::unique_ptr<Agent> agentA;

    // Host B (donor side)
    os::NumaTopology topoB;
    std::unique_ptr<os::MemoryManager> mmB;
    os::NodeId localB = os::invalidNode;
    ocapi::PasidRegistry pasidsB;
    std::unique_ptr<Agent> agentB;
    mem::BackingStore storeB;
    std::unique_ptr<mem::Dram> dramB;

    std::unique_ptr<flow::Datapath> dp;

    void
    SetUp() override
    {
        localA = topoA.addNode("a.local", true);
        tflowNode = topoA.addNode("a.tflow0", false);
        topoA.setDistance(localA, tflowNode, 80);
        mmA = std::make_unique<os::MemoryManager>(topoA, kSection,
                                                  kPage);
        for (int i = 0; i < 2; ++i)
            ASSERT_TRUE(mmA->onlineSection(
                localA, static_cast<Addr>(i) * kSection));
        agentA =
            std::make_unique<Agent>("agentA", *mmA, pasidsA, kToken);

        localB = topoB.addNode("b.local", true);
        mmB = std::make_unique<os::MemoryManager>(topoB, kSection,
                                                  kPage);
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(mmB->onlineSection(
                localB, static_cast<Addr>(i) * kSection));
        agentB =
            std::make_unique<Agent>("agentB", *mmB, pasidsB, kToken);
        dramB = std::make_unique<mem::Dram>("dramB", eq,
                                            mem::DramParams{}, &storeB);

        dp = std::make_unique<flow::Datapath>(
            "dp", eq, flow::FlowParams{},
            ocapi::M1Window{kWindowBase, kWindowSize}, pasidsB,
            *dramB, rng, kSection);
    }
};

} // namespace

TEST_F(AgentFixture, StealReturnsWholeSections)
{
    auto donation = agentB->stealMemory(kToken, 6 * 1024 * 1024,
                                        localB);
    ASSERT_TRUE(donation.has_value());
    EXPECT_EQ(donation->chunks.size(), 2u); // rounded up to 2 sections
    EXPECT_EQ(donation->bytes(), 2 * kSection);
    EXPECT_NE(donation->pasid, ocapi::invalidPasid);
    // Pinned regions registered for the C1 master.
    for (const auto &c : donation->chunks)
        EXPECT_TRUE(pasidsB.authorised(donation->pasid, c.base, 128));
    // Donor node lost the pages.
    EXPECT_EQ(mmB->freePages(localB),
              6 * (kSection / kPage));
}

TEST_F(AgentFixture, StealFailsWhenNoFreeSections)
{
    auto big = agentB->stealMemory(kToken, 9 * kSection, localB);
    EXPECT_FALSE(big.has_value());
    // Roll-back: everything still free.
    EXPECT_EQ(mmB->freePages(localB), 8 * (kSection / kPage));
    EXPECT_EQ(pasidsB.regionCount(), 0u);
}

TEST_F(AgentFixture, BadTokenRejected)
{
    EXPECT_FALSE(
        agentB->stealMemory("wrong", kSection, localB).has_value());
    EXPECT_EQ(agentB->rejectedCommands(), 1u);
}

TEST_F(AgentFixture, AttachHotplugsIntoNumaNode)
{
    auto donation = agentB->stealMemory(kToken, 2 * kSection, localB);
    ASSERT_TRUE(donation.has_value());
    auto att = agentA->attachMemory(kToken, *dp, *donation, tflowNode,
                                    {0});
    ASSERT_TRUE(att.has_value());
    EXPECT_EQ(att->sectionIndices.size(), 2u);
    EXPECT_EQ(mmA->totalPages(tflowNode), 2 * (kSection / kPage));
    // Hotplugged physical ranges live inside the M1 window.
    for (Addr base : att->hotplugBases) {
        EXPECT_GE(base, kWindowBase);
        EXPECT_LT(base, kWindowBase + kWindowSize);
    }
}

TEST_F(AgentFixture, EndToEndLoadStoreOverDatapath)
{
    auto donation = agentB->stealMemory(kToken, kSection, localB);
    ASSERT_TRUE(donation.has_value());
    auto att = agentA->attachMemory(kToken, *dp, *donation, tflowNode,
                                    {0, 1});
    ASSERT_TRUE(att.has_value());

    // Allocate a page from the new CPU-less NUMA node and store/load
    // through the full stack.
    os::AddressSpace as(*mmA, localA, os::AllocPolicy::bind({tflowNode}));
    Addr va = as.mmap(kPage);
    auto pa = as.translate(va);
    ASSERT_TRUE(pa.has_value());

    std::vector<std::uint8_t> payload(128, 0xc3);
    auto wr = mem::makeTxn(TxnType::WriteReq, *pa);
    wr->data = payload;
    bool wrote = false;
    wr->onComplete = [&](mem::MemTxn &t) {
        wrote = true;
        EXPECT_FALSE(t.error);
    };
    dp->issue(wr);
    eq.run();
    ASSERT_TRUE(wrote);

    auto rd = mem::makeTxn(TxnType::ReadReq, *pa);
    bool read_ok = false;
    rd->onComplete = [&](mem::MemTxn &t) {
        read_ok = !t.error && t.data == payload;
    };
    dp->issue(rd);
    eq.run();
    EXPECT_TRUE(read_ok);

    // The data physically resides in donor memory.
    Addr donor_ea = donation->chunks[0].base +
                    (*pa - att->hotplugBases[0]);
    std::vector<std::uint8_t> donor_bytes(128);
    storeB.read(donor_ea, donor_bytes.data(), 128);
    EXPECT_EQ(donor_bytes, payload);
}

TEST_F(AgentFixture, DetachBlockedWhilePagesInUse)
{
    auto donation = agentB->stealMemory(kToken, kSection, localB);
    ASSERT_TRUE(donation.has_value());
    auto att = agentA->attachMemory(kToken, *dp, *donation, tflowNode,
                                    {0});
    ASSERT_TRUE(att.has_value());

    auto page = mmA->allocPageOn(tflowNode);
    ASSERT_TRUE(page.has_value());
    EXPECT_FALSE(agentA->detachMemory(kToken, *dp, *att));

    mmA->freePage(*page);
    EXPECT_TRUE(agentA->detachMemory(kToken, *dp, *att));
    EXPECT_TRUE(agentB->releaseDonation(kToken, *donation));
    EXPECT_EQ(mmB->freePages(localB), 8 * (kSection / kPage));
}

TEST_F(AgentFixture, SectionIndicesReusedAfterDetach)
{
    auto d1 = agentB->stealMemory(kToken, kSection, localB);
    ASSERT_TRUE(d1.has_value());
    auto a1 = agentA->attachMemory(kToken, *dp, *d1, tflowNode, {0});
    ASSERT_TRUE(a1.has_value());
    std::size_t idx = a1->sectionIndices[0];
    ASSERT_TRUE(agentA->detachMemory(kToken, *dp, *a1));
    ASSERT_TRUE(agentB->releaseDonation(kToken, *d1));

    auto d2 = agentB->stealMemory(kToken, kSection, localB);
    ASSERT_TRUE(d2.has_value());
    auto a2 = agentA->attachMemory(kToken, *dp, *d2, tflowNode, {0});
    ASSERT_TRUE(a2.has_value());
    EXPECT_EQ(a2->sectionIndices[0], idx);
}
