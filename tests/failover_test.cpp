/**
 * @file
 * End-to-end link-failure tests: bonded degradation under load,
 * control-plane path repair, regrow after recovery, clean teardown
 * when every channel is lost, transient flap storms riding the
 * hold-down ladder, Gilbert-Elliott burst windows healed by LLC
 * replay, and deadline-bounded error completion on permanent death.
 */

#include <gtest/gtest.h>

#include <functional>

#include "ctrl/control_plane.hh"
#include "sim/fault/fault.hh"
#include "tflow/rig.hh"

using namespace tf;
using namespace tf::ctrl;
using tf::mem::Addr;
using tf::mem::TxnPtr;
using tf::mem::TxnType;

// ---------------------------------------- datapath-level bonding

namespace {

constexpr Addr kWindowBase = ocapi::kM1WindowBase;
constexpr Addr kDonorBase = flow::Rig::kDonorBase;

/**
 * A four-channel datapath driven closed-loop. Channel bandwidth is
 * scaled down so the network -- not the donor's C1 link -- is the
 * bottleneck; otherwise losing one of four channels would be
 * invisible in the aggregate throughput.
 */
struct BondedFailoverFixture : ::testing::Test
{
    sim::EventQueue eq;
    sim::Rng rng{7};
    flow::Rig rig{"dp", eq, bondedParams(), rng};
    flow::Datapath *dp = &rig.dp;

    static flow::FlowParams
    bondedParams()
    {
        flow::FlowParams params;
        params.channels = 4;
        params.channelBps = 3.125e9; // stress-scaled (see above)
        params.hostLinkBps = 100e9;
        params.maxTags = 512;
        params.maxReplayRounds = 4;
        params.ackTimeout = sim::microseconds(2);
        return params;
    }

    void
    SetUp() override
    {
        dp->attach(0, kDonorBase, 1, {0, 1, 2, 3}); // bonded x4
    }

    /**
     * Issue @p total reads closed-loop with @p window in flight;
     * every completion must be error-free. Returns the phase
     * duration in ticks.
     */
    sim::Tick
    runPhase(int total, int window)
    {
        sim::Tick start = eq.now();
        int issued = 0;
        int done = 0;
        std::function<void()> pump = [&]() {
            while (issued < total && issued - done < window) {
                Addr addr = kWindowBase +
                            static_cast<Addr>(issued % 1024) * 128;
                auto txn = mem::makeTxn(TxnType::ReadReq, addr);
                txn->onComplete = [&](mem::MemTxn &t) {
                    EXPECT_FALSE(t.error);
                    ++done;
                    pump();
                };
                ++issued;
                dp->issue(std::move(txn));
            }
        };
        pump();
        eq.run();
        EXPECT_EQ(done, total);
        return eq.now() - start;
    }
};

} // namespace

TEST_F(BondedFailoverFixture, FourChannelBondedDegradesGracefully)
{
    constexpr int kReads = 4000;
    constexpr int kWindow = 256;

    sim::Tick healthy = runPhase(kReads, kWindow);

    // Kill one channel, then push traffic until the LLC's missing-ack
    // escalation detects it and the backlog is salvaged.
    dp->failChannel(0);
    runPhase(500, kWindow);
    ASSERT_TRUE(dp->channelDown(0));
    EXPECT_EQ(dp->linkDownEvents(), 1u);
    EXPECT_GT(dp->reroutedRequests() + dp->reroutedResponses(), 0u);

    sim::Tick degraded = runPhase(kReads, kWindow);

    // 3 of 4 channels left: ~3/4 the bandwidth, not a collapse.
    double ratio = static_cast<double>(healthy) /
                   static_cast<double>(degraded);
    EXPECT_GT(ratio, 0.6) << "lost more than the failed channel";
    EXPECT_LT(ratio, 0.9) << "failure made no bandwidth difference";

    EXPECT_GT(dp->routing().degradedTxns(), 0u);
    EXPECT_EQ(dp->routing().unroutableDropped(), 0u);
    EXPECT_EQ(dp->compute().outstanding(), 0u);
}

TEST_F(BondedFailoverFixture, LateTrafficOnADeadTxIsSalvaged)
{
    // A donor DRAM stall outlasts channel 0's link-down escalation,
    // so responses to requests that arrived on channel 0 finish
    // mastering after the channel died: each lands on the dead
    // donor-side Tx and is resent on the first survivor.
    rig.dram.stall(sim::microseconds(40));
    int ok = 0;
    auto read = [&](Addr addr) {
        auto txn = mem::makeTxn(TxnType::ReadReq, addr);
        txn->onComplete = [&ok](mem::MemTxn &t) { ok += !t.error; };
        dp->issue(std::move(txn));
    };
    for (int i = 0; i < 32; ++i)
        read(kWindowBase + static_cast<Addr>(i) * 128);
    eq.schedule(sim::microseconds(2), [this]() { dp->failChannel(0); });
    // Traffic after the failure loses its acks: that is what
    // escalates channel 0 to down while the donor is still stalled.
    eq.schedule(sim::microseconds(3), [&]() {
        for (int i = 32; i < 64; ++i)
            read(kWindowBase + static_cast<Addr>(i) * 128);
    });
    // A request handed to the dead compute-side Tx re-enters routing
    // and leaves on a survivor; its response is a stray the endpoint
    // suppresses, since it holds no tag.
    std::uint64_t reroutedBefore = 0;
    std::uint64_t dupsBefore = 0;
    eq.schedule(sim::microseconds(30), [&]() {
        ASSERT_TRUE(dp->channelDown(0));
        reroutedBefore = dp->reroutedRequests();
        dupsBefore = dp->compute().duplicateResponses();
        auto stray = mem::makeTxn(TxnType::ReadReq, kDonorBase);
        stray->networkId = 1;
        dp->channel(0).txA().enqueue(std::move(stray));
    });
    eq.run();

    EXPECT_EQ(ok, 64);
    EXPECT_EQ(dp->linkDownEvents(), 1u);
    EXPECT_GT(dp->channel(0).txB().deadLetters(), 0u);
    EXPECT_GT(dp->reroutedResponses(), 0u);
    EXPECT_EQ(dp->droppedResponses(), 0u);
    EXPECT_EQ(dp->channel(0).txA().deadLetters(), 1u);
    EXPECT_EQ(dp->reroutedRequests(), reroutedBefore + 1);
    EXPECT_EQ(dp->compute().duplicateResponses(), dupsBefore + 1);
    EXPECT_EQ(dp->compute().outstanding(), 0u);
}

TEST_F(BondedFailoverFixture, RecoveryRestoresFullBandwidth)
{
    constexpr int kReads = 4000;
    constexpr int kWindow = 256;

    sim::Tick healthy = runPhase(kReads, kWindow);

    dp->failChannel(0);
    runPhase(500, kWindow);
    ASSERT_TRUE(dp->channelDown(0));

    dp->recoverChannel(0);
    ASSERT_FALSE(dp->channelDown(0));
    sim::Tick recovered = runPhase(kReads, kWindow);

    double ratio = static_cast<double>(healthy) /
                   static_cast<double>(recovered);
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
    EXPECT_EQ(dp->compute().outstanding(), 0u);
}

TEST_F(BondedFailoverFixture, BurstLossWindowHealedByReplay)
{
    constexpr int kReads = 4000;
    constexpr int kWindow = 256;

    sim::fault::Registry reg;
    dp->registerFaultPoints(reg, "dp");
    ASSERT_TRUE(reg.has("dp.ch1.wire"));
    sim::fault::Engine engine(eq, reg);

    // Correlated loss: ~2.5-frame bursts, 40% frame-error rate while
    // bad. The window (6 us) is shorter than the missing-ack
    // escalation (4 rounds x 2 us), so the LLC must absorb every
    // corrupted frame with go-back-N replay -- no link-down, no
    // error surfaces to the application.
    sim::fault::GilbertElliott ge;
    ge.pGoodBad = 0.05;
    ge.pBadGood = 0.4;
    ge.errBad = 0.4;
    sim::fault::Plan plan;
    plan.burst(sim::microseconds(2), "dp.ch1.wire",
               sim::microseconds(6), ge);
    engine.arm(plan);

    runPhase(kReads, kWindow); // every completion must be error-free

    EXPECT_EQ(engine.fired(), 1u);
    auto &ch = dp->channel(1);
    EXPECT_EQ(ch.wireAB().burstWindows(), 1u);
    EXPECT_EQ(ch.wireBA().burstWindows(), 1u);
    EXPECT_GT(ch.wireAB().framesCorrupted() +
                  ch.wireBA().framesCorrupted(),
              0u)
        << "burst window corrupted no frames";
    EXPECT_GT(ch.txA().replayedFrames() + ch.txB().replayedFrames(),
              0u);
    EXPECT_FALSE(dp->channelDown(1));
    EXPECT_EQ(dp->routing().unroutableDropped(), 0u);
    EXPECT_EQ(dp->compute().outstanding(), 0u);
}

TEST_F(BondedFailoverFixture, RecoveredChannelDoesNotResumeMidBurst)
{
    constexpr int kWindow = 256;

    // A total-loss burst window far outliving the escalation
    // threshold: every frame on channel 0's forward wire corrupts, so
    // replay makes no ack progress and the Tx declares link-down.
    sim::fault::GilbertElliott ge;
    ge.pGoodBad = 1.0;
    ge.pBadGood = 0.0;
    ge.errBad = 1.0;
    auto &wire = dp->channel(0).wireAB();
    wire.startBurst(ge, sim::seconds(1));

    runPhase(1000, kWindow);
    ASSERT_TRUE(dp->channelDown(0));
    EXPECT_EQ(dp->linkDownEvents(), 1u);
    EXPECT_TRUE(wire.burstActive()) << "outage outlived by the window";

    // Repair must cancel the burst residue: a recovered channel that
    // resumed mid-burst would corrupt every frame again and flap
    // straight back down.
    dp->recoverChannel(0);
    EXPECT_FALSE(wire.burstActive());

    runPhase(2000, kWindow);
    EXPECT_FALSE(dp->channelDown(0));
    EXPECT_EQ(dp->linkDownEvents(), 1u) << "healed channel re-flapped";
    EXPECT_EQ(dp->compute().outstanding(), 0u);
}

// ------------------------- channel-repair escalation-residue audit

TEST(LlcRecoverRegression, FlapLeavesNoEscalationResidue)
{
    // A flap accrues consecutive ack-timeout rounds one short of
    // escalation; after repair, the very next (benign) timeout must
    // replay and heal -- not inherit the dead wire's rounds and
    // declare a healthy link down.
    sim::EventQueue eq;
    sim::Rng rng{3};
    flow::FlowParams p;
    p.ackTimeout = sim::microseconds(2);
    p.maxReplayRounds = 4;
    flow::LlcChannel ch("ch", eq, p, rng);
    int delivered = 0;
    ch.rxB().connectSink([&](TxnPtr) { ++delivered; });
    ch.rxA().connectSink([](TxnPtr) {});

    ch.fail();
    ch.txA().enqueue(mem::makeTxn(TxnType::WriteReq, 0));
    // Three timeout rounds fire at 2/4/6 us against the dead wire.
    eq.run(sim::microseconds(7));
    EXPECT_EQ(ch.txA().consecTimeouts(), 3u);
    ASSERT_FALSE(ch.txA().linkDown());

    ch.recover(); // flap repair: no link-down, so no retrain
    EXPECT_EQ(ch.txA().consecTimeouts(), 0u);

    // The next timeout replays over the healed wire and delivers.
    eq.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_FALSE(ch.txA().linkDown());
    EXPECT_EQ(ch.txA().linkDownsDeclared(), 0u);
    EXPECT_EQ(ch.txA().consecTimeouts(), 0u);
}

// ------------------------------------- control-plane orchestration

namespace {

constexpr std::uint64_t kSection = 1 << 22; // 4 MiB
constexpr std::uint64_t kPage = 64 * 1024;
constexpr std::uint64_t kCpWindowSize = 1ULL << 28;
const std::string kAgentToken = "agent-secret";
const std::string kAdmin = "admin-tok";

/**
 * Two hosts under a control plane, with fast LLC failure detection
 * so the repair ladder runs inside short test horizons.
 */
struct RepairFixture : ::testing::Test
{
    sim::EventQueue eq;
    sim::Rng rng{11};

    os::NumaTopology topoA, topoB;
    std::unique_ptr<os::MemoryManager> mmA, mmB;
    os::NodeId localA{}, tflowNode{}, localB{};
    ocapi::PasidRegistry pasidsA, pasidsB;
    std::unique_ptr<agent::Agent> agentA, agentB;
    mem::BackingStore storeB;
    std::unique_ptr<mem::Dram> dramB;
    flow::FlowParams params;
    std::unique_ptr<flow::Datapath> dp;
    std::unique_ptr<ControlPlane> cp;

    int completions = 0;
    int errors = 0;

    void
    SetUp() override
    {
        params.maxReplayRounds = 3;
        params.ackTimeout = sim::microseconds(2);

        localA = topoA.addNode("a.local", true);
        tflowNode = topoA.addNode("a.tflow0", false);
        topoA.setDistance(localA, tflowNode, 80);
        mmA = std::make_unique<os::MemoryManager>(topoA, kSection,
                                                  kPage);
        ASSERT_TRUE(mmA->onlineSection(localA, 0));
        agentA = std::make_unique<agent::Agent>("agentA", *mmA,
                                                pasidsA, kAgentToken);

        localB = topoB.addNode("b.local", true);
        mmB = std::make_unique<os::MemoryManager>(topoB, kSection,
                                                  kPage);
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(mmB->onlineSection(
                localB, static_cast<Addr>(i) * kSection));
        agentB = std::make_unique<agent::Agent>("agentB", *mmB,
                                                pasidsB, kAgentToken);
        dramB = std::make_unique<mem::Dram>("dramB", eq,
                                            mem::DramParams{},
                                            &storeB);
        dp = std::make_unique<flow::Datapath>(
            "dp", eq, params,
            ocapi::M1Window{kWindowBase, kCpWindowSize}, pasidsB,
            *dramB, rng, kSection);

        cp = std::make_unique<ControlPlane>(eq, kAgentToken);
        cp->addUser(kAdmin, Role::Admin);
        cp->registerHost("hostA", *agentA, *mmA);
        cp->registerHost("hostB", *agentB, *mmB);
        cp->registerDatapath("hostA", "hostB", *dp);
    }

    /** Schedule @p n reads into the allocation, one every @p gap. */
    void
    scheduleReads(const agent::Attachment &att, int n, sim::Tick gap)
    {
        Addr base = kWindowBase +
                    static_cast<Addr>(att.sectionIndices.front()) *
                        kSection;
        for (int i = 0; i < n; ++i) {
            eq.schedule(eq.now() + static_cast<sim::Tick>(i + 1) * gap,
                        [this, base, i]() {
                            auto txn = mem::makeTxn(
                                TxnType::ReadReq,
                                base + static_cast<Addr>(i % 512) *
                                           128);
                            txn->onComplete = [this](mem::MemTxn &t) {
                                ++completions;
                                if (t.error)
                                    ++errors;
                            };
                            dp->issue(std::move(txn));
                        });
        }
    }
};

} // namespace

TEST_F(RepairFixture, RepairFindsReplacementChannel)
{
    auto id = cp->allocate(kAdmin, "hostA", "hostB", kSection,
                           tflowNode, 1, localB);
    ASSERT_TRUE(id.has_value());
    const AllocationRecord *rec = cp->allocation(*id);
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(rec->channels.size(), 1u);
    int victim = rec->channels.front();

    // Reads span the failure; the victim channel dies mid-stream.
    scheduleReads(rec->attachment, 200, sim::nanoseconds(100));
    eq.schedule(sim::microseconds(4),
                [this, victim]() {
                    dp->failChannel(static_cast<std::size_t>(victim));
                });
    eq.run();

    // The control plane moved the flow to the spare channel before
    // the backlog was salvaged: nothing is lost, nothing errors.
    EXPECT_EQ(cp->repairs(), 1u);
    EXPECT_EQ(cp->teardowns(), 0u);
    EXPECT_EQ(completions, 200);
    EXPECT_EQ(errors, 0);
    EXPECT_EQ(dp->compute().outstanding(), 0u);

    rec = cp->allocation(*id);
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(rec->channels.size(), 1u);
    EXPECT_NE(rec->channels.front(), victim);

    // Post-repair traffic keeps flowing cleanly.
    scheduleReads(rec->attachment, 50, sim::nanoseconds(100));
    eq.run();
    EXPECT_EQ(completions, 250);
    EXPECT_EQ(errors, 0);
}

TEST_F(RepairFixture, RecoveryGrowsBondedFlowBack)
{
    auto id = cp->allocate(kAdmin, "hostA", "hostB", kSection,
                           tflowNode, 2, localB);
    ASSERT_TRUE(id.has_value());
    const AllocationRecord *rec = cp->allocation(*id);
    ASSERT_EQ(rec->channels.size(), 2u);

    // With both fabric channels reserved there is no spare path, so
    // losing one degrades the allocation instead of repairing it.
    scheduleReads(rec->attachment, 200, sim::nanoseconds(100));
    eq.schedule(sim::microseconds(4),
                [this]() { dp->failChannel(0); });
    eq.run();

    EXPECT_EQ(cp->degrades(), 1u);
    EXPECT_EQ(cp->repairs(), 0u);
    EXPECT_EQ(completions, 200);
    EXPECT_EQ(errors, 0);
    rec = cp->allocation(*id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->channels.size(), 1u);

    // The channel comes back: after its hold-down the control plane
    // regrows the bond.
    dp->recoverChannel(0);
    EXPECT_EQ(cp->holdDowns(), 1u);
    EXPECT_EQ(cp->regrows(), 0u);
    eq.run();
    EXPECT_EQ(cp->regrows(), 1u);
    rec = cp->allocation(*id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->channels.size(), 2u);

    scheduleReads(rec->attachment, 50, sim::nanoseconds(100));
    eq.run();
    EXPECT_EQ(completions, 250);
    EXPECT_EQ(errors, 0);
    EXPECT_EQ(dp->compute().outstanding(), 0u);
}

TEST_F(RepairFixture, FlapStormRegrowsOncePerFlapUnderHoldDown)
{
    auto id = cp->allocate(kAdmin, "hostA", "hostB", kSection,
                           tflowNode, 2, localB);
    ASSERT_TRUE(id.has_value());
    const AllocationRecord *rec = cp->allocation(*id);
    ASSERT_EQ(rec->channels.size(), 2u);

    // 120 us of continuous reads spanning three transient flaps; each
    // flap outlives the escalation threshold (3 rounds x 2 us), so
    // every one walks the full ladder: link down -> degrade ->
    // self-return -> hold-down -> readmit -> regrow.
    scheduleReads(rec->attachment, 1200, sim::nanoseconds(100));
    for (int i = 0; i < 3; ++i) {
        eq.schedule(sim::microseconds(8 + 30 * i), [this]() {
            dp->flapChannel(0, sim::microseconds(10));
        });
    }
    eq.run();

    // The self-returning channel must count exactly one regrow per
    // flap -- the flap's own recovery and the hold-down readmit are
    // the same event, not two.
    EXPECT_EQ(dp->channelFlaps(), 3u);
    EXPECT_EQ(cp->degrades(), 3u);
    EXPECT_EQ(cp->holdDowns(), 3u);
    EXPECT_EQ(cp->regrows(), 3u);
    EXPECT_EQ(cp->teardowns(), 0u);
    rec = cp->allocation(*id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->channels.size(), 2u);
    EXPECT_EQ(completions, 1200);
    EXPECT_EQ(errors, 0);
    EXPECT_EQ(dp->compute().outstanding(), 0u);
}

TEST_F(RepairFixture, TotalChannelLossTearsDownCleanly)
{
    std::uint64_t donorFree = mmB->freePages(localB);
    auto id = cp->allocate(kAdmin, "hostA", "hostB", kSection,
                           tflowNode, 2, localB);
    ASSERT_TRUE(id.has_value());
    const AllocationRecord *rec = cp->allocation(*id);
    ASSERT_NE(rec, nullptr);
    // The record dies with the teardown; keep what we need to check.
    agent::Attachment att = rec->attachment;
    ASSERT_FALSE(att.hotplugBases.empty());

    // Reads span the double failure so both LLCs have in-flight
    // frames to time out on (detection is passive: no traffic, no
    // missing acks).
    scheduleReads(att, 200, sim::nanoseconds(100));
    eq.schedule(sim::microseconds(4), [this]() {
        dp->failChannel(0);
        dp->failChannel(1);
    });
    eq.run();

    // Degrade on the first loss, teardown on the second.
    EXPECT_EQ(cp->teardowns(), 1u);
    EXPECT_EQ(cp->allocationCount(), 0u);
    EXPECT_EQ(cp->allocation(*id), nullptr);

    // Every issued read completed exactly once; the ones the flow
    // could no longer serve completed with an error.
    EXPECT_EQ(completions, 200);
    EXPECT_GT(errors, 0);
    EXPECT_LT(errors, 200);
    EXPECT_EQ(dp->compute().outstanding(), 0u);

    // The disaggregated sections were surprise-removed on the
    // compute host and the donor got its pages back.
    for (Addr base : att.hotplugBases)
        EXPECT_FALSE(mmA->isOnline(base));
    EXPECT_EQ(mmA->totalPages(tflowNode), 0u);
    EXPECT_EQ(mmB->freePages(localB), donorFree);

    EXPECT_EQ(dp->linkDownEvents(), 2u);
    EXPECT_GT(agentA->linkEventsObserved(), 0u);
    EXPECT_GT(agentA->routeRepairs(), 0u); // the degrade push
}

// ------------------------ deadline-bounded completion, no hang

TEST(DeadlineFailover, PermanentDeathErrorCompletesEveryRequest)
{
    // No control plane: nothing tears the flow down when both
    // channels die, so without a request deadline the backlog would
    // simply never complete. The deadline sweeper must error-complete
    // every stuck request (TxnStatus::TimedOut) in bounded time.
    sim::EventQueue eq;
    sim::Rng rng{5};
    flow::FlowParams p;
    p.channels = 2;
    p.maxReplayRounds = 3;
    p.ackTimeout = sim::microseconds(2);
    p.requestDeadline = sim::microseconds(40);
    flow::Rig rig("dp", eq, p, rng);
    flow::Datapath &dp = rig.dp;
    dp.attach(0, kDonorBase, 1, {0, 1});

    int done = 0;
    int failed = 0;
    int timedOut = 0;
    for (int i = 0; i < 200; ++i) {
        eq.schedule(static_cast<sim::Tick>(i + 1) *
                        sim::nanoseconds(100),
                    [&, i]() {
                        auto txn = mem::makeTxn(
                            TxnType::ReadReq,
                            kWindowBase +
                                static_cast<Addr>(i % 512) * 128);
                        txn->onComplete = [&](mem::MemTxn &t) {
                            ++done;
                            if (t.error)
                                ++failed;
                            if (t.status == mem::TxnStatus::TimedOut)
                                ++timedOut;
                        };
                        dp.issue(std::move(txn));
                    });
    }
    eq.schedule(sim::microseconds(5), [&]() {
        dp.failChannel(0);
        dp.failChannel(1);
    });
    eq.run(); // terminates only because the sweeper drains the backlog

    EXPECT_EQ(done, 200);
    EXPECT_GT(failed, 0);
    EXPECT_GT(timedOut, 0);
    EXPECT_GT(dp.compute().deadlineExpired(), 0u);
    EXPECT_EQ(dp.compute().outstanding(), 0u);
    // Worst case per request: 1.5x the deadline past the issue tail.
    EXPECT_LT(eq.now(), sim::microseconds(200));
}

// ---------------------------------- tag table: the duplicate rule

namespace {

/**
 * One un-bonded channel and a single OpenCAPI tag, so every request
 * reuses the tag its predecessor held.
 */
struct TagReuseFixture : ::testing::Test
{
    sim::EventQueue eq;
    sim::Rng rng{11};
    flow::Rig rig{"dp", eq, oneTag(), rng};
    flow::Datapath *dp = &rig.dp;

    static flow::FlowParams
    oneTag()
    {
        flow::FlowParams params;
        params.maxTags = 1;
        return params;
    }

    void SetUp() override { dp->attach(0, kDonorBase, 1, {0}); }
};

} // namespace

TEST_F(TagReuseFixture, DuplicateAfterTagReuseLeavesNewRequestAlone)
{
    int firstDone = 0;
    TxnPtr first = mem::makeTxn(TxnType::ReadReq, kWindowBase);
    first->onComplete = [&](mem::MemTxn &) { ++firstDone; };
    dp->issue(first);
    eq.run();
    ASSERT_EQ(firstDone, 1);

    // The second request takes the only tag...
    int secondDone = 0;
    std::uint64_t dupsWhenSecondDone = 0;
    TxnPtr second = mem::makeTxn(TxnType::ReadReq, kWindowBase + 128);
    second->onComplete = [&](mem::MemTxn &t) {
        ++secondDone;
        dupsWhenSecondDone = dp->compute().duplicateResponses();
        EXPECT_FALSE(t.error);
    };
    dp->issue(second);
    ASSERT_EQ(dp->compute().outstanding(), 1u);

    // ...and the first request's response arrives again, as the
    // salvage of an at-least-once failover re-delivers it. It crosses
    // the host stack long before the second request's round trip.
    dp->compute().onNetworkResponse(first);
    eq.run();

    EXPECT_EQ(dp->compute().duplicateResponses(), 1u);
    EXPECT_EQ(dupsWhenSecondDone, 1u) << "duplicate landed too late";
    EXPECT_EQ(firstDone, 1);
    EXPECT_EQ(secondDone, 1);
    EXPECT_EQ(dp->compute().completed(), 2u);
    EXPECT_EQ(dp->compute().outstanding(), 0u);
}

TEST_F(TagReuseFixture, LateResponseAfterAbortIsADuplicate)
{
    int firstDone = 0;
    bool firstError = false;
    TxnPtr first = mem::makeTxn(TxnType::ReadReq, kWindowBase);
    first->onComplete = [&](mem::MemTxn &t) {
        ++firstDone;
        firstError = t.error;
    };
    dp->issue(first);
    // Past the RMMU (which tags it with the flow), short of the donor.
    eq.run(sim::nanoseconds(400));
    EXPECT_EQ(dp->abortFlow(1), 1u);
    EXPECT_EQ(firstDone, 1);
    EXPECT_TRUE(firstError);

    // A new request reuses the freed tag while the aborted one's
    // response is still in flight ahead of it.
    int secondDone = 0;
    std::uint64_t dupsWhenSecondDone = 0;
    TxnPtr second = mem::makeTxn(TxnType::ReadReq, kWindowBase + 128);
    second->onComplete = [&](mem::MemTxn &t) {
        ++secondDone;
        dupsWhenSecondDone = dp->compute().duplicateResponses();
        EXPECT_FALSE(t.error);
    };
    dp->issue(second);
    eq.run();

    EXPECT_EQ(dp->compute().duplicateResponses(), 1u);
    EXPECT_EQ(dupsWhenSecondDone, 1u) << "late response overtaken";
    EXPECT_EQ(firstDone, 1);
    EXPECT_EQ(secondDone, 1);
    EXPECT_EQ(dp->compute().abortedTxns(), 1u);
    EXPECT_EQ(dp->compute().completed(), 2u);
    EXPECT_EQ(dp->compute().outstanding(), 0u);
}
