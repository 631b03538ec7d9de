/**
 * @file
 * LLC protocol tests: framing/padding, credit backpressure, in-order
 * delivery, and go-back-N replay under injected frame loss/corruption.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tflow/llc.hh"

using namespace tf;
using namespace tf::flow;
using tf::mem::TxnPtr;
using tf::mem::TxnType;

namespace {

struct LlcFixture : ::testing::Test
{
    sim::EventQueue eq;
    sim::Rng rng{99};
    FlowParams params;
    std::unique_ptr<LlcChannel> ch;
    std::vector<std::uint64_t> deliveredIds;

    void
    build()
    {
        ch = std::make_unique<LlcChannel>("ch", eq, params, rng);
        ch->rxB().connectSink([this](TxnPtr txn) {
            deliveredIds.push_back(txn->id);
        });
        ch->rxA().connectSink([](TxnPtr) {});
    }

    std::vector<std::uint64_t>
    sendTxns(int n, TxnType type = TxnType::WriteReq)
    {
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < n; ++i) {
            auto txn = mem::makeTxn(type,
                                    static_cast<mem::Addr>(i) * 128);
            ids.push_back(txn->id);
            ch->txA().enqueue(std::move(txn));
        }
        return ids;
    }
};

} // namespace

TEST_F(LlcFixture, DeliversSingleTxn)
{
    // Store-and-forward framing (the paper's fixed-size frames).
    params.cutThrough = false;
    params.frameFlits = 16;
    build();
    auto ids = sendTxns(1);
    eq.run();
    EXPECT_EQ(deliveredIds, ids);
    // One frame sent, padded: 16 flits - 5 used = 11 nops.
    EXPECT_EQ(ch->txA().framesSent(), 1u);
    EXPECT_EQ(ch->txA().padFlitsSent(), 11u);
}

TEST_F(LlcFixture, SameTickBurstPacksOneFrame)
{
    params.cutThrough = false;
    params.frameFlits = 16;
    build();
    // Three write requests (5 flits each) -> 15 flits, one frame.
    auto ids = sendTxns(3);
    eq.run();
    EXPECT_EQ(deliveredIds, ids);
    EXPECT_EQ(ch->txA().framesSent(), 1u);
    EXPECT_EQ(ch->txA().padFlitsSent(), 1u);
}

TEST_F(LlcFixture, ReadRequestsPackDensely)
{
    params.cutThrough = false;
    params.frameFlits = 16;
    build();
    // 16 single-flit read requests fill exactly one frame.
    auto ids = sendTxns(16, TxnType::ReadReq);
    eq.run();
    EXPECT_EQ(deliveredIds, ids);
    EXPECT_EQ(ch->txA().framesSent(), 1u);
    EXPECT_EQ(ch->txA().padFlitsSent(), 0u);
}

TEST_F(LlcFixture, CutThroughNeverPads)
{
    // Cut-through frames carry only occupied flits: no nop padding,
    // and data-bearing transactions coalesce behind the shared
    // header flit (3 writes = 1 header + 3 x 4 data flits).
    build();
    auto ids = sendTxns(3);
    eq.run();
    EXPECT_EQ(deliveredIds, ids);
    EXPECT_EQ(ch->txA().framesSent(), 1u);
    EXPECT_EQ(ch->txA().padFlitsSent(), 0u);
    // Only the 13 occupied flits travel (control is latency-only).
    EXPECT_EQ(ch->wireAB().wireBytes(), 13u * params.flitBytes);
}

TEST_F(LlcFixture, CutThroughBeatsStoreAndForwardLatency)
{
    // One write, identical params except the framing mode:
    // cut-through must deliver strictly earlier (header-time
    // hand-off, no pad flits serialised ahead of the payload).
    auto deliveryTime = [](bool cutThrough) {
        sim::EventQueue eq2;
        sim::Rng rng2{99};
        FlowParams p2;
        p2.cutThrough = cutThrough;
        p2.frameFlits = 16;
        LlcChannel ch2("ch2", eq2, p2, rng2);
        sim::Tick delivered = 0;
        ch2.rxB().connectSink([&](TxnPtr) { delivered = eq2.now(); });
        ch2.rxA().connectSink([](TxnPtr) {});
        ch2.txA().enqueue(mem::makeTxn(TxnType::WriteReq, 0));
        eq2.run();
        return delivered;
    };
    sim::Tick ct = deliveryTime(true);
    sim::Tick sf = deliveryTime(false);
    EXPECT_GT(ct, 0u);
    EXPECT_LT(ct, sf);
}

TEST(LlcTiming, DeliveryTicksFollowTheFlitTimeFormula)
{
    // One frame at a time on an idle wire. The channel rate is odd,
    // so each flit count rounds on its own, and the cut-through
    // counts share memo slots (1, 9 and 17 flits; 5 and 13).
    auto formula = [](const FlowParams &p, std::uint32_t flits) {
        return sim::seconds(static_cast<double>(flits) *
                            static_cast<double>(p.flitBytes) /
                            p.channelBps);
    };
    const std::vector<std::pair<TxnType, std::size_t>> frames{
        {TxnType::WriteReq, 1}, {TxnType::WriteReq, 3},
        {TxnType::ReadReq, 8},  {TxnType::WriteReq, 2},
        {TxnType::ReadReq, 1},  {TxnType::WriteReq, 1},
        {TxnType::ReadReq, 12}, {TxnType::WriteReq, 4}};
    for (bool cutThrough : {false, true}) {
        SCOPED_TRACE(cutThrough ? "cut-through" : "store-and-forward");
        sim::EventQueue eq;
        sim::Rng rng{99};
        FlowParams p;
        p.cutThrough = cutThrough;
        p.frameFlits = 24;
        p.channelBps = 7.3e9;
        LlcChannel ch("ch", eq, p, rng);
        std::vector<sim::Tick> delivered;
        ch.rxB().connectSink([&](TxnPtr) { delivered.push_back(eq.now()); });
        ch.rxA().connectSink([](TxnPtr) {});
        const sim::Tick hop = p.serdesLatency + p.wireLatency;
        for (auto [type, count] : frames) {
            SCOPED_TRACE(std::to_string(count) + " txns");
            delivered.clear();
            std::uint64_t framesBefore = ch.txA().framesSent();
            sim::Tick sent = eq.now();
            std::vector<std::uint32_t> flits;
            for (std::size_t i = 0; i < count; ++i) {
                auto txn = mem::makeTxn(type, i * 128);
                flits.push_back(coalescedFlitCount(*txn));
                ch.txA().enqueue(std::move(txn));
            }
            eq.run();
            ASSERT_EQ(delivered.size(), count);
            EXPECT_EQ(ch.txA().framesSent(), framesBefore + 1);
            std::uint32_t cum = 1; // the cut-through header flit
            for (std::size_t i = 0; i < count; ++i) {
                sim::Tick expect = sent + hop + formula(p, p.frameFlits);
                if (cutThrough) {
                    cum += flits[i];
                    expect = sent + hop + formula(p, 1) +
                             (formula(p, cum) - formula(p, 1));
                }
                EXPECT_EQ(delivered[i], expect) << "txn " << i;
            }
        }
    }
}

TEST_F(LlcFixture, InOrderDeliveryLargeStream)
{
    build();
    auto ids = sendTxns(2000);
    eq.run();
    EXPECT_EQ(deliveredIds, ids);
    EXPECT_EQ(ch->rxB().gapsDetected(), 0u);
}

TEST_F(LlcFixture, CreditsNeverExceedInitial)
{
    build();
    sendTxns(500);
    while (!eq.empty()) {
        eq.runEvents(1);
        EXPECT_LE(ch->txA().credits(), params.rxQueueFrames);
    }
}

TEST_F(LlcFixture, CreditsFullyRestoredAfterDrain)
{
    build();
    sendTxns(300);
    eq.run();
    EXPECT_EQ(ch->txA().credits(), params.rxQueueFrames);
    EXPECT_EQ(ch->txA().replayBufDepth(), 0u); // all acked
}

TEST_F(LlcFixture, TinyCreditWindowStillDelivers)
{
    params.rxQueueFrames = 2;
    build();
    auto ids = sendTxns(400);
    eq.run();
    EXPECT_EQ(deliveredIds, ids);
    EXPECT_GT(ch->txA().creditStalls(), 0u);
}

TEST_F(LlcFixture, BackloggedQueuePacksWithoutPadding)
{
    params.rxQueueFrames = 4; // throttle so the queue backs up
    build();
    sendTxns(160, TxnType::ReadReq); // 10 full frames worth
    eq.run();
    ASSERT_EQ(deliveredIds.size(), 160u);
    // Everything after the first (immediately-sent, padded) frame
    // should pack densely: padding well under one frame's worth.
    EXPECT_LE(ch->txA().padFlitsSent(), 2u * params.frameFlits);
}

TEST_F(LlcFixture, ReplayRecoversFromLoss)
{
    // Store-and-forward keeps strict in-order delivery under loss.
    params.cutThrough = false;
    params.frameFlits = 16;
    params.frameErrorRate = 0.05;
    build();
    auto ids = sendTxns(3000);
    eq.run();
    EXPECT_EQ(deliveredIds, ids);
    EXPECT_GT(ch->txA().replayedFrames(), 0u);
}

TEST_F(LlcFixture, HeavyLossStillInOrder)
{
    params.cutThrough = false;
    params.frameFlits = 16;
    params.frameErrorRate = 0.3;
    params.ackTimeout = sim::microseconds(5);
    build();
    auto ids = sendTxns(1000);
    eq.run();
    EXPECT_EQ(deliveredIds, ids);
    EXPECT_EQ(ch->rxB().duplicates(), 4230u);
}

TEST_F(LlcFixture, CutThroughLossyExactlyOnceAnyOrder)
{
    // Cut-through trades strict ordering for early release: under a
    // gap, intact younger frames complete immediately. Delivery must
    // stay exactly-once — every transaction arrives, none twice —
    // and the early-release path must actually engage.
    params.frameErrorRate = 0.1;
    params.ackTimeout = sim::microseconds(5);
    build();
    auto ids = sendTxns(3000);
    eq.run();
    ASSERT_EQ(deliveredIds.size(), ids.size());
    auto sortedDelivered = deliveredIds;
    auto sortedIds = ids;
    std::sort(sortedDelivered.begin(), sortedDelivered.end());
    std::sort(sortedIds.begin(), sortedIds.end());
    EXPECT_EQ(sortedDelivered, sortedIds);
    EXPECT_GT(ch->rxB().earlyReleases(), 0u);
    EXPECT_GT(ch->txA().replayedFrames(), 0u);
    EXPECT_EQ(ch->rxB().duplicates(), 11u);
}

TEST_F(LlcFixture, BidirectionalTrafficIndependent)
{
    build();
    std::vector<std::uint64_t> reverseIds;
    ch->rxA().connectSink(
        [&](TxnPtr txn) { reverseIds.push_back(txn->id); });
    auto fwd = sendTxns(100);
    std::vector<std::uint64_t> sent_back;
    for (int i = 0; i < 100; ++i) {
        auto txn = mem::makeTxn(TxnType::ReadResp,
                                static_cast<mem::Addr>(i) * 128);
        txn->data.assign(128, 1);
        sent_back.push_back(txn->id);
        ch->txB().enqueue(std::move(txn));
    }
    eq.run();
    EXPECT_EQ(deliveredIds, fwd);
    EXPECT_EQ(reverseIds, sent_back);
}

TEST_F(LlcFixture, WireUtilisationBounded)
{
    build();
    sendTxns(5000);
    eq.run();
    EXPECT_LE(ch->wireAB().utilisation(), 1.0);
    EXPECT_GT(ch->wireAB().utilisation(), 0.1);
}

TEST_F(LlcFixture, PayloadIntegrityThroughChannel)
{
    build();
    std::vector<std::uint8_t> got;
    ch->rxB().connectSink(
        [&](TxnPtr txn) { got = txn->data; });
    auto txn = mem::makeTxn(TxnType::WriteReq, 0x1000);
    txn->data.resize(128);
    for (int i = 0; i < 128; ++i)
        txn->data[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i * 3);
    auto expect = txn->data;
    ch->txA().enqueue(std::move(txn));
    eq.run();
    EXPECT_EQ(got, expect);
}

// ------------------------------------------------------------------
// Property sweep: for any loss rate and credit window, every
// transaction is delivered exactly once and in order.
// ------------------------------------------------------------------

// gtest names these ctest entries after the struct's raw bytes, the
// names that lists of test names kept between builds already hold.
// `pad` fills what would otherwise be padding, whose bytes differ
// from build to build, so every build prints the same names.
struct LlcPropertyParams
{
    double errorRate;
    std::uint32_t credits;
    std::uint32_t pad = 0;
};
static_assert(sizeof(LlcPropertyParams) ==
              sizeof(double) + 2 * sizeof(std::uint32_t));

class LlcProperty : public ::testing::TestWithParam<LlcPropertyParams>
{
};

TEST_P(LlcProperty, ExactlyOnceInOrder)
{
    // Store-and-forward property: exactly once AND in order, for any
    // loss rate and credit window.
    sim::EventQueue eq;
    sim::Rng rng{1234};
    FlowParams params;
    params.cutThrough = false;
    params.frameFlits = 16;
    params.frameErrorRate = GetParam().errorRate;
    params.rxQueueFrames = GetParam().credits;
    params.ackTimeout = sim::microseconds(5);

    LlcChannel ch("ch", eq, params, rng);
    std::vector<std::uint64_t> delivered;
    ch.rxB().connectSink(
        [&](TxnPtr txn) { delivered.push_back(txn->id); });
    ch.rxA().connectSink([](TxnPtr) {});

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 800; ++i) {
        auto txn = mem::makeTxn(i % 3 == 0 ? TxnType::ReadReq
                                           : TxnType::WriteReq,
                                static_cast<mem::Addr>(i) * 128);
        ids.push_back(txn->id);
        ch.txA().enqueue(std::move(txn));
    }
    eq.run();
    EXPECT_EQ(delivered, ids);
}

TEST_P(LlcProperty, CutThroughExactlyOnce)
{
    // Cut-through property: exactly once (any order — gaps release
    // intact younger frames early), for any loss rate and credit
    // window, with zero-loss runs additionally staying in order.
    sim::EventQueue eq;
    sim::Rng rng{1234};
    FlowParams params;
    params.frameErrorRate = GetParam().errorRate;
    params.rxQueueFrames = GetParam().credits;
    params.ackTimeout = sim::microseconds(5);

    LlcChannel ch("ch", eq, params, rng);
    std::vector<std::uint64_t> delivered;
    ch.rxB().connectSink(
        [&](TxnPtr txn) { delivered.push_back(txn->id); });
    ch.rxA().connectSink([](TxnPtr) {});

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 800; ++i) {
        auto txn = mem::makeTxn(i % 3 == 0 ? TxnType::ReadReq
                                           : TxnType::WriteReq,
                                static_cast<mem::Addr>(i) * 128);
        ids.push_back(txn->id);
        ch.txA().enqueue(std::move(txn));
    }
    eq.run();
    if (GetParam().errorRate == 0.0) {
        EXPECT_EQ(delivered, ids);
    } else {
        auto sortedDelivered = delivered;
        auto sortedIds = ids;
        std::sort(sortedDelivered.begin(), sortedDelivered.end());
        std::sort(sortedIds.begin(), sortedIds.end());
        EXPECT_EQ(sortedDelivered, sortedIds);
    }
}

INSTANTIATE_TEST_SUITE_P(
    LossAndCredits, LlcProperty,
    ::testing::Values(LlcPropertyParams{0.0, 64},
                      LlcPropertyParams{0.01, 64},
                      LlcPropertyParams{0.05, 64},
                      LlcPropertyParams{0.15, 64},
                      LlcPropertyParams{0.05, 4},
                      LlcPropertyParams{0.05, 2},
                      LlcPropertyParams{0.15, 2},
                      LlcPropertyParams{0.3, 8}));

// ------------------------------------------------------------------
// Replay-stall regression: a replay that runs out of credits must
// resume when the next credit refund arrives, not wait for the ack
// timeout. The test drives a bare Wire + LlcTx with hand-crafted
// control messages and a bounded run that never reaches the (huge)
// ack timeout, so the old behaviour fails it.
// ------------------------------------------------------------------

TEST(LlcReplayStall, ResumesOnCreditRefundNotTimeout)
{
    sim::EventQueue eq;
    sim::Rng rng{7};
    FlowParams params;
    params.rxQueueFrames = 2;
    params.ackTimeout = sim::seconds(1); // must never be the rescuer

    Wire wire("wire", eq, params, rng);
    LlcTx tx("tx", eq, params, wire);
    std::vector<FramePtr> arrived;
    wire.connect([&](FramePtr f) { arrived.push_back(std::move(f)); },
                 [](ControlMsg) {});

    // Three frames: send two (credits 2 -> 0), queue the third.
    sim::Tick step = sim::microseconds(1);
    for (int i = 0; i < 3; ++i) {
        eq.run(static_cast<sim::Tick>(i + 1) * step);
        tx.enqueue(mem::makeTxn(TxnType::ReadReq,
                                static_cast<mem::Addr>(i) * 128));
    }
    eq.run(4 * step);
    ASSERT_EQ(arrived.size(), 2u);
    ASSERT_EQ(tx.credits(), 0u);

    // One credit frees frame 2; all three now sit unacked.
    ControlMsg credit;
    credit.credits = 1;
    tx.onCtrl(credit);
    eq.run(5 * step);
    ASSERT_EQ(arrived.size(), 3u);
    ASSERT_EQ(tx.replayBufDepth(), 3u);

    // Rx asks for a full replay from 0. Credits only cover frames
    // 0 and 1 (refund caps at the window of 2): the replay stalls
    // before frame 2.
    ControlMsg replay;
    replay.replayRequest = true;
    replay.replayFrom = 0;
    tx.onCtrl(replay);
    eq.run(6 * step);
    std::size_t beforeRefund = arrived.size();
    ASSERT_EQ(beforeRefund, 5u); // 3 originals + replayed 0, 1

    // The next credit must resume the stalled replay immediately.
    tx.onCtrl(credit);
    eq.run(7 * step);

    bool replayedTail = false;
    for (std::size_t i = beforeRefund; i < arrived.size(); ++i)
        if (arrived[i]->seq == 2 && arrived[i]->replayed)
            replayedTail = true;
    EXPECT_TRUE(replayedTail)
        << "stalled replay frame was not resent on credit refund";
}

// ------------------------------------------------------------------
// Hard-failure escalation: a dead channel is detected after
// maxReplayRounds consecutive ack timeouts and raised through the
// health callback exactly once.
// ------------------------------------------------------------------

TEST_F(LlcFixture, DeadChannelEscalatesToLinkDown)
{
    params.maxReplayRounds = 3;
    params.ackTimeout = sim::microseconds(2);
    build();
    int healthCalls = 0;
    ch->txA().connectHealth([&]() { ++healthCalls; });

    sendTxns(50);
    // Kill the channel mid-stream, while frames are still queued.
    eq.schedule(sim::nanoseconds(300), [&]() { ch->fail(); });
    eq.run();

    EXPECT_TRUE(ch->txA().linkDown());
    EXPECT_EQ(healthCalls, 1);
    EXPECT_EQ(ch->txA().linkDownsDeclared(), 1u);
    EXPECT_GE(ch->txA().timeouts(), 3u);
    EXPECT_GT(ch->wireAB().framesLostDown() + ch->wireAB().framesDropped(),
              0u);
    EXPECT_EQ(ch->wireAB().failEvents(), 1u);
    EXPECT_EQ(ch->wireBA().failEvents(), 1u);
    EXPECT_EQ(ch->wireAB().ctrlLostDown(), 0u);
    EXPECT_EQ(ch->wireBA().ctrlLostDown(), 1u);
}

TEST_F(LlcFixture, StarvedCreditsOnDeadLinkStillEscalate)
{
    // Credits dry and the wire dead at once: each timeout's replay
    // still sends (it refunds its frames' credits first), so the
    // timer keeps running and the link is declared down once.
    params.maxReplayRounds = 3;
    params.ackTimeout = sim::microseconds(2);
    build();
    int healthCalls = 0;
    ch->txA().connectHealth([&]() { ++healthCalls; });

    sendTxns(50);
    eq.schedule(sim::nanoseconds(300), [&]() {
        ch->txA().starveCredits(sim::milliseconds(1));
        ch->fail();
    });
    eq.run(sim::microseconds(200));

    EXPECT_TRUE(ch->txA().linkDown());
    EXPECT_EQ(healthCalls, 1);
    EXPECT_EQ(ch->txA().linkDownsDeclared(), 1u);
    EXPECT_EQ(ch->txA().creditStarves(), 1u);
}

TEST_F(LlcFixture, EscalationDisabledReplaysForever)
{
    params.maxReplayRounds = 0; // paper baseline: transient-loss only
    params.ackTimeout = sim::microseconds(2);
    build();
    sendTxns(20);
    eq.schedule(sim::nanoseconds(200), [&]() { ch->fail(); });
    eq.run(sim::milliseconds(1));
    EXPECT_FALSE(ch->txA().linkDown());
    EXPECT_GT(ch->txA().timeouts(), 10u);

    // A flap heals without losing anything: sequence continuity makes
    // the outage look like ordinary loss to the replay protocol.
    ch->recover();
    eq.run();
    ASSERT_EQ(deliveredIds.size(), 20u);
}

TEST_F(LlcFixture, SalvageDrainsTxState)
{
    params.maxReplayRounds = 2;
    params.ackTimeout = sim::microseconds(2);
    params.rxQueueFrames = 4;
    build();
    sendTxns(200);
    eq.run(sim::microseconds(2));
    ch->fail();
    eq.run();
    ASSERT_TRUE(ch->txA().linkDown());

    auto salvaged = ch->txA().takeUndelivered();
    EXPECT_GT(salvaged.size(), 0u);
    EXPECT_EQ(ch->txA().queueDepth(), 0u);
    EXPECT_EQ(ch->txA().replayBufDepth(), 0u);
    for (const auto &txn : salvaged)
        EXPECT_NE(txn, nullptr);
}

// ------------------------------------------------------------------
// Soak sweep (robustness satellite): random seeds x combined drop +
// corrupt + tail loss + mid-stream channel flaps. Escalation is off,
// so sequence continuity must deliver every transaction exactly once
// and in order across the outages, and credits must stay conserved.
// ------------------------------------------------------------------

struct LlcSoakParams
{
    std::uint64_t seed;
    double errorRate;
    std::uint32_t credits;
};

// Names the ctest entries by field, not by the struct's raw bytes,
// whose padding differs from build to build.
void
PrintTo(const LlcSoakParams &p, std::ostream *os)
{
    *os << "seed=" << p.seed << ",errorRate=" << p.errorRate;
    *os << ",credits=" << p.credits;
}

class LlcSoak : public ::testing::TestWithParam<LlcSoakParams>
{
};

TEST_P(LlcSoak, FlapsAndLossExactlyOnceInOrder)
{
    sim::EventQueue eq;
    sim::Rng rng{GetParam().seed};
    FlowParams params;
    // Alternate framing modes across the sweep so the soak covers
    // both: odd seeds run cut-through (exactly-once, any order),
    // even seeds store-and-forward (exactly-once, in order).
    const bool cutThrough = GetParam().seed % 2 == 1;
    params.cutThrough = cutThrough;
    if (!cutThrough)
        params.frameFlits = 16;
    params.frameErrorRate = GetParam().errorRate;
    params.rxQueueFrames = GetParam().credits;
    params.ackTimeout = sim::microseconds(5);
    params.maxReplayRounds = 0; // pure-replay mode: flaps must heal

    LlcChannel ch("ch", eq, params, rng);
    std::vector<std::uint64_t> delivered;
    ch.rxB().connectSink(
        [&](TxnPtr txn) { delivered.push_back(txn->id); });
    ch.rxA().connectSink([](TxnPtr) {});

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 1500; ++i) {
        auto txn = mem::makeTxn(i % 3 == 0 ? TxnType::ReadReq
                                           : TxnType::WriteReq,
                                static_cast<mem::Addr>(i) * 128);
        ids.push_back(txn->id);
        eq.schedule(static_cast<sim::Tick>(i) * sim::nanoseconds(50),
                    [&ch, t = std::move(txn)]() mutable {
                        ch.txA().enqueue(std::move(t));
                    });
    }
    // Two hard flaps in the middle of the stream.
    eq.schedule(sim::microseconds(30), [&]() { ch.fail(); });
    eq.schedule(sim::microseconds(45), [&]() { ch.recover(); });
    eq.schedule(sim::microseconds(60), [&]() { ch.fail(); });
    eq.schedule(sim::microseconds(70), [&]() { ch.recover(); });

    // Credit conservation, sampled while the storm runs.
    for (int us = 10; us <= 90; us += 10) {
        eq.schedule(sim::microseconds(static_cast<std::uint64_t>(us)),
                    [&]() {
                        EXPECT_LE(ch.txA().credits(),
                                  params.rxQueueFrames);
                    });
    }

    eq.run();
    if (cutThrough) {
        auto sortedDelivered = delivered;
        auto sortedIds = ids;
        std::sort(sortedDelivered.begin(), sortedDelivered.end());
        std::sort(sortedIds.begin(), sortedIds.end());
        EXPECT_EQ(sortedDelivered, sortedIds);
    } else {
        EXPECT_EQ(delivered, ids);
    }
    EXPECT_FALSE(ch.txA().linkDown());
    EXPECT_EQ(ch.txA().queueDepth(), 0u);
    EXPECT_EQ(ch.txA().replayBufDepth(), 0u);
    EXPECT_LE(ch.txA().credits(), params.rxQueueFrames);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsLossFlaps, LlcSoak,
    ::testing::Values(LlcSoakParams{1, 0.0, 64},
                      LlcSoakParams{2, 0.05, 64},
                      LlcSoakParams{3, 0.15, 64},
                      LlcSoakParams{4, 0.05, 8},
                      LlcSoakParams{5, 0.15, 4},
                      LlcSoakParams{6, 0.3, 16},
                      LlcSoakParams{7, 0.05, 2},
                      LlcSoakParams{8, 0.2, 32}));

// ------------------------------------------------------------------
// Event-kernel interaction: sustained ack traffic (with flaps, so
// timers both re-arm and genuinely cancel) must not inflate the
// kernel's physical heap. This soaked unbounded on the pre-rewrite
// kernel, which kept one dead heap entry per deschedule until its
// original deadline tick was reached.
// ------------------------------------------------------------------

TEST_F(LlcFixture, AckChurnKeepsKernelHeapBounded)
{
    params.frameErrorRate = 0.05;
    params.ackTimeout = sim::microseconds(5);
    build();
    for (int i = 0; i < 4000; ++i) {
        auto txn = mem::makeTxn(TxnType::WriteReq,
                                static_cast<mem::Addr>(i) * 128);
        eq.schedule(static_cast<sim::Tick>(i) * sim::nanoseconds(50),
                    [this, t = std::move(txn)]() mutable {
                        ch->txA().enqueue(std::move(t));
                    });
    }
    // Mid-stream flap: failover deschedules the armed ack timer for
    // real (disarm), then recovery re-arms it.
    eq.schedule(sim::microseconds(60), [&]() { ch->fail(); });
    eq.schedule(sim::microseconds(80), [&]() { ch->recover(); });

    std::size_t worstHeap = 0;
    while (!eq.empty()) {
        eq.runEvents(64);
        worstHeap = std::max(worstHeap, eq.heapSize());
        ASSERT_LE(eq.heapSize(),
                  2 * eq.pending() + sim::EventQueue::kCompactMinDead);
    }
    EXPECT_EQ(deliveredIds.size(), 4000u);
    // The whole soak must fit far below one ack-timeout's worth of
    // per-ack timer garbage (the old kernel's steady-state, ~tens of
    // thousands). Cut-through adds up to one live release event per
    // in-flight transaction, so the bound sits above 4000 but well
    // under the garbage regime.
    EXPECT_LT(worstHeap, 6000u);
    // The flap also swallows the acks and credits already on the
    // reverse wire.
    EXPECT_EQ(ch->wireBA().ctrlLostDown(), 8u);
}

// ------------------------------------------------------------------
// Pool: frames and transactions share one counted handle over a
// per-thread freelist (sim/pool.hh).
// ------------------------------------------------------------------

namespace {

/**
 * Hold every object on this thread's freelist for Ptr, so the next
 * release is the next object acquire() hands out.
 */
template <typename Ptr>
std::vector<Ptr>
drainFreelist()
{
    std::vector<Ptr> held;
    while (Ptr::freeCount() > 0)
        held.push_back(Ptr::acquire());
    return held;
}

/**
 * Release a burst of maxFree + extra objects: the freelist keeps
 * maxFree and frees the rest, and taking the burst again costs
 * exactly the extra objects from the heap.
 */
template <typename Ptr>
void
expectCapFreesTheExcess()
{
    constexpr std::size_t extra = 8;
    auto held = drainFreelist<Ptr>();
    std::uint64_t misses = Ptr::heapAllocations();
    std::vector<Ptr> burst;
    for (std::size_t i = 0; i < Ptr::maxFree + extra; ++i)
        burst.push_back(Ptr::acquire());
    EXPECT_EQ(Ptr::heapAllocations(), misses + Ptr::maxFree + extra);
    burst.clear();
    EXPECT_EQ(Ptr::freeCount(), Ptr::maxFree);
    for (std::size_t i = 0; i < Ptr::maxFree + extra; ++i)
        burst.push_back(Ptr::acquire());
    EXPECT_EQ(Ptr::freeCount(), 0u);
    EXPECT_EQ(Ptr::heapAllocations(), misses + Ptr::maxFree + 2 * extra);
}

} // namespace

TEST(Pool, RecycledFrameComesBackInDefaultState)
{
    auto held = drainFreelist<FramePtr>();
    Frame *raw = nullptr;
    std::size_t capacity = 0;
    {
        FramePtr f = FramePtr::acquire();
        raw = f.get();
        f->seq = 7;
        f->usedFlits = 3;
        f->padFlits = 13;
        f->corrupted = true;
        f->replayed = true;
        f->txns.push_back(mem::makeTxn(TxnType::ReadReq, 0));
        f->txns.push_back(mem::makeTxn(TxnType::ReadReq, 128));
        capacity = f->txns.capacity();
    }
    ASSERT_EQ(FramePtr::freeCount(), 1u);
    FramePtr g = FramePtr::acquire();
    EXPECT_EQ(g.get(), raw); // recycled object, not a fresh allocation
    EXPECT_EQ(FramePtr::freeCount(), 0u);
    EXPECT_EQ(g.useCount(), 1u);
    EXPECT_EQ(g->seq, 0u);
    EXPECT_TRUE(g->txns.empty());
    EXPECT_EQ(g->txns.capacity(), capacity); // kept for the next frame
    EXPECT_EQ(g->usedFlits, 0u);
    EXPECT_EQ(g->padFlits, 0u);
    EXPECT_FALSE(g->corrupted);
    EXPECT_FALSE(g->replayed);
}

TEST(Pool, FramePayloadDiesWithTheLastHandle)
{
    auto txn = mem::makeTxn(TxnType::WriteReq, 0);
    // The completion's capture dies exactly when the transaction does.
    auto capture = std::make_shared<int>(0);
    std::weak_ptr<int> weak = capture;
    txn->onComplete = [capture = std::move(capture)](mem::MemTxn &) {};
    FramePtr f = FramePtr::acquire();
    f->txns.push_back(std::move(txn));
    FramePtr g = f;
    f.reset();
    EXPECT_FALSE(weak.expired());
    g.reset();
    // The frame may sit on the freelist, but its payload is gone.
    EXPECT_TRUE(weak.expired());
}

TEST(Pool, ReplayCopyLeavesHandleCountsAlone)
{
    FramePtr frame = FramePtr::acquire();
    FramePtr replayBuf = frame;
    frame->seq = 3;
    frame->txns.push_back(mem::makeTxn(TxnType::ReadReq, 0));
    // LlcTx::transmit's replay: a fresh frame takes the fields.
    FramePtr copy = FramePtr::acquire();
    *copy = *frame;
    EXPECT_EQ(frame.useCount(), 2u);
    EXPECT_EQ(copy.useCount(), 1u);
    EXPECT_EQ(copy->seq, 3u);
    ASSERT_EQ(copy->txns.size(), 1u);
    EXPECT_EQ(copy->txns[0], frame->txns[0]); // shared, not cloned
    EXPECT_EQ(frame->txns[0].useCount(), 2u);
    copy.reset();
    EXPECT_EQ(frame.useCount(), 2u);
    EXPECT_EQ(frame->txns[0].useCount(), 1u);
    replayBuf.reset();
    EXPECT_EQ(frame.useCount(), 1u);
}

TEST(Pool, FrameQueuedWhenItsChannelDiesIsReleased)
{
    auto held = drainFreelist<FramePtr>();
    auto eq = std::make_unique<sim::EventQueue>();
    sim::Rng rng{3};
    FlowParams params;
    auto capture = std::make_shared<int>(0);
    std::weak_ptr<int> weak = capture;
    {
        LlcChannel ch("ch", *eq, params, rng);
        ch.rxA().connectSink([](TxnPtr) {});
        ch.rxB().connectSink([](TxnPtr) {});
        auto txn = mem::makeTxn(TxnType::ReadReq, 0);
        txn->onComplete = [capture = std::move(capture)](mem::MemTxn &) {};
        ch.txA().enqueue(std::move(txn));
        eq->run(sim::nanoseconds(1));
        ASSERT_EQ(ch.txA().framesSent(), 1u);
        ASSERT_EQ(ch.rxB().framesDelivered(), 0u);
    }
    // Only the wire's delivery event still holds the frame, and its
    // channel is gone; dropping the event releases it to the freelist.
    EXPECT_FALSE(weak.expired());
    EXPECT_EQ(FramePtr::freeCount(), 0u);
    eq.reset();
    EXPECT_TRUE(weak.expired());
    EXPECT_EQ(FramePtr::freeCount(), 1u);
}

TEST(Pool, ReleasesBeyondTheCapAreFreedAndCounted)
{
    expectCapFreesTheExcess<FramePtr>();
    expectCapFreesTheExcess<TxnPtr>();
}

TEST(Pool, EachThreadKeepsItsOwnFreelist)
{
    FramePtr::acquire().reset();
    ASSERT_GT(FramePtr::freeCount(), 0u);
    std::size_t freeHere = FramePtr::freeCount();
    std::uint64_t missesHere = FramePtr::heapAllocations();
    std::size_t freeThere = 1;
    std::uint64_t missesThere = 0;
    std::thread([&] {
        freeThere = FramePtr::freeCount();
        FramePtr::acquire().reset();
        missesThere = FramePtr::heapAllocations();
    }).join();
    EXPECT_EQ(freeThere, 0u);
    EXPECT_EQ(missesThere, 1u);
    EXPECT_EQ(FramePtr::freeCount(), freeHere);
    EXPECT_EQ(FramePtr::heapAllocations(), missesHere);
}
