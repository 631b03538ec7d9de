/**
 * @file
 * Unit tests for the windowed LP engine: window protocol, cross-LP
 * channels, teardown with in-flight traffic, and the partitioned
 * fabric and rack-cluster integrations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/switch.hh"
#include "sim/parallel/engine.hh"
#include "system/rack.hh"

using namespace tf;
using sim::Tick;
using sim::par::LinkChannel;
using sim::par::LogicalProcess;
using sim::par::ParallelEngine;

TEST(ParallelEngine, SingleLpMatchesPlainQueue)
{
    // With one LP and no channels the engine must behave exactly like
    // running the queue directly.
    sim::EventQueue ref;
    ParallelEngine engine;
    LogicalProcess &lp = engine.addLp("only");

    std::vector<Tick> refOrder, lpOrder;
    for (Tick t : {300u, 100u, 200u, 100u}) {
        ref.schedule(t, [&refOrder, &ref] {
            refOrder.push_back(ref.now());
        });
        lp.queue().schedule(t, [&lpOrder, &lp] {
            lpOrder.push_back(lp.queue().now());
        });
    }
    std::uint64_t refRan = ref.run();
    std::uint64_t lpRan = engine.run();

    EXPECT_EQ(refRan, lpRan);
    EXPECT_EQ(refOrder, lpOrder);
    EXPECT_EQ(ref.now(), lp.queue().now());
    EXPECT_EQ(engine.windows(), 1u);
    EXPECT_EQ(engine.merged(), 0u);
}

TEST(ParallelEngine, IndependentLpsDrainInOneWindow)
{
    // No channels -> lookahead is unbounded -> a single window runs
    // every queue to completion.
    ParallelEngine engine;
    LogicalProcess &a = engine.addLp("a");
    LogicalProcess &b = engine.addLp("b");

    int firedA = 0;
    int firedB = 0;
    a.queue().schedule(100, [&firedA] { ++firedA; });
    a.queue().schedule(900, [&firedA] { ++firedA; });
    b.queue().schedule(500, [&firedB] { ++firedB; });

    EXPECT_EQ(engine.lookahead(), sim::maxTick);
    EXPECT_EQ(engine.run(), 3u);
    EXPECT_EQ(firedA, 2);
    EXPECT_EQ(firedB, 1);
    EXPECT_EQ(engine.windows(), 1u);
}

TEST(ParallelEngine, PingPongHonoursChannelLatency)
{
    constexpr Tick kLat = 1000;
    constexpr int kRounds = 8;

    ParallelEngine engine;
    LogicalProcess &a = engine.addLp("a");
    LogicalProcess &b = engine.addLp("b");
    LinkChannel &ab = engine.connect(a, b, kLat);
    LinkChannel &ba = engine.connect(b, a, kLat);

    std::vector<Tick> arrivals;
    std::function<void(int)> bounce = [&](int left) {
        LogicalProcess &here = (left % 2 == 0) ? a : b;
        arrivals.push_back(here.queue().now());
        if (left == 0)
            return;
        LinkChannel &out = (left % 2 == 0) ? ab : ba;
        out.send(here.queue().now() + kLat,
                 [&bounce, left] { bounce(left - 1); });
    };
    // Kick off from LP a at t = 0 (before the engine runs).
    ab.send(kLat, [&bounce] { bounce(kRounds - 1); });

    engine.run();

    ASSERT_EQ(arrivals.size(), static_cast<std::size_t>(kRounds));
    for (int i = 0; i < kRounds; ++i)
        EXPECT_EQ(arrivals[i], kLat * static_cast<Tick>(i + 1));
    EXPECT_EQ(engine.merged(), static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(ab.sent() + ba.sent(),
              static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(ab.delivered() + ba.delivered(),
              static_cast<std::uint64_t>(kRounds));
    // One delivery per window: each bounce opens the next window.
    EXPECT_EQ(engine.windows(), static_cast<std::uint64_t>(kRounds));
}

TEST(ParallelEngine, MergeOrdersTiesBySourceChannelAndSequence)
{
    // Same-tick deliveries into one LP run in (source LP, channel,
    // sequence) order, whatever order they were sent in.
    ParallelEngine engine;
    LogicalProcess &a = engine.addLp("a");
    LogicalProcess &b = engine.addLp("b");
    LogicalProcess &c = engine.addLp("c");
    LinkChannel &bc = engine.connect(b, c, 1000);
    LinkChannel &ac0 = engine.connect(a, c, 1000);
    LinkChannel &ac1 = engine.connect(a, c, 1000);

    std::vector<int> order;
    auto note = [&order](int tag) {
        return [&order, tag] { order.push_back(tag); };
    };
    bc.send(1000, note(4));
    ac1.send(1000, note(3));
    ac0.send(1000, note(1));
    ac0.send(1000, note(2));
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ParallelEngine, FiniteLimitWarpsEveryClock)
{
    ParallelEngine engine;
    LogicalProcess &a = engine.addLp("a");
    LogicalProcess &b = engine.addLp("b");
    engine.connect(a, b, 500);

    int fired = 0;
    a.queue().schedule(100, [&fired] { ++fired; });
    b.queue().schedule(90000, [&fired] { ++fired; });

    engine.run(50000);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(a.queue().now(), 50000u);
    EXPECT_EQ(b.queue().now(), 50000u);
    EXPECT_EQ(b.queue().pending(), 1u);

    engine.run(100000);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(a.queue().now(), 100000u);
    EXPECT_EQ(b.queue().now(), 100000u);
}

TEST(ParallelEngineDeathTest, ZeroLookaheadFailsLoudly)
{
    // A zero-latency channel would force zero-length windows: the
    // conservative engine must reject it at connect time instead of
    // deadlocking at run time.
    ParallelEngine engine;
    LogicalProcess &a = engine.addLp("a");
    LogicalProcess &b = engine.addLp("b");
    EXPECT_DEATH(engine.connect(a, b, 0), "zero lookahead");
}

TEST(ParallelEngineDeathTest, SendBelowMinLatencyFailsLoudly)
{
    ParallelEngine engine;
    LogicalProcess &a = engine.addLp("a");
    LogicalProcess &b = engine.addLp("b");
    LinkChannel &ab = engine.connect(a, b, 1000);
    EXPECT_DEATH(ab.send(999, [] {}), "min-latency");
}

TEST(ParallelEngineDeathTest, SelfChannelFailsLoudly)
{
    ParallelEngine engine;
    LogicalProcess &a = engine.addLp("a");
    EXPECT_DEATH(engine.connect(a, a, 1000), "same");
}

TEST(ParallelEngine, TeardownWithInFlightMessages)
{
    // Messages parked in channel outboxes (and events still queued)
    // must be released cleanly when the engine dies — the callbacks
    // own shared state that would leak otherwise (ASan-checked).
    auto payload = std::make_shared<int>(7);
    {
        ParallelEngine engine;
        LogicalProcess &a = engine.addLp("a");
        LogicalProcess &b = engine.addLp("b");
        LinkChannel &ab = engine.connect(a, b, 1000);
        ab.send(1000, [payload] { ++*payload; });
        ab.send(2500, [payload] { ++*payload; });
        EXPECT_EQ(ab.inFlight(), 2u);
        // Destroyed without ever running.
    }
    EXPECT_EQ(*payload, 7);
    EXPECT_EQ(payload.use_count(), 1);

    {
        ParallelEngine engine;
        LogicalProcess &a = engine.addLp("a");
        LogicalProcess &b = engine.addLp("b");
        LinkChannel &ab = engine.connect(a, b, 1000);
        a.queue().schedule(100, [payload, &ab, &a] {
            ab.send(a.queue().now() + 1000, [payload] { ++*payload; });
        });
        b.queue().schedule(60000, [payload] { ++*payload; });
        engine.run(5000); // partial: b's far event stays queued
        EXPECT_EQ(*payload, 8);
        // Destroyed with a pending event still in b's queue.
    }
    EXPECT_EQ(payload.use_count(), 1);
}

TEST(ParallelNet, PartitionedLinkDeliversAtSerialTick)
{
    // 1000 B at 1 GB/s = 1 us serialisation, +1 us overhead, +10 us
    // latency: delivery on the remote LP at exactly 12 us.
    net::FabricLinkParams params;
    params.bandwidthBps = 1e9;
    params.latency = sim::microseconds(10);
    params.perMessageOverhead = sim::microseconds(1);

    ParallelEngine engine;
    LogicalProcess &a = engine.addLp("a");
    LogicalProcess &b = engine.addLp("b");

    net::Fabric net("net", a.queue());
    net.addEndpoint("a");
    net.addEndpoint("b");
    net.assign("a", a);
    net.assign("b", b);
    net.connect("a", "b", params);
    net.finalize();
    net.partition(engine);
    ASSERT_EQ(engine.channelCount(), 2u);
    EXPECT_EQ(engine.lookahead(), params.latency);

    Tick deliveredAt = 0;
    net.send("a", "b", 1000, [&deliveredAt, &b] {
        deliveredAt = b.queue().now();
    });
    engine.run();
    EXPECT_EQ(deliveredAt, sim::microseconds(12));
}

TEST(RackCluster, RingCarriesCrossRackOps)
{
    dc::TraceParams tparams;
    tparams.jobs = 150;
    tparams.meanInterarrival = sim::microseconds(200);
    auto trace = dc::TraceGenerator(tparams, 7).generate();

    // Two racks is the duplicate-edge case: the ring's closing link
    // is the one already built, so the ring has a single link.
    for (std::size_t racks : {2, 3}) {
        SCOPED_TRACE(racks);
        sys::RackParams rparams;
        rparams.racks = racks;
        auto shards = dc::shardTrace(trace, rparams.racks);
        ParallelEngine engine;
        sys::RackCluster cluster("cluster", engine, shards, rparams, 99);
        engine.run();
        EXPECT_GT(cluster.opsCompleted(), 0u);
        EXPECT_GT(cluster.crossRackOps(), 0u);
        // One channel per direction of every ring link.
        EXPECT_EQ(engine.channelCount(), racks == 2 ? 2u : 2 * racks);
    }
}
