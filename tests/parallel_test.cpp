/**
 * @file
 * Unit tests for the conservative parallel engine: window protocol,
 * cross-LP channels, determinism across worker counts, teardown with
 * in-flight traffic, and the partitioned net/opencapi integrations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/switch.hh"
#include "sim/parallel/engine.hh"
#include "sim/rng.hh"
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
    ParallelEngine engine(1);
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
    ParallelEngine engine(2);
    LogicalProcess &a = engine.addLp("a");
    LogicalProcess &b = engine.addLp("b");

    // One counter per LP: the window runs both queues concurrently,
    // and state is owned by the LP that touches it (the engine's
    // threading contract — TSan enforces it on this very test).
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

    ParallelEngine engine(2);
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

TEST(ParallelEngine, FiniteLimitWarpsEveryClock)
{
    ParallelEngine engine(2);
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

namespace {

/**
 * Deterministic multi-LP workload: a ring of LPs exchanging hops with
 * varying latencies plus local events, logging (lp, tick, ttl) on
 * every hop. The log is a pure function of the topology and seeds, so
 * it must be identical for any worker count and any thread schedule.
 */
struct RingFixture
{
    static constexpr Tick kBaseLat = 2000;

    explicit RingFixture(unsigned jobs, int lps) : engine(jobs)
    {
        for (int i = 0; i < lps; ++i) {
            all.push_back(&engine.addLp("lp" + std::to_string(i)));
            logs.emplace_back();
        }
        for (int i = 0; i < lps; ++i)
            ring.push_back(&engine.connect(
                *all[i], *all[(i + 1) % lps],
                kBaseLat + static_cast<Tick>(i) * 500));

        // Seeded initial bursts, staggered per LP.
        for (int i = 0; i < lps; ++i) {
            sim::Rng rng(1234 + static_cast<std::uint64_t>(i));
            for (int k = 0; k < 40; ++k) {
                Tick at = 1 + rng.below(5000);
                int ttl = 3 + static_cast<int>(rng.below(6));
                all[i]->queue().schedule(
                    at, [this, i, ttl] { hop(i, ttl); });
            }
        }
    }

    void
    hop(int lp, int ttl)
    {
        logs[lp].push_back({all[lp]->queue().now(), ttl});
        if (ttl <= 0)
            return;
        // A local follow-up and a forward around the ring.
        all[lp]->queue().scheduleIn(77, [this, lp] { hop(lp, 0); });
        int next = (lp + 1) % static_cast<int>(all.size());
        Tick extra = static_cast<Tick>(ttl % 3) * 111;
        ring[lp]->send(all[lp]->queue().now() +
                           ring[lp]->minLatency() + extra,
                       [this, next, ttl] { hop(next, ttl - 1); });
    }

    std::vector<std::vector<std::pair<Tick, int>>>
    run()
    {
        engine.run();
        return logs;
    }

    ParallelEngine engine;
    std::vector<LogicalProcess *> all;
    std::vector<LinkChannel *> ring;
    std::vector<std::vector<std::pair<Tick, int>>> logs;
};

} // namespace

TEST(ParallelEngine, DeterministicAcrossWorkerCounts)
{
    auto serial = RingFixture(1, 5).run();
    auto two = RingFixture(2, 5).run();
    auto four = RingFixture(4, 5).run();
    EXPECT_EQ(serial, two);
    EXPECT_EQ(serial, four);
}

TEST(ParallelEngine, DeterministicUnderThreadSchedulePerturbation)
{
    // Re-run the same parallel topology many times: OS scheduling
    // noise across runs must never leak into the event order.
    auto reference = RingFixture(4, 5).run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(reference, RingFixture(4, 5).run()) << "run " << i;
}

TEST(ParallelEngine, TeardownWithInFlightMessages)
{
    // Messages parked in channel outboxes (and events still queued)
    // must be released cleanly when the engine dies — the callbacks
    // own shared state that would leak otherwise (ASan-checked).
    auto payload = std::make_shared<int>(7);
    {
        ParallelEngine engine(2);
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
        ParallelEngine engine(2);
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

    ParallelEngine engine(2);
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

TEST(RackCluster, DeterministicAcrossWorkerCounts)
{
    dc::TraceParams tparams;
    tparams.jobs = 150;
    tparams.meanInterarrival = sim::microseconds(200);
    auto trace = dc::TraceGenerator(tparams, 7).generate();

    // Two racks is the duplicate-edge case: the ring's closing link
    // is the one already built, so the ring has a single link.
    for (std::size_t racks : {2, 3}) {
        SCOPED_TRACE(racks);
        auto runOnce = [&trace, racks](unsigned jobs) {
            sys::RackParams rparams;
            rparams.racks = racks;
            auto shards = dc::shardTrace(trace, rparams.racks);
            ParallelEngine engine(jobs);
            sys::RackCluster cluster("cluster", engine, shards, rparams,
                                     99);
            engine.run();
            sim::StatsRegistry reg;
            cluster.registerStats(reg, "sys");
            engine.attachStats(reg, "sim.par");
            reg.freezeAll();
            return std::make_tuple(cluster.opsCompleted(),
                                   cluster.crossRackOps(),
                                   reg.toJson(), engine.channelCount());
        };

        auto serial = runOnce(1);
        auto parallel = runOnce(2);
        EXPECT_GT(std::get<0>(serial), 0u);
        EXPECT_GT(std::get<1>(serial), 0u);
        EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel));
        EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel));
        EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel));
        // One channel per direction of every ring link.
        EXPECT_EQ(std::get<3>(serial), racks == 2 ? 2u : 2 * racks);
    }
}
