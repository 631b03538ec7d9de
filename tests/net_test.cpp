/**
 * @file
 * Tests for the fabric link model on point-to-point (switchless)
 * links: the testbed's client and scale-out Ethernet.
 */

#include <gtest/gtest.h>

#include "net/switch.hh"

using namespace tf;
using namespace tf::net;

TEST(FabricLinkT, LatencyPlusSerialisation)
{
    sim::EventQueue eq;
    FabricLinkParams params;
    params.bandwidthBps = 1.25e9; // 10 Gb/s
    params.latency = sim::microseconds(25);
    params.perMessageOverhead = sim::microseconds(2);
    FabricLink link("l", eq, params);

    sim::Tick arrival = 0;
    link.send(12500, 0, [&] { arrival = eq.now(); }); // 10 us at line rate
    eq.run();
    EXPECT_EQ(arrival, sim::microseconds(10 + 2 + 25));
    EXPECT_EQ(link.messages(), 1u);
    EXPECT_EQ(link.bytesSent(), 12500u);
}

TEST(FabricLinkT, BackToBackMessagesQueue)
{
    sim::EventQueue eq;
    FabricLinkParams params;
    params.bandwidthBps = 1.25e9;
    params.latency = sim::microseconds(25);
    params.perMessageOverhead = 0;
    FabricLink link("l", eq, params);

    std::vector<sim::Tick> arrivals;
    for (int i = 0; i < 3; ++i)
        link.send(12500, 0, [&] { arrivals.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[0], sim::microseconds(35));
    EXPECT_EQ(arrivals[1], sim::microseconds(45)); // serialised
    EXPECT_EQ(arrivals[2], sim::microseconds(55));
}

TEST(FabricLinkT, BacklogDelaysLaterMessage)
{
    sim::EventQueue eq;
    FabricLink idle("idle", eq, FabricLinkParams::tenGig());
    FabricLink busy("busy", eq, FabricLinkParams::tenGig());
    sim::Tick unqueued = 0;
    sim::Tick queued = 0;
    idle.send(1250, 0, [&] { unqueued = eq.now(); });
    busy.send(1250000, 0, [] {}); // ~1 ms of backlog
    busy.send(1250, 0, [&] { queued = eq.now(); });
    eq.run();
    EXPECT_GT(queued, unqueued);
    EXPECT_GT(busy.queueDelayNs().max(), 0.0);
}

TEST(NetworkT, DuplexAndAddressing)
{
    sim::EventQueue eq;
    Fabric net("n", eq);
    net.addEndpoint("a");
    net.addEndpoint("b");
    net.connect("a", "b", FabricLinkParams::hundredGig());
    net.finalize();
    EXPECT_EQ(net.hopCount("a", "b"), 1u);
    EXPECT_EQ(net.hopCount("b", "a"), 1u);
    EXPECT_FALSE(net.reachable("a", "c"));

    int delivered = 0;
    net.send("a", "b", 1000, [&] { ++delivered; });
    net.send("b", "a", 1000, [&] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 2);
}

TEST(NetworkT, DirectionsAreIndependentLinks)
{
    sim::EventQueue eq;
    Fabric net("n", eq);
    net.addEndpoint("a");
    net.addEndpoint("b");
    FabricLinkParams params;
    params.bandwidthBps = 1.25e9;
    params.latency = sim::microseconds(10);
    params.perMessageOverhead = 0;
    net.connect("a", "b", params);
    net.finalize();

    // Saturate a->b; b->a latency must stay unaffected.
    for (int i = 0; i < 10; ++i)
        net.send("a", "b", 125000, [] {});
    sim::Tick reverse_arrival = 0;
    net.send("b", "a", 1250, [&] { reverse_arrival = eq.now(); });
    eq.run();
    EXPECT_EQ(reverse_arrival, sim::microseconds(1 + 10));
}

TEST(NetworkT, HundredGigFasterThanTen)
{
    sim::EventQueue eq;
    Fabric net("n", eq);
    for (const char *e : {"a", "b", "c"})
        net.addEndpoint(e);
    net.connect("a", "b", FabricLinkParams::tenGig());
    net.connect("a", "c", FabricLinkParams::hundredGig());
    net.finalize();
    sim::Tick tenArrival = 0;
    sim::Tick hundredArrival = 0;
    net.send("a", "b", 1000000, [&] { tenArrival = eq.now(); });
    net.send("a", "c", 1000000, [&] { hundredArrival = eq.now(); });
    eq.run();
    EXPECT_GT(tenArrival, hundredArrival);
}
