/**
 * @file
 * Tests for the declarative topology subsystem: JSON parsing, spec
 * validation error paths (each a crisp SpecError, never a TF_ASSERT
 * at runtime), the switched fabric model and instantiation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "net/switch.hh"
#include "sim/rng.hh"
#include "topo/builder.hh"
#include "topo/json.hh"
#include "topo/spec.hh"

using namespace tf;
using topo::Spec;
using topo::SpecError;

namespace {

/** Two hosts (one with a donor) behind two switches. */
const char *kValid = R"({
  "name": "mini",
  "nodes": [
    {"name": "h0", "role": "host", "donor": "d0", "channels": 2,
     "dram": {"accessNs": 80, "gbps": 100, "banks": 8}},
    {"name": "h1", "role": "host"},
    {"name": "d0", "role": "donor", "donatedMiB": 32}
  ],
  "switches": [
    {"name": "s0", "crossingNs": 40, "radix": 4},
    {"name": "s1", "crossingNs": 40, "radix": 4}
  ],
  "links": [
    {"a": "h0", "b": "s0", "gbps": 100, "latencyNs": 500},
    {"a": "h1", "b": "s1", "gbps": 100, "latencyNs": 500},
    {"a": "s0", "b": "s1", "gbps": 25, "latencyNs": 800}
  ],
  "traffic": [
    {"name": "ping", "kind": "rpc", "src": "h0", "dst": "h1",
     "requestBytes": 128, "responseBytes": 1024, "window": 2,
     "ops": 50},
    {"name": "mem", "kind": "memory", "src": "h0",
     "policy": "remote", "accessBytes": 128, "window": 2,
     "ops": 60}
  ]
})";

std::string
expectError(const std::string &text)
{
    try {
        topo::parseSpec(text, "test.json");
    } catch (const SpecError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected SpecError, got a valid parse";
    return "";
}

/**
 * Splice @p value into @p tmpl at its one '@', parse, and check that
 * the SpecError names the value's test.json:line:col and says @p what.
 */
void
expectErrorAt(const std::string &tmpl, const std::string &value,
              const std::string &what)
{
    std::size_t at = tmpl.find('@');
    std::string text = tmpl.substr(0, at) + value + tmpl.substr(at + 1);
    auto line = std::count(text.begin(), text.begin() + at, '\n') + 1;
    std::size_t col = at - text.rfind('\n', at); // npos: at + 1
    std::string where = "test.json:" + std::to_string(line) + ":" +
                        std::to_string(col) + ": ";
    std::string err = expectError(text);
    SCOPED_TRACE(value);
    EXPECT_NE(err.find(where), std::string::npos) << err;
    EXPECT_NE(err.find(what), std::string::npos) << err;
}

const char *kLinkLatency = R"({
  "name": "x",
  "nodes": [{"name": "h0"}, {"name": "h1"}],
  "links": [{"a": "h0", "b": "h1", "latencyNs": @}]
})";

const char *kTimeline = R"({
  "name": "x",
  "nodes": [{"name": "h0"}],
  "timelineUs": @
})";

/** An rpc stanza with @p field's value at '@'. */
std::string
trafficWith(const std::string &field)
{
    return R"({
  "name": "x",
  "nodes": [{"name": "h0"}, {"name": "h1"}],
  "links": [{"a": "h0", "b": "h1"}],
  "traffic": [{"name": "t", "src": "h0", "dst": "h1",
               ")" + field + R"(": @}]
})";
}

} // namespace

TEST(TopoJsonT, SyntaxErrorCarriesLineAndColumn)
{
    std::string err = expectError("{\n  \"name\": \"x\",\n  oops\n}");
    EXPECT_NE(err.find("test.json:3"), std::string::npos) << err;
}

TEST(TopoJsonT, DuplicateObjectKeyRejected)
{
    std::string err =
        expectError(R"({"name": "x", "name": "y", "nodes": []})");
    EXPECT_NE(err.find("duplicate key"), std::string::npos) << err;
}

TEST(TopoJsonT, NullValueRejectedWithItsPosition)
{
    // null parses as a JSON value, then fails validation where it
    // stands; a misspelt null fails in the parser at the same spot.
    std::string err = expectError("{\n  \"name\": null}");
    EXPECT_NE(err.find("test.json:2:11"), std::string::npos) << err;
    EXPECT_NE(err.find("must be a string"), std::string::npos) << err;
    err = expectError("{\n  \"name\": nul}");
    EXPECT_NE(err.find("test.json:2:11"), std::string::npos) << err;
    EXPECT_NE(err.find("expected 'null'"), std::string::npos) << err;
}

TEST(TopoJsonT, StringValueStartsAtItsOpeningQuote)
{
    // The position is taken before the string is read, whatever order
    // the compiler evaluates a call's arguments in.
    topo::json::Value doc = topo::json::parse(
        "{\n  \"name\": \"abc\",\n  \"n\": [\"x\", 1]}", "test.json");
    EXPECT_EQ(doc.where(), "test.json:1:1");
    EXPECT_EQ(doc.find("name")->where(), "test.json:2:11");
    ASSERT_EQ(doc.find("n")->items().size(), 2u);
    EXPECT_EQ(doc.find("n")->items()[0].where(), "test.json:3:9");
    EXPECT_EQ(doc.find("n")->items()[1].where(), "test.json:3:14");
}

TEST(TopoJsonT, LineCommentsAllowed)
{
    Spec spec = topo::parseSpec(
        "// header comment\n"
        "{\"name\": \"c\", // trailing\n"
        " \"nodes\": [{\"name\": \"n0\", \"role\": \"host\"}]}",
        "c.json");
    EXPECT_EQ(spec.name, "c");
    ASSERT_EQ(spec.nodes.size(), 1u);
}

TEST(TopoSpecT, ValidFileParses)
{
    Spec spec = topo::parseSpec(kValid, "mini.json");
    EXPECT_EQ(spec.name, "mini");
    ASSERT_EQ(spec.nodes.size(), 3u);
    EXPECT_EQ(spec.nodes[0].donor, "d0");
    EXPECT_EQ(spec.nodes[0].channels, 2u);
    EXPECT_EQ(spec.nodes[0].dram.banks, 8u);
    ASSERT_EQ(spec.switches.size(), 2u);
    EXPECT_EQ(spec.switches[0].radix, 4u);
    ASSERT_EQ(spec.links.size(), 3u);
    EXPECT_DOUBLE_EQ(spec.links[2].gbps, 25.0);
    ASSERT_EQ(spec.traffic.size(), 2u);
    EXPECT_EQ(spec.traffic[0].kind, "rpc");
    EXPECT_EQ(spec.traffic[1].policy, "remote");
}

TEST(TopoSpecT, UnknownNodeReferenceInLink)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"}],
      "links": [{"a": "h0", "b": "ghost", "latencyNs": 500}]
    })");
    EXPECT_NE(err.find("unknown node \"ghost\""), std::string::npos)
        << err;
}

TEST(TopoSpecT, UnknownDonorReference)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host", "donor": "nope"}]
    })");
    EXPECT_NE(err.find("unknown node \"nope\""), std::string::npos)
        << err;
}

TEST(TopoSpecT, DuplicateNodeName)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"},
                {"name": "h0", "role": "host"}]
    })");
    EXPECT_NE(err.find("duplicate name \"h0\""), std::string::npos)
        << err;
}

TEST(TopoSpecT, SwitchMayNotShadowNodeName)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"}],
      "switches": [{"name": "h0"}]
    })");
    EXPECT_NE(err.find("duplicate name \"h0\""), std::string::npos)
        << err;
}

TEST(TopoSpecT, NonPositiveLinkLatencyBreaksLookahead)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"},
                {"name": "h1", "role": "host"}],
      "links": [{"a": "h0", "b": "h1", "latencyNs": 0}]
    })");
    EXPECT_NE(err.find("latencyNs must be positive"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("lookahead"), std::string::npos) << err;
}

TEST(TopoSpecT, DurationOutsideTheTickRangeRejected)
{
    // Below one tick, a link latency and a timeline window would
    // truncate to the zero that the engine and the recorder refuse.
    expectErrorAt(kLinkLatency, "0.0004", "shorter than the 1 ps tick");
    expectErrorAt(kTimeline, "1e-7", "shorter than the 1 ps tick");
    const std::string range = "beyond the simulated time range";
    expectErrorAt(kLinkLatency, "1e20", range);
    expectErrorAt(kTimeline, "1e20", range);
    expectErrorAt(trafficWith("startUs"), "2e13", range);
    expectErrorAt(trafficWith("startUs"), "-1", "must not be negative");
}

TEST(TopoSpecT, DurationPastItsBoundRejected)
{
    // A delay may hold one simulated second, an instant or span one
    // simulated hour (sim::maxDelay, sim::maxSpan); one past is out.
    const std::string delay = "at most 1000000000";
    expectErrorAt(kLinkLatency, "1000000001", delay);
    expectErrorAt(R"({"name": "x", "nodes": [{"name": "h0"}],
                     "switches": [{"name": "s0", "crossingNs": @}]})",
                  "1000000001", delay);
    expectErrorAt(R"({"name": "x", "nodes": [{"name": "h0",
                     "dram": {"accessNs": @}}]})",
                  "1000000001", delay);
    const std::string span = "at most 3600000000";
    expectErrorAt(kTimeline, "3600000001", span);
    expectErrorAt(trafficWith("startUs"), "3600000001", span);
    const std::string fault = R"({"name": "x", "nodes": [{"name": "h0"}],
      "faults": [{"kind": "latencySpike", "point": "p", )";
    expectErrorAt(fault + R"("atUs": @}]})", "3600000001", span);
    expectErrorAt(fault + R"("forUs": @}]})", "3600000001", span);
    expectErrorAt(fault + R"("extraNs": @}]})", "1000000001", delay);
    const std::string monitor = R"({"name": "x", "nodes": [{"name": "h0"}],
      "monitors": [{"name": "m", "metric": "t.ops", "threshold": 1, )";
    expectErrorAt(monitor + R"("fromUs": @}]})", "3600000001", span);
    expectErrorAt(monitor + R"("untilUs": @}]})", "3600000001", span);
}

TEST(TopoSpecT, IntegerBeyondItsFieldRejected)
{
    // Each would wrap to a small value in its 32-bit field.
    expectErrorAt(R"({"name": "x", "nodes": [{"name": "h0",
                     "channels": @}]})",
                  "4294967297", "\"channels\" must be at most 4294967295");
    expectErrorAt(R"({"name": "x", "nodes": [{"name": "h0"}],
                     "switches": [{"name": "s0", "radix": @}]})",
                  "4294967298", "\"radix\" must be at most 4294967295");
    expectErrorAt(R"({"name": "x", "nodes": [{"name": "h0"}],
                     "monitors": [{"name": "m", "metric": "t.ops",
                                   "threshold": 1, "forWindows": @}]})",
                  "4294967298",
                  "\"forWindows\" must be at most 4294967295");
    expectErrorAt(trafficWith("responseBytes"), "4294967296",
                  "\"responseBytes\" must be at most 4294967295");
    expectErrorAt(trafficWith("accessBytes"), "4294967296",
                  "\"accessBytes\" must be at most 4294967295");
    // The donation is used in bytes: 2^44 + 64 MiB would run as 64.
    expectErrorAt(R"({"name": "x", "nodes": [{"name": "d0",
                     "role": "donor", "donatedMiB": @}]})",
                  "17592186044480",
                  "\"donatedMiB\" must be at most 17592186044415");
    // Each bank has its own state: 2^32 - 1 of them would not fit.
    expectErrorAt(R"({"name": "x", "nodes": [{"name": "h0",
                     "dram": {"banks": @}}]})",
                  "1025", "\"banks\" must be at most 1024");
    // From 2^64 on, the cast to a 64-bit integer would be undefined.
    const std::string max64 = "must be at most 18446744073709551615";
    expectErrorAt(trafficWith("ops"), "1e30", max64);
    expectErrorAt(trafficWith("requestBytes"), "18446744073709551616",
                  max64);
}

TEST(TopoSpecT, UnreachableEndpoint)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"},
                {"name": "h1", "role": "host"},
                {"name": "h2", "role": "host"}],
      "links": [{"a": "h0", "b": "h1", "latencyNs": 500}],
      "traffic": [{"name": "t", "kind": "rpc",
                   "src": "h0", "dst": "h2"}]
    })");
    EXPECT_NE(err.find("unreachable"), std::string::npos) << err;
}

TEST(TopoSpecT, FirstUnreachableStanzaFailsWithItsPosition)
{
    // Two islands; the second and third stanzas both cross between
    // them, and the error names the second, at its own position.
    std::string err = expectError(R"({
  "name": "islands",
  "nodes": [{"name": "a0", "role": "host"},
            {"name": "a1", "role": "host"},
            {"name": "b0", "role": "host"},
            {"name": "b1", "role": "host"}],
  "switches": [{"name": "sa"}, {"name": "sb"}],
  "links": [{"a": "a0", "b": "sa"}, {"a": "a1", "b": "sa"},
            {"a": "b0", "b": "sb"}, {"a": "b1", "b": "sb"}],
  "traffic": [
    {"name": "local", "kind": "rpc", "src": "a0", "dst": "a1"},
    {"name": "cross", "kind": "rpc", "src": "a1", "dst": "b0"},
    {"name": "back", "kind": "rpc", "src": "b1", "dst": "a0"}
  ]
})");
    EXPECT_EQ(err, "test.json:12:5: traffic \"cross\": endpoint \"b0\" "
                   "is unreachable from \"a1\" over the declared links");
}

TEST(TopoSpecT, TypoedKeyRejected)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host",
                 "chanels": 2}]
    })");
    EXPECT_NE(err.find("unknown key \"chanels\""), std::string::npos)
        << err;
}

TEST(TopoSpecT, UnknownKeyWithAStringValueNamesItsOpeningQuote)
{
    expectErrorAt(R"({
  "name": "x",
  "nodes": [{"name": "h0", "role": "host", "rol": @}]
})",
                  "\"host\"", "unknown key \"rol\"");
}

TEST(TopoSpecT, RadixOverflowRejected)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"},
                {"name": "h1", "role": "host"},
                {"name": "h2", "role": "host"}],
      "switches": [{"name": "s0", "radix": 2}],
      "links": [{"a": "h0", "b": "s0", "latencyNs": 500},
                {"a": "h1", "b": "s0", "latencyNs": 500},
                {"a": "h2", "b": "s0", "latencyNs": 500}]
    })");
    EXPECT_NE(err.find("radix"), std::string::npos) << err;
}

TEST(TopoSpecT, DonorClaimedTwiceRejected)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host", "donor": "d0"},
                {"name": "h1", "role": "host", "donor": "d0"},
                {"name": "d0", "role": "donor"}]
    })");
    EXPECT_NE(err.find("claimed by more than one host"),
              std::string::npos)
        << err;
}

TEST(TopoSpecT, UnknownFaultKindRejected)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"}],
      "faults": [{"kind": "gremlins", "point": "h0.dram"}]
    })");
    EXPECT_NE(err.find("unknown fault kind \"gremlins\""),
              std::string::npos)
        << err;
}

TEST(TopoSpecT, MemoryTrafficNeedsADonorForRemotePolicy)
{
    std::string err = expectError(R"({
      "name": "x",
      "nodes": [{"name": "h0", "role": "host"}],
      "traffic": [{"name": "m", "kind": "memory", "src": "h0",
                   "policy": "remote"}]
    })");
    EXPECT_NE(err.find("has no donor"), std::string::npos) << err;
}

TEST(FabricT, RoutesAndHopCounts)
{
    sim::EventQueue eq;
    net::Fabric fabric("f", eq);
    fabric.addEndpoint("a");
    fabric.addEndpoint("b");
    fabric.addSwitch("s0", net::SwitchParams{});
    fabric.addSwitch("s1", net::SwitchParams{});
    net::FabricLinkParams lp;
    fabric.connect("a", "s0", lp);
    fabric.connect("s0", "s1", lp);
    fabric.connect("s1", "b", lp);
    fabric.finalize();

    EXPECT_TRUE(fabric.reachable("a", "b"));
    EXPECT_TRUE(fabric.reachable("b", "a"));
    EXPECT_EQ(fabric.hopCount("a", "b"), 3u);

    bool delivered = false;
    fabric.send("a", "b", 4096, [&] { delivered = true; });
    eq.run();
    EXPECT_TRUE(delivered);
    // Both switches forwarded the one message.
    EXPECT_EQ(fabric.relayedMessages(), 2u);
}

namespace {

/** An element graph: endpoints, switches and undirected links. */
struct FabricGraph
{
    std::vector<std::string> endpoints;
    std::vector<std::string> switches;
    std::vector<std::pair<std::string, std::string>> links;
};

using NameGraph = std::map<std::string, std::set<std::string>>;

/**
 * Reference route over names: BFS from @p dst gives hop counts, then
 * each step from @p src goes to the neighbour one hop closer whose
 * name sorts first. Returns the "a->b" link keys along the route;
 * empty when @p src == @p dst or it cannot reach @p dst.
 */
std::vector<std::string>
referenceRoute(const NameGraph &g, const std::string &src,
               const std::string &dst)
{
    std::map<std::string, std::size_t> dist{{dst, 0}};
    std::deque<std::string> frontier{dst};
    while (!frontier.empty()) {
        std::string at = frontier.front();
        frontier.pop_front();
        for (const std::string &nb : g.at(at))
            if (dist.emplace(nb, dist.at(at) + 1).second)
                frontier.push_back(nb);
    }
    std::vector<std::string> route;
    if (src == dst || dist.count(src) == 0)
        return route;
    for (std::string at = src; at != dst;) {
        for (const std::string &nb : g.at(at)) {
            auto it = dist.find(nb);
            if (it != dist.end() && it->second + 1 == dist.at(at)) {
                route.push_back(at + "->" + nb);
                at = nb;
                break;
            }
        }
    }
    return route;
}

/**
 * Build @p g as a Fabric and check every ordered endpoint pair against
 * referenceRoute(): reachable(), hopCount(), and the links whose
 * message counters move when one message is sent.
 */
void
checkRoutes(const FabricGraph &g)
{
    sim::EventQueue eq;
    net::Fabric fabric("f", eq);
    NameGraph names;
    for (const std::string &e : g.endpoints) {
        fabric.addEndpoint(e);
        names[e];
    }
    for (const std::string &s : g.switches) {
        net::SwitchParams sp;
        sp.radix = 64;
        fabric.addSwitch(s, sp);
        names[s];
    }
    for (const auto &[a, b] : g.links) {
        fabric.connect(a, b, net::FabricLinkParams{});
        names[a].insert(b);
        names[b].insert(a);
    }
    fabric.finalize();

    // Links are visited in "src->dst" string order.
    std::vector<std::pair<std::string, const net::FabricLink *>> links;
    fabric.forEachLink([&](const std::string &key, net::FabricLink &l,
                           sim::par::LogicalProcess *) {
        links.emplace_back(key, &l);
    });
    ASSERT_EQ(links.size(), 2 * g.links.size());
    for (std::size_t i = 1; i < links.size(); ++i)
        ASSERT_LT(links[i - 1].first, links[i].first);

    for (const std::string &src : g.endpoints) {
        for (const std::string &dst : g.endpoints) {
            SCOPED_TRACE(src + " to " + dst);
            std::vector<std::string> want = referenceRoute(names, src, dst);
            EXPECT_EQ(fabric.reachable(src, dst), !want.empty());
            EXPECT_EQ(fabric.hopCount(src, dst), want.size());
            if (want.empty())
                continue;
            std::vector<std::uint64_t> before;
            for (const auto &kv : links)
                before.push_back(kv.second->messages());
            bool delivered = false;
            fabric.send(src, dst, 64, [&] { delivered = true; });
            eq.run();
            EXPECT_TRUE(delivered);
            std::vector<std::string> moved;
            for (std::size_t i = 0; i < links.size(); ++i)
                if (links[i].second->messages() != before[i])
                    moved.push_back(links[i].first);
            std::sort(want.begin(), want.end());
            EXPECT_EQ(moved, want);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

/**
 * A seeded random switch mesh (a spanning tree plus extra links, so
 * equal-cost paths abound) with endpoints attached to one or two
 * switches, a direct endpoint link, and one isolated endpoint. Names
 * carry characters that sort below '-', so name order and
 * "src->dst" key order disagree with (src id, dst id) order.
 */
FabricGraph
randomMesh(std::uint64_t seed)
{
    sim::Rng rng(seed);
    static const char *kTags[] = {"", "!", ",", "_", "x"};
    auto name = [&](const char *stem, std::uint64_t i) {
        return std::string(stem) + kTags[rng.below(5)] + std::to_string(i);
    };
    FabricGraph g;
    std::uint64_t switches = 3 + rng.below(6);
    std::uint64_t endpoints = 4 + rng.below(9);
    for (std::uint64_t i = 0; i < switches; ++i)
        g.switches.push_back(name("s", i));
    for (std::uint64_t i = 0; i < endpoints; ++i)
        g.endpoints.push_back(name("e", i));
    std::set<std::pair<std::string, std::string>> seen;
    auto link = [&](const std::string &a, const std::string &b) {
        if (a != b && seen.count({b, a}) == 0 && seen.insert({a, b}).second)
            g.links.emplace_back(a, b);
    };
    auto anySwitch = [&] { return g.switches[rng.below(switches)]; };
    for (std::uint64_t i = 1; i < switches; ++i)
        link(g.switches[i], g.switches[rng.below(i)]);
    for (std::uint64_t i = 0; i < switches; ++i)
        link(anySwitch(), anySwitch());
    for (const std::string &e : g.endpoints) {
        link(e, anySwitch());
        if (rng.chance(0.4))
            link(anySwitch(), e);
    }
    link(g.endpoints[0], g.endpoints[1]);
    g.endpoints.push_back("lone");
    return g;
}

} // namespace

TEST(FabricRoutingT, RandomMeshesMatchReferenceBfs)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        checkRoutes(randomMesh(seed));
        if (HasFailure())
            return;
    }
}

TEST(FabricRoutingT, TiesGoToTheNeighbourFirstByName)
{
    // Two equal-cost paths a -> {s!, s1} -> b: "s!" sorts before "s1"
    // ('!' < '1'), in both directions.
    FabricGraph g{{"a", "b"},
                  {"s1", "s!"},
                  {{"a", "s1"}, {"a", "s!"}, {"s1", "b"}, {"s!", "b"}}};
    checkRoutes(g);
    NameGraph names{{"a", {"s1", "s!"}},
                    {"b", {"s1", "s!"}},
                    {"s1", {"a", "b"}},
                    {"s!", {"a", "b"}}};
    EXPECT_EQ(referenceRoute(names, "a", "b"),
              (std::vector<std::string>{"a->s!", "s!->b"}));
}

#ifdef TF_TOPO_CONFIG_DIR
namespace {

FabricGraph
graphOf(const Spec &spec)
{
    FabricGraph g;
    for (const auto &n : spec.nodes)
        g.endpoints.push_back(n.name);
    for (const auto &s : spec.switches)
        g.switches.push_back(s.name);
    for (const auto &l : spec.links)
        g.links.emplace_back(l.a, l.b);
    return g;
}

} // namespace

TEST(FabricRoutingT, CheckedInConfigsMatchReferenceBfs)
{
    for (const char *f : {"ring.json", "chain.json", "fullmesh.json",
                          "noisy_neighbor.json"}) {
        SCOPED_TRACE(f);
        checkRoutes(graphOf(topo::loadSpecFile(
            std::string(TF_TOPO_CONFIG_DIR) + "/" + f)));
    }
}
#endif

TEST(FabricRoutingT, GeneratedRingHopCountsAreRingDistances)
{
    // Host h<i> hangs off switch s<i>; the switches form a ring. Each
    // route is host link + the shorter way round + host link.
    constexpr unsigned kPairs = 256;
    std::ostringstream os;
    os << "{\"name\": \"ring\", \"nodes\": [";
    for (unsigned i = 0; i < kPairs; ++i)
        os << (i ? ", " : "") << "{\"name\": \"h" << i
           << "\", \"role\": \"host\"}";
    os << "], \"switches\": [";
    for (unsigned i = 0; i < kPairs; ++i)
        os << (i ? ", " : "") << "{\"name\": \"s" << i
           << "\", \"radix\": 3}";
    os << "], \"links\": [";
    for (unsigned i = 0; i < kPairs; ++i)
        os << (i ? ", " : "") << "{\"a\": \"h" << i << "\", \"b\": \"s"
           << i << "\"}, {\"a\": \"s" << i << "\", \"b\": \"s"
           << (i + 1) % kPairs << "\"}";
    os << "]}";
    Spec spec = topo::parseSpec(os.str(), "ring.json");
    topo::Instance inst(spec, topo::BuildOptions{});
    net::Fabric &fabric = inst.fabric();
    std::vector<std::string> hosts;
    for (const topo::NodeSpec &n : spec.nodes)
        hosts.push_back(n.name);
    for (unsigned i = 0; i < kPairs; ++i) {
        for (unsigned j = 0; j < kPairs; ++j) {
            unsigned d = i > j ? i - j : j - i;
            std::size_t want = i == j ? 0 : 2 + std::min(d, kPairs - d);
            ASSERT_EQ(fabric.hopCount(hosts[i], hosts[j]), want)
                << hosts[i] << " " << hosts[j];
            ASSERT_EQ(fabric.reachable(hosts[i], hosts[j]), i != j);
        }
    }
}

TEST(FabricT, OversubscribedEgressQueues)
{
    // Two 100 Gb/s sources funnel into one 10 Gb/s egress: the
    // second message must wait out the first one's serialisation in
    // the switch's output queue.
    sim::EventQueue eq;
    net::Fabric fabric("f", eq);
    fabric.addEndpoint("a");
    fabric.addEndpoint("b");
    fabric.addEndpoint("sink");
    fabric.addSwitch("sw", net::SwitchParams{});
    net::FabricLinkParams fast;
    fast.bandwidthBps = 100e9 / 8;
    net::FabricLinkParams slow;
    slow.bandwidthBps = 10e9 / 8;
    fabric.connect("a", "sw", fast);
    fabric.connect("b", "sw", fast);
    fabric.connect("sw", "sink", slow);
    fabric.finalize();

    int arrived = 0;
    fabric.send("a", "sink", 100000, [&] { ++arrived; });
    fabric.send("b", "sink", 100000, [&] { ++arrived; });
    eq.run();
    EXPECT_EQ(arrived, 2);
    // 100 kB at 1.25 GB/s = 80 us of serialisation the second
    // message waited behind.
    EXPECT_GT(fabric.maxQueueDelayNs(), 70e3);
}

TEST(TopoBuildT, InstanceRunsAllTraffic)
{
    Spec spec = topo::parseSpec(kValid, "mini.json");
    topo::BuildOptions opt;
    topo::Instance inst(spec, opt);
    // 2 host groups (donor folded into h0's) + 2 switches.
    EXPECT_EQ(inst.lpCount(), 4u);
    EXPECT_EQ(inst.fabric().hopCount("h0", "h1"), 3u);

    inst.run();
    ASSERT_EQ(inst.trafficCount(), 2u);
    for (std::size_t i = 0; i < inst.trafficCount(); ++i) {
        const auto &t = inst.traffic(i);
        EXPECT_EQ(t.completed.value(), t.target) << t.name;
        EXPECT_GT(t.latUs.mean(), 0.0) << t.name;
    }
    EXPECT_GT(inst.fabric().relayedMessages(), 0u);
}

TEST(TopoBuildT, UnknownFaultPointIsASpecError)
{
    std::string text(kValid);
    auto pos = text.rfind('}');
    ASSERT_NE(pos, std::string::npos);
    text.insert(
        pos,
        R"(, "faults": [{"kind": "dramStall", "point": "nosuch.dram",
                         "atUs": 10, "forUs": 5}])");
    Spec spec = topo::parseSpec(text, "mini.json");
    try {
        topo::Instance inst(spec, topo::BuildOptions{});
        FAIL() << "expected SpecError for unknown fault point";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("nosuch.dram"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("known points"),
                  std::string::npos);
    }
}

TEST(TopoBuildT, RejectedDonationIsASpecError)
{
    // 4 GiB from a donor that boots with 1 GiB: the control plane
    // rejects the allocation, and the build names both nodes.
    std::string text(kValid);
    const std::string from = R"("donatedMiB": 32)";
    text.replace(text.find(from), from.size(), R"("donatedMiB": 4096)");
    Spec spec = topo::parseSpec(text, "mini.json");
    try {
        topo::Instance inst(spec, topo::BuildOptions{});
        FAIL() << "expected SpecError for a rejected donation";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      R"(composing host "h0" with donor "d0" failed)"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TopoBuildT, OversizedDonationIsRejectedBeforeSizingTheWindow)
{
    // The largest donation the spec accepts once wrapped the M1 window
    // to 0 (an abort); 2^30 MiB would size a 2^27-entry section table.
    for (const char *mib : {"17592186044415", "1073741824"}) {
        SCOPED_TRACE(mib);
        std::string text(kValid);
        const std::string from = R"("donatedMiB": 32)";
        text.replace(text.find(from), from.size(),
                     std::string(R"("donatedMiB": )") + mib);
        Spec spec = topo::parseSpec(text, "mini.json");
        try {
            topo::Instance inst(spec, topo::BuildOptions{});
            ADD_FAILURE() << "expected SpecError for a rejected donation";
        } catch (const SpecError &e) {
            EXPECT_NE(std::string(e.what()).find("allocation rejected"),
                      std::string::npos)
                << e.what();
        }
    }
}

namespace {

/** Attached stat @p name of the set at @p path (-1 when absent). */
double
statValue(const sim::StatsRegistry &reg, const std::string &path,
          const std::string &name)
{
    const sim::StatSet *set = reg.find(path);
    if (set == nullptr)
        return -1;
    for (const sim::StatEntry &e : set->snapshot())
        if (e.name == name)
            return e.value;
    return -1;
}

/**
 * h0 reaches its donor through a page cache and runs memory traffic
 * through it; h1 sends RPCs across the switch. The faults hit every
 * point a host group registers, and the monitor turns the timeline
 * on so fault windows are annotated on it.
 */
const char *kFaulty = R"({
  "name": "faulty",
  "nodes": [
    {"name": "h0", "role": "host", "donor": "d0", "channels": 2,
     "cache": {"enabled": true, "frameBudget": 8}},
    {"name": "h1", "role": "host"},
    {"name": "d0", "role": "donor", "donatedMiB": 32}
  ],
  "switches": [{"name": "s0", "radix": 4}],
  "links": [
    {"a": "h0", "b": "s0", "gbps": 100, "latencyNs": 500},
    {"a": "h1", "b": "s0", "gbps": 100, "latencyNs": 500}
  ],
  "traffic": [
    {"name": "mem", "kind": "memory", "src": "h0", "policy": "remote",
     "accessBytes": 128, "window": 4, "ops": 3000},
    {"name": "ping", "kind": "rpc", "src": "h1", "dst": "h0",
     "requestBytes": 128, "responseBytes": 1024, "window": 2,
     "ops": 200}
  ],
  "faults": [
    {"kind": "dramStall", "point": "h0.dram", "atUs": 10, "forUs": 5},
    {"kind": "dramStall", "point": "d0.dram", "atUs": 20, "forUs": 5},
    {"kind": "cachePoison", "point": "h0.cache", "atUs": 30},
    {"kind": "controlOutage", "point": "h0.ctrl", "atUs": 35,
     "forUs": 20},
    {"kind": "channelFlap", "point": "h0.tflow.ch0", "atUs": 40,
     "forUs": 5},
    {"kind": "latencySpike", "point": "fabric.h1->s0", "atUs": 10,
     "forUs": 20, "extraNs": 1000}
  ],
  "timelineUs": 10,
  "monitors": [{"name": "mem_tail", "metric": "mem.latP99Us",
                "op": ">", "threshold": 1000}]
})";

} // namespace

TEST(TopoBuildT, CachedHostRidesOutEveryFaultKind)
{
    Spec spec = topo::parseSpec(kFaulty, "faulty.json");
    topo::Instance inst(spec, topo::BuildOptions{});
    ASSERT_TRUE(inst.timelineEnabled());
    inst.run();
    for (std::size_t i = 0; i < inst.trafficCount(); ++i) {
        const auto &t = inst.traffic(i);
        EXPECT_EQ(t.completed.value(), t.target) << t.name;
    }
    EXPECT_EQ(inst.faultsFired(), spec.faults.size());
    EXPECT_EQ(inst.timeline().faults().size(), spec.faults.size());

    sim::StatsRegistry reg;
    inst.registerStats(reg);
    // Every fourth op writes, so the poison finds no clean frame to
    // retire and says so; the fill count shows the cache's remote
    // path ran.
    EXPECT_EQ(statValue(reg, "h0.cache", "poisonedFrames"), 0.0);
    EXPECT_EQ(statValue(reg, "h0.cache", "poisonSkipped"), 1.0);
    EXPECT_GT(statValue(reg, "h0.cache", "fills"), 0.0);
    EXPECT_EQ(statValue(reg, "h0.dram", "serviceStalls"), 1.0);
    EXPECT_EQ(statValue(reg, "d0.dram", "serviceStalls"), 1.0);
    EXPECT_EQ(statValue(reg, "h0.ctrl", "outages"), 1.0);
    EXPECT_EQ(statValue(reg, "h0.tflow", "channelFlaps"), 1.0);
}

TEST(TopoBuildT, OverlappingChannelFlapsMakeOneOutage)
{
    // A 5 us flap inside a 2 ms one: the wires stay down until the
    // long flap ends, so the LLC's replay rounds run out and the
    // channel is declared dead. Ended by the short flap's expiry, the
    // outage would heal through replay instead.
    std::string text(kValid);
    auto pos = text.rfind('}');
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos, R"(, "faults": [
      {"kind": "channelFlap", "point": "h0.tflow.ch0", "atUs": 5,
       "forUs": 2000},
      {"kind": "channelFlap", "point": "h0.tflow.ch0", "atUs": 6,
       "forUs": 5}])");
    Spec spec = topo::parseSpec(text, "mini.json");
    topo::Instance inst(spec, topo::BuildOptions{});
    inst.run();
    for (std::size_t i = 0; i < inst.trafficCount(); ++i) {
        const auto &t = inst.traffic(i);
        EXPECT_EQ(t.completed.value(), t.target) << t.name;
    }
    sim::StatsRegistry reg;
    inst.registerStats(reg);
    EXPECT_EQ(statValue(reg, "h0.tflow", "channelFlaps"), 2.0);
    EXPECT_EQ(statValue(reg, "h0.tflow", "linkDownEvents"), 1.0);
}

TEST(TopoBuildT, DelaysAtTheirBoundRunToTheEnd)
{
    // Every delay at sim::maxDelay, one simulated second.
    const char *text = R"({
  "name": "slow",
  "nodes": [
    {"name": "h0", "role": "host", "donor": "d0",
     "dram": {"accessNs": 1e9}},
    {"name": "h1", "role": "host"},
    {"name": "d0", "role": "donor", "donatedMiB": 32,
     "dram": {"accessNs": 1e9}}
  ],
  "switches": [{"name": "s0", "crossingNs": 1e9}],
  "links": [
    {"a": "h0", "b": "s0", "latencyNs": 1e9},
    {"a": "h1", "b": "s0", "latencyNs": 1e9}
  ],
  "traffic": [
    {"name": "mem", "kind": "memory", "src": "h0", "ops": 40},
    {"name": "ping", "kind": "rpc", "src": "h1", "dst": "h0", "ops": 20}
  ],
  "faults": [{"kind": "latencySpike", "point": "fabric.h1->s0",
              "atUs": 1, "forUs": 5e6, "extraNs": 1e9}]
})";
    Spec spec = topo::parseSpec(text, "slow.json");
    topo::Instance inst(spec, topo::BuildOptions{});
    inst.run();
    for (std::size_t i = 0; i < inst.trafficCount(); ++i) {
        const auto &t = inst.traffic(i);
        EXPECT_EQ(t.completed.value(), t.target) << t.name;
    }
    // Two links and a switch crossing each way: at least 6 s a ping.
    EXPECT_GE(inst.traffic(1).latUs.min(), 6e6);
    EXPECT_EQ(inst.faultsFired(), 1u);
}

TEST(TopoBuildT, SpansAtTheirBoundRunToTheEnd)
{
    // Every instant and span at sim::maxSpan, one simulated hour.
    const char *text = R"({
  "name": "late",
  "nodes": [
    {"name": "h0", "role": "host", "donor": "d0"},
    {"name": "h1", "role": "host"},
    {"name": "d0", "role": "donor", "donatedMiB": 32}
  ],
  "switches": [{"name": "s0"}],
  "links": [{"a": "h0", "b": "s0"}, {"a": "h1", "b": "s0"}],
  "traffic": [
    {"name": "mem", "kind": "memory", "src": "h0", "ops": 40,
     "startUs": 3.6e9},
    {"name": "ping", "kind": "rpc", "src": "h1", "dst": "h0", "ops": 20}
  ],
  "faults": [{"kind": "latencySpike", "point": "fabric.h1->s0",
              "atUs": 3.6e9, "forUs": 3.6e9, "extraNs": 1000}],
  "timelineUs": 3.6e9,
  "monitors": [
    {"name": "late", "metric": "mem.latP99Us", "op": ">",
     "threshold": 1e6, "fromUs": 3.6e9},
    {"name": "early", "metric": "ping.latP99Us", "op": ">",
     "threshold": 1e6, "untilUs": 3.6e9}
  ]
})";
    Spec spec = topo::parseSpec(text, "late.json");
    topo::Instance inst(spec, topo::BuildOptions{});
    ASSERT_TRUE(inst.timelineEnabled());
    inst.run();
    for (std::size_t i = 0; i < inst.trafficCount(); ++i) {
        const auto &t = inst.traffic(i);
        EXPECT_EQ(t.completed.value(), t.target) << t.name;
    }
    EXPECT_EQ(inst.faultsFired(), 1u);
    // The memory stanza and the fault run past the first hour.
    EXPECT_GE(inst.timeline().windows(), 2u);
}

TEST(TopoBuildT, InterferenceRaisesVictimTail)
{
    // Inline miniature of configs/noisy_neighbor.json: victim runs
    // quiet, then again alongside a bulk aggressor sharing the
    // oversubscribed core -> edge downlink.
    const char *text = R"({
      "name": "noisy_mini",
      "nodes": [
        {"name": "vc", "role": "host"}, {"name": "vs", "role": "host"},
        {"name": "ac", "role": "host"}, {"name": "as", "role": "host"}
      ],
      "switches": [{"name": "edge", "radix": 3},
                   {"name": "core", "radix": 3}],
      "links": [
        {"a": "vc", "b": "edge", "gbps": 100, "latencyNs": 500},
        {"a": "ac", "b": "edge", "gbps": 100, "latencyNs": 500},
        {"a": "edge", "b": "core", "gbps": 25, "latencyNs": 800},
        {"a": "core", "b": "vs", "gbps": 100, "latencyNs": 500},
        {"a": "core", "b": "as", "gbps": 100, "latencyNs": 500}
      ],
      "traffic": [
        {"name": "quiet", "kind": "rpc", "src": "vc", "dst": "vs",
         "requestBytes": 128, "responseBytes": 4096, "window": 2,
         "ops": 60, "startUs": 0},
        {"name": "aggr", "kind": "rpc", "src": "ac", "dst": "as",
         "requestBytes": 256, "responseBytes": 32768, "window": 8,
         "ops": 60, "startUs": 200},
        {"name": "contended", "kind": "rpc", "src": "vc", "dst": "vs",
         "requestBytes": 128, "responseBytes": 4096, "window": 2,
         "ops": 60, "startUs": 200}
      ]
    })";
    Spec spec = topo::parseSpec(text, "noisy_mini.json");
    topo::Instance inst(spec, topo::BuildOptions{});
    inst.run();

    const auto &quiet = inst.traffic(0);
    const auto &contended = inst.traffic(2);
    ASSERT_EQ(quiet.completed.value(), quiet.target);
    ASSERT_EQ(contended.completed.value(), contended.target);
    // The aggressor's 32 KiB responses park in the shared egress
    // queue; the contended victim's tail must visibly suffer.
    EXPECT_GT(contended.latUs.quantile(0.99),
              2.0 * quiet.latUs.quantile(0.99));
}

// ------------------------------------------------- monitors stanza

TEST(TopoMonitorsT, BadOpRejectedWithLocation)
{
    std::string err = expectError(R"({
      "name": "m", "nodes": [{"name": "h0", "role": "host"}],
      "monitors": [{"name": "r", "metric": "x.ops", "op": "!=",
                    "threshold": 1}]
    })");
    EXPECT_NE(err.find("test.json:3"), std::string::npos) << err;
    EXPECT_NE(err.find("op"), std::string::npos) << err;
}

TEST(TopoMonitorsT, MissingThresholdRejected)
{
    std::string err = expectError(R"({
      "name": "m", "nodes": [{"name": "h0", "role": "host"}],
      "monitors": [{"name": "r", "metric": "x.ops"}]
    })");
    EXPECT_NE(err.find("threshold"), std::string::npos) << err;
}

TEST(TopoMonitorsT, ZeroForWindowsRejected)
{
    std::string err = expectError(R"({
      "name": "m", "nodes": [{"name": "h0", "role": "host"}],
      "monitors": [{"name": "r", "metric": "x.ops",
                    "threshold": 1, "forWindows": 0}]
    })");
    EXPECT_NE(err.find("forWindows"), std::string::npos) << err;
}

TEST(TopoMonitorsT, UntilBeforeFromRejected)
{
    std::string err = expectError(R"({
      "name": "m", "nodes": [{"name": "h0", "role": "host"}],
      "monitors": [{"name": "r", "metric": "x.ops", "threshold": 1,
                    "fromUs": 100, "untilUs": 50}]
    })");
    EXPECT_NE(err.find("untilUs"), std::string::npos) << err;
}

TEST(TopoMonitorsT, DuplicateMonitorNameRejected)
{
    std::string err = expectError(R"({
      "name": "m", "nodes": [{"name": "h0", "role": "host"}],
      "monitors": [
        {"name": "r", "metric": "x.ops", "threshold": 1},
        {"name": "r", "metric": "y.ops", "threshold": 2}]
    })");
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(TopoMonitorsT, UnknownMetricIsABuildErrorListingSeries)
{
    std::string text(kValid);
    auto pos = text.rfind('}');
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos,
                R"(, "monitors": [{"name": "r",
                    "metric": "nosuch.latP99Us", "threshold": 1}])");
    Spec spec = topo::parseSpec(text, "mini.json");
    try {
        topo::Instance inst(spec, topo::BuildOptions{});
        FAIL() << "expected SpecError for unknown monitor metric";
    } catch (const SpecError &e) {
        std::string what = e.what();
        // file:line:col of the stanza, the typo, and what exists.
        EXPECT_NE(what.find("mini.json:"), std::string::npos) << what;
        EXPECT_NE(what.find("nosuch.latP99Us"), std::string::npos)
            << what;
        EXPECT_NE(what.find("ping.latP99Us"), std::string::npos)
            << what;
    }
}

TEST(TopoMonitorsT, DumpFlightBreachWritesIntoDumpDir)
{
    // A rule that trips in its first window dumps the owning LP's
    // flight ring, once, into the process dump directory, labelled
    // with that LP's name (h0 runs the "mem" traffic).
    std::string text(kValid);
    auto pos = text.rfind('}');
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos, R"(, "timelineUs": 10,
      "monitors": [{"name": "any_mem", "metric": "mem.latP50Us",
                    "op": ">", "threshold": 0, "dumpFlight": true}])");
    Spec spec = topo::parseSpec(text, "mini.json");

    std::string tmpl =
        (std::filesystem::temp_directory_path() / "tf_slo_XXXXXX")
            .string();
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
    const std::filesystem::path dir(tmpl);
    sim::trace::setDumpDir(dir.string());
    {
        topo::Instance inst(spec, topo::BuildOptions{});
        inst.run();
        EXPECT_EQ(inst.sloResults().size(), 1u);
        EXPECT_TRUE(!inst.sloResults().empty() &&
                    inst.sloResults()[0].violations >= 1);
    }
    sim::trace::setDumpDir("");
    std::ifstream in(dir / "tf_slo_any_mem.json");
    std::stringstream body;
    body << in.rdbuf();
    std::filesystem::remove_all(dir);
    EXPECT_NE(body.str().find("slo breach: any_mem"), std::string::npos)
        << body.str().substr(0, 200);
    EXPECT_NE(body.str().find("\"ph\""), std::string::npos);
    EXPECT_NE(body.str().find("\"args\":{\"name\":\"h0\"}"),
              std::string::npos)
        << body.str().substr(0, 400);
}

TEST(TopoMonitorsT, WatchdogTripsUnderContentionOnly)
{
    // The InterferenceRaisesVictimTail rig, with the interference
    // signal promoted to declarative SLO rules: the quiet-phase rule
    // must never trip, the contended-phase rule must.
    const char *text = R"({
      "name": "noisy_mon",
      "nodes": [
        {"name": "vc", "role": "host"}, {"name": "vs", "role": "host"},
        {"name": "ac", "role": "host"}, {"name": "as", "role": "host"}
      ],
      "switches": [{"name": "edge", "radix": 3},
                   {"name": "core", "radix": 3}],
      "links": [
        {"a": "vc", "b": "edge", "gbps": 100, "latencyNs": 500},
        {"a": "ac", "b": "edge", "gbps": 100, "latencyNs": 500},
        {"a": "edge", "b": "core", "gbps": 25, "latencyNs": 800},
        {"a": "core", "b": "vs", "gbps": 100, "latencyNs": 500},
        {"a": "core", "b": "as", "gbps": 100, "latencyNs": 500}
      ],
      "traffic": [
        {"name": "quiet", "kind": "rpc", "src": "vc", "dst": "vs",
         "requestBytes": 128, "responseBytes": 4096, "window": 2,
         "ops": 60, "startUs": 0},
        {"name": "aggr", "kind": "rpc", "src": "ac", "dst": "as",
         "requestBytes": 256, "responseBytes": 32768, "window": 8,
         "ops": 60, "startUs": 200},
        {"name": "contended", "kind": "rpc", "src": "vc", "dst": "vs",
         "requestBytes": 128, "responseBytes": 4096, "window": 2,
         "ops": 60, "startUs": 200}
      ],
      "timelineUs": 25,
      "monitors": [
        {"name": "quiet_tail", "metric": "quiet.latP99Us",
         "op": ">", "threshold": 30, "untilUs": 200},
        {"name": "contended_tail", "metric": "contended.latP99Us",
         "op": ">", "threshold": 30, "fromUs": 200}
      ]
    })";
    Spec spec = topo::parseSpec(text, "noisy_mon.json");

    topo::Instance inst(spec, topo::BuildOptions{});
    EXPECT_TRUE(inst.timelineEnabled());
    inst.run();
    const auto &slo = inst.sloResults();
    EXPECT_GT(inst.timeline().windows(), 0u);
    ASSERT_EQ(slo.size(), 2u);
    const auto &contended =
        slo[0].name == "contended_tail" ? slo[0] : slo[1];
    const auto &quiet =
        slo[0].name == "quiet_tail" ? slo[0] : slo[1];
    EXPECT_EQ(quiet.violations, 0u);
    EXPECT_GT(quiet.evaluated, 0u);
    EXPECT_GE(contended.violations, 1u);
    EXPECT_GT(contended.worstValue, 30.0);
    EXPECT_NE(contended.firstViolationTick, sim::maxTick);
}

#ifdef TF_TOPO_CONFIG_DIR
TEST(TopoConfigsT, CheckedInConfigsBuild)
{
    const char *files[] = {"ring.json", "chain.json", "fullmesh.json",
                           "noisy_neighbor.json"};
    for (const char *f : files) {
        std::string path = std::string(TF_TOPO_CONFIG_DIR) + "/" + f;
        Spec spec = topo::loadSpecFile(path);
        topo::BuildOptions opt;
        opt.smoke = true;
        topo::Instance inst(spec, opt);
        EXPECT_GT(inst.lpCount(), 0u) << f;
    }
}

namespace {

/** The text of checked-in config @p file. */
std::string
configText(const std::string &file)
{
    std::ifstream in(std::string(TF_TOPO_CONFIG_DIR) + "/" + file);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** @p text with its first @p from replaced by @p to. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text
                                   : text.replace(at, from.size(), to);
}

} // namespace

TEST(TopoConfigsT, DurationsARunWouldWrapRejected)
{
    // Each fits a Tick, but the run adds it to the clock or to another
    // duration, which wrapped 2^64 ps mid-run ("scheduling into the
    // past", the min-latency and timeline-boundary asserts) after the
    // spec had passed --validate.
    const std::string range = "beyond the simulated time range";
    const std::string ring = configText("ring.json");
    const std::string noisy = configText("noisy_neighbor.json");
    const std::string spike = R"("atUs": 100, "forUs": 50)";
    expectErrorAt(replaced(ring, R"("latencyNs": 500)", R"("latencyNs": @)"),
                  "1.8e16", range);
    expectErrorAt(replaced(ring, R"("crossingNs": 50)", R"("crossingNs": @)"),
                  "1.8e16", range);
    expectErrorAt(replaced(ring, spike, R"("atUs": @, "forUs": 1.8e13)"),
                  "1.8e13", range);
    expectErrorAt(replaced(ring, spike, R"("atUs": 100, "forUs": @)"),
                  "1.8e13", range);
    expectErrorAt(replaced(noisy, R"("timelineUs": 50)", R"("timelineUs": @)"),
                  "1.8e13", range);
}

TEST(TopoConfigsT, NoisyNeighborMonitorsTripAsDesigned)
{
    // The checked-in config's monitors are part of its contract:
    // quiet phase clean, contended phase tripping. CI additionally
    // pins slo.vic_quiet_tail.violations at 0 in the baseline.
    std::string path =
        std::string(TF_TOPO_CONFIG_DIR) + "/noisy_neighbor.json";
    Spec spec = topo::loadSpecFile(path);
    ASSERT_EQ(spec.monitors.size(), 2u);
    topo::BuildOptions opt;
    opt.smoke = true;
    topo::Instance inst(spec, opt);
    ASSERT_TRUE(inst.timelineEnabled());
    inst.run();

    ASSERT_EQ(inst.sloResults().size(), 2u);
    for (const auto &s : inst.sloResults()) {
        if (s.name == "vic_quiet_tail") {
            EXPECT_EQ(s.violations, 0u);
            EXPECT_GT(s.evaluated, 0u);
        } else {
            EXPECT_EQ(s.name, "vic_contended_tail");
            EXPECT_GE(s.violations, 1u);
        }
    }
}
#endif
