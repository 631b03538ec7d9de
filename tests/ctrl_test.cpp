/**
 * @file
 * Control-plane tests: property graph, path finding with reservation,
 * ACL, and orchestrated allocate/deallocate through real agents.
 */

#include <gtest/gtest.h>

#include "ctrl/control_plane.hh"
#include "mem/dram.hh"

using namespace tf;
using namespace tf::ctrl;
using tf::mem::Addr;

// ------------------------------------------------------- graph

TEST(Graph, AddAndQuery)
{
    PropertyGraph g;
    VertexId a = g.addVertex(VertexType::ComputeEndpoint, "a");
    VertexId b = g.addVertex(VertexType::MemoryEndpoint, "b");
    EdgeId e = g.addEdge(a, b, 100.0);
    EXPECT_EQ(g.vertexCount(), 2u);
    EXPECT_EQ(g.edgeCount(), 1u);
    EXPECT_EQ(g.edge(e).free(), 100.0);
    EXPECT_EQ(g.findByName("b"), b);
    EXPECT_FALSE(g.findByName("zzz").has_value());
    auto nb = g.neighbours(a);
    ASSERT_EQ(nb.size(), 1u);
    EXPECT_EQ(nb[0].second, b);
}

TEST(Graph, RemoveVertexDropsEdges)
{
    PropertyGraph g;
    VertexId a = g.addVertex(VertexType::Transceiver, "a");
    VertexId b = g.addVertex(VertexType::Transceiver, "b");
    VertexId c = g.addVertex(VertexType::Transceiver, "c");
    g.addEdge(a, b, 10);
    g.addEdge(b, c, 10);
    g.removeVertex(b);
    EXPECT_EQ(g.edgeCount(), 0u);
    EXPECT_TRUE(g.neighbours(a).empty());
}

TEST(Graph, FindPathShortest)
{
    PropertyGraph g;
    // a - b - c and a direct a - c edge: direct wins.
    VertexId a = g.addVertex(VertexType::ComputeEndpoint, "a");
    VertexId b = g.addVertex(VertexType::SwitchPort, "b");
    VertexId c = g.addVertex(VertexType::MemoryEndpoint, "c");
    g.addEdge(a, b, 100);
    g.addEdge(b, c, 100);
    g.addEdge(a, c, 100);
    auto p = g.findPath(a, c, 25);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->edges.size(), 1u);
    EXPECT_EQ(p->vertices.front(), a);
    EXPECT_EQ(p->vertices.back(), c);
}

TEST(Graph, FindPathRespectsCapacity)
{
    PropertyGraph g;
    VertexId a = g.addVertex(VertexType::ComputeEndpoint, "a");
    VertexId b = g.addVertex(VertexType::SwitchPort, "b");
    VertexId c = g.addVertex(VertexType::MemoryEndpoint, "c");
    EdgeId direct = g.addEdge(a, c, 20);
    g.addEdge(a, b, 100);
    g.addEdge(b, c, 100);
    // Demand 25 exceeds the direct edge's capacity -> two-hop path.
    auto p = g.findPath(a, c, 25);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->edges.size(), 2u);
    EXPECT_EQ(std::count(p->edges.begin(), p->edges.end(), direct), 0);
}

TEST(Graph, ReserveAndRelease)
{
    PropertyGraph g;
    VertexId a = g.addVertex(VertexType::ComputeEndpoint, "a");
    VertexId c = g.addVertex(VertexType::MemoryEndpoint, "c");
    EdgeId e = g.addEdge(a, c, 100);
    auto p = g.findPath(a, c, 60);
    ASSERT_TRUE(p.has_value());
    g.reserve(*p, 60);
    EXPECT_DOUBLE_EQ(g.edge(e).free(), 40.0);
    EXPECT_FALSE(g.findPath(a, c, 60).has_value());
    g.release(*p, 60);
    EXPECT_DOUBLE_EQ(g.edge(e).free(), 100.0);
}

TEST(Graph, FindPathAvoidsDownEdges)
{
    PropertyGraph g;
    VertexId a = g.addVertex(VertexType::ComputeEndpoint, "a");
    VertexId b = g.addVertex(VertexType::SwitchPort, "b");
    VertexId c = g.addVertex(VertexType::MemoryEndpoint, "c");
    EdgeId direct = g.addEdge(a, c, 100);
    g.addEdge(a, b, 100);
    g.addEdge(b, c, 100);

    // The shorter direct edge goes down: routing detours via b.
    g.setEdgeUp(direct, false);
    EXPECT_FALSE(g.edge(direct).up);
    auto p = g.findPath(a, c, 25);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->edges.size(), 2u);
    EXPECT_EQ(std::count(p->edges.begin(), p->edges.end(), direct), 0);

    // Back up: the direct edge wins again.
    g.setEdgeUp(direct, true);
    auto p2 = g.findPath(a, c, 25);
    ASSERT_TRUE(p2.has_value());
    EXPECT_EQ(p2->edges.size(), 1u);
    EXPECT_EQ(p2->edges[0], direct);
}

TEST(Graph, OnlyPathDownMeansNoPath)
{
    PropertyGraph g;
    VertexId a = g.addVertex(VertexType::ComputeEndpoint, "a");
    VertexId c = g.addVertex(VertexType::MemoryEndpoint, "c");
    EdgeId e = g.addEdge(a, c, 100);
    g.setEdgeUp(e, false);
    EXPECT_FALSE(g.findPath(a, c, 25).has_value());
}

TEST(Graph, DisjointPathsViaExclusion)
{
    PropertyGraph g;
    VertexId a = g.addVertex(VertexType::ComputeEndpoint, "a");
    VertexId c = g.addVertex(VertexType::MemoryEndpoint, "c");
    g.addEdge(a, c, 100);
    g.addEdge(a, c, 100);
    auto p1 = g.findPath(a, c, 25);
    ASSERT_TRUE(p1.has_value());
    auto p2 = g.findPath(a, c, 25, &p1->edges);
    ASSERT_TRUE(p2.has_value());
    EXPECT_NE(p1->edges[0], p2->edges[0]);
    auto p3_edges = p1->edges;
    p3_edges.insert(p3_edges.end(), p2->edges.begin(),
                    p2->edges.end());
    EXPECT_FALSE(g.findPath(a, c, 25, &p3_edges).has_value());
}

// ------------------------------------------- orchestration fixture

namespace {

constexpr std::uint64_t kSection = 1 << 22; // 4 MiB
constexpr std::uint64_t kPage = 64 * 1024;
constexpr Addr kWindowBase = ocapi::kM1WindowBase;
constexpr std::uint64_t kWindowSize = 1ULL << 28;
const std::string kAgentToken = "agent-secret";
const std::string kAdmin = "admin-tok";
const std::string kObserver = "observer-tok";

struct CtrlFixture : ::testing::Test
{
    sim::EventQueue eq;
    sim::Rng rng{5};

    os::NumaTopology topoA, topoB;
    std::unique_ptr<os::MemoryManager> mmA, mmB;
    os::NodeId localA{}, tflowNode{}, localB{};
    ocapi::PasidRegistry pasidsA, pasidsB;
    std::unique_ptr<agent::Agent> agentA, agentB;
    mem::BackingStore storeB;
    std::unique_ptr<mem::Dram> dramB;
    std::unique_ptr<flow::Datapath> dp;
    std::unique_ptr<ControlPlane> cp;

    void
    SetUp() override
    {
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
            "dp", eq, flow::FlowParams{},
            ocapi::M1Window{kWindowBase, kWindowSize}, pasidsB,
            *dramB, rng, kSection);

        cp = std::make_unique<ControlPlane>(eq, kAgentToken);
        cp->addUser(kAdmin, Role::Admin);
        cp->addUser(kObserver, Role::Observer);
        cp->registerHost("hostA", *agentA, *mmA);
        cp->registerHost("hostB", *agentB, *mmB);
        cp->registerDatapath("hostA", "hostB", *dp);
    }
};

} // namespace

TEST_F(CtrlFixture, TopologyGraphShape)
{
    // 2 hosts x 2 endpoint vertices + 2 channels x 2 transceivers.
    EXPECT_EQ(cp->graph().vertexCount(), 8u);
    // Per channel: ep-tx, tx-tx, tx-ep = 3 edges; 2 channels.
    EXPECT_EQ(cp->graph().edgeCount(), 6u);
}

TEST_F(CtrlFixture, AllocateComposesMemory)
{
    auto id = cp->allocate(kAdmin, "hostA", "hostB", 2 * kSection,
                           tflowNode, 1, localB);
    ASSERT_TRUE(id.has_value());
    const AllocationRecord *rec = cp->allocation(*id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->donation.bytes(), 2 * kSection);
    EXPECT_EQ(rec->paths.size(), 1u);
    // Memory is online on the CPU-less node of hostA.
    EXPECT_EQ(mmA->totalPages(tflowNode), 2 * (kSection / kPage));
}

TEST_F(CtrlFixture, ObserverCannotAllocate)
{
    EXPECT_FALSE(cp->allocate(kObserver, "hostA", "hostB", kSection,
                              tflowNode, 1, localB)
                     .has_value());
    EXPECT_FALSE(cp->allocate("rogue", "hostA", "hostB", kSection,
                              tflowNode, 1, localB)
                     .has_value());
}

TEST_F(CtrlFixture, BondedAllocationUsesDisjointChannels)
{
    auto id = cp->allocate(kAdmin, "hostA", "hostB", kSection,
                           tflowNode, 2, localB);
    ASSERT_TRUE(id.has_value());
    const AllocationRecord *rec = cp->allocation(*id);
    ASSERT_EQ(rec->paths.size(), 2u);
    EXPECT_NE(rec->paths[0].edges, rec->paths[1].edges);
    EXPECT_TRUE(rec->attachment.networkId != mem::invalidNetworkId);
}

TEST_F(CtrlFixture, CapacityExhaustionFailsCleanly)
{
    // Each flow soft-reserves 25 Gb/s per channel link; 4 single-
    // channel flows fill channel 0's 100 Gb/s, then BFS shifts to
    // channel 1; after 8 the fabric is full.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 8; ++i) {
        auto id = cp->allocate(kAdmin, "hostA", "hostB", kSection,
                               tflowNode, 1, localB);
        ASSERT_TRUE(id.has_value()) << "allocation " << i;
        ids.push_back(*id);
    }
    auto extra = cp->allocate(kAdmin, "hostA", "hostB", kSection,
                              tflowNode, 1, localB);
    EXPECT_FALSE(extra.has_value());
    // Deallocate one and retry.
    EXPECT_TRUE(cp->deallocate(kAdmin, ids[0]));
    EXPECT_TRUE(cp->allocate(kAdmin, "hostA", "hostB", kSection,
                             tflowNode, 1, localB)
                    .has_value());
}

TEST_F(CtrlFixture, DeallocateReleasesEverything)
{
    std::uint64_t free_b = mmB->freePages(localB);
    auto id = cp->allocate(kAdmin, "hostA", "hostB", kSection,
                           tflowNode, 2, localB);
    ASSERT_TRUE(id.has_value());
    EXPECT_LT(mmB->freePages(localB), free_b);
    ASSERT_TRUE(cp->deallocate(kAdmin, *id));
    EXPECT_EQ(mmB->freePages(localB), free_b);
    EXPECT_EQ(mmA->totalPages(tflowNode), 0u);
    EXPECT_EQ(cp->allocationCount(), 0u);
}

TEST_F(CtrlFixture, RestApiAllocateAndQuery)
{
    auto resp = cp->handleRequest(
        kAdmin, "POST", "/flows",
        "compute=hostA donor=hostB bytes=4194304 numa=" +
            std::to_string(tflowNode) + " channels=2");
    EXPECT_EQ(resp.status, 201);
    EXPECT_EQ(resp.body.rfind("id=", 0), 0u);
    std::uint64_t id = std::stoull(resp.body.substr(3));

    auto list = cp->handleRequest(kObserver, "GET", "/flows");
    EXPECT_EQ(list.status, 200);
    EXPECT_NE(list.body.find("compute=hostA"), std::string::npos);

    auto one = cp->handleRequest(kObserver, "GET",
                                 "/flows/" + std::to_string(id));
    EXPECT_EQ(one.status, 200);

    auto del = cp->handleRequest(kAdmin, "DELETE",
                                 "/flows/" + std::to_string(id));
    EXPECT_EQ(del.status, 200);
    auto gone = cp->handleRequest(kObserver, "GET",
                                  "/flows/" + std::to_string(id));
    EXPECT_EQ(gone.status, 404);
}

TEST_F(CtrlFixture, RestApiAccessControl)
{
    auto resp = cp->handleRequest(kObserver, "POST", "/flows",
                                  "compute=hostA donor=hostB "
                                  "bytes=4194304 numa=1");
    EXPECT_EQ(resp.status, 403);
    auto rogue = cp->handleRequest("rogue", "GET", "/flows");
    EXPECT_EQ(rogue.status, 403);
    auto topo = cp->handleRequest(kObserver, "GET", "/topology");
    EXPECT_EQ(topo.status, 200);
    auto bad = cp->handleRequest(kAdmin, "POST", "/flows",
                                 "compute=hostA bytes=1");
    EXPECT_EQ(bad.status, 400);
}
