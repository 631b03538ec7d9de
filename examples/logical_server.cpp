/**
 * @file
 * Composing a logical server through the control plane's REST-style
 * interface, the way an administrator (or an orchestration framework
 * like OpenStack/Kubernetes, per the paper's future work) would.
 *
 * Builds two hosts plus a datapath, registers them with the control
 * plane, then drives everything through handleRequest(): allocate a
 * bonded flow, inspect it, run a workload on the new CPU-less NUMA
 * node, and tear the flow down.
 */

#include <cstdio>

#include "ctrl/control_plane.hh"
#include "mem/dram.hh"
#include "os/address_space.hh"
#include "system/memory_path.hh"
#include "system/node.hh"

using namespace tf;

int
main()
{
    sim::EventQueue eq;
    sim::Rng rng(99);

    sys::NodeParams node_params;
    sys::Node hostA("hostA", eq, node_params);
    sys::Node hostB("hostB", eq, node_params);

    // Point-to-point ThymesisFlow datapath, hostA compute side.
    flow::Datapath dp("tflow", eq, flow::FlowParams{},
                      ocapi::M1Window{ocapi::kM1WindowBase, 1ULL << 30},
                      hostB.pasids(), hostB.dram(), rng,
                      node_params.sectionBytes);
    hostA.attachDatapath(dp);

    ctrl::ControlPlane cp(eq, node_params.agentToken);
    cp.addUser("alice-admin", ctrl::Role::Admin);
    cp.addUser("bob-observer", ctrl::Role::Observer);
    cp.registerHost("hostA", hostA.agent(), hostA.mm());
    cp.registerHost("hostB", hostB.agent(), hostB.mm());
    cp.registerDatapath("hostA", "hostB", dp);

    auto topo = cp.handleRequest("bob-observer", "GET", "/topology");
    std::printf("topology: %s\n", topo.body.c_str());

    // Compose: steal 128 MiB from hostB, bonded over both channels,
    // onto hostA's CPU-less NUMA node.
    std::string body = "compute=hostA donor=hostB bytes=134217728 "
                       "numa=" +
                       std::to_string(hostA.tflowNode()) +
                       " channels=2";
    auto created = cp.handleRequest("alice-admin", "POST", "/flows",
                                    body);
    std::printf("POST /flows -> %d %s\n", created.status,
                created.body.c_str());

    auto flows = cp.handleRequest("bob-observer", "GET", "/flows");
    std::printf("GET /flows ->\n%s", flows.body.c_str());

    // A rogue token cannot mutate the system.
    auto rogue = cp.handleRequest("mallory", "DELETE", "/flows/1");
    std::printf("rogue DELETE -> %d %s\n", rogue.status,
                rogue.body.c_str());

    // Use the composed memory: bind to the new NUMA node and touch it.
    os::AddressSpace space(hostA.mm(), hostA.localNode(),
                           os::AllocPolicy::bind({hostA.tflowNode()}));
    sys::MemoryPath path(hostA);
    mem::Addr va = space.mmap(16 * 1024 * 1024);
    std::vector<mem::Addr> lines;
    for (int i = 0; i < 4096; ++i)
        lines.push_back(va + static_cast<mem::Addr>(i) * 128);
    bool done = false;
    path.burst(space, lines, true, 16, [&]() { done = true; });
    eq.run();
    std::printf("touched 4096 remote lines: %s (mean RTT %.0f ns)\n",
                done ? "ok" : "FAILED",
                dp.compute().rttNs().mean());

    // Tear down: free the pages first, then delete the flow.
    space.munmap(va, 16 * 1024 * 1024);
    auto removed =
        cp.handleRequest("alice-admin", "DELETE", "/flows/1");
    std::printf("DELETE /flows/1 -> %d %s\n", removed.status,
                removed.body.c_str());
    std::printf("remote node pages after teardown: %llu\n",
                (unsigned long long)hostA.mm().totalPages(
                    hostA.tflowNode()));
    return 0;
}
