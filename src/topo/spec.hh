/**
 * @file
 * Declarative topology & scenario description.
 *
 * A topology file is one JSON object describing a rack: nodes (hosts
 * and memory donors with per-node DRAM and page-cache config),
 * switches, links, traffic stanzas (closed-loop RPC or memory
 * workloads), and a fault schedule. parseSpec() turns the text into
 * a fully validated topo::Spec — every cross-reference resolved,
 * every unit range-checked — so the builder (builder.hh) can
 * instantiate it without further error handling, and a bad config is
 * a crisp SpecError naming file:line:col, never a TF_ASSERT deep in
 * a run.
 *
 * Schema (all latencies/durations in the unit the key names):
 *
 *   {
 *     "name": "ring",
 *     "nodes": [
 *       {"name": "h0", "role": "host", "donor": "d0",
 *        "channels": 2, "dram": {"accessNs": 90, "gbps": 110,
 *        "banks": 16}, "cache": {"enabled": true, "frameBudget": 64}},
 *       {"name": "d0", "role": "donor", "donatedMiB": 64}
 *     ],
 *     "switches": [{"name": "s0", "crossingNs": 50, "radix": 16}],
 *     "links": [{"a": "h0", "b": "s0", "gbps": 100,
 *                "latencyNs": 500}],
 *     "traffic": [
 *       {"name": "vic", "kind": "rpc", "src": "h0", "dst": "h1",
 *        "requestBytes": 128, "responseBytes": 4096, "window": 4,
 *        "ops": 2000, "smokeOps": 200, "startUs": 0},
 *       {"name": "mem", "kind": "memory", "src": "h0",
 *        "policy": "remote", "accessBytes": 128, "ops": 4000}
 *     ],
 *     "faults": [{"kind": "latencySpike", "point": "fabric.h0->s0",
 *                 "atUs": 50, "forUs": 20, "extraNs": 2000}],
 *     "timelineUs": 50,
 *     "monitors": [
 *       {"name": "vic_tail", "metric": "vic.latP99Us", "op": ">",
 *        "threshold": 30, "forWindows": 2, "fromUs": 500,
 *        "dumpFlight": false}
 *     ]
 *   }
 */

#ifndef TF_TOPO_SPEC_HH
#define TF_TOPO_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "topo/json.hh"

namespace tf::topo {

struct DramSpec
{
    double accessNs = 90.0;
    double gbps = 110.0; ///< gigaBYTES per second (DRAM convention)
    std::uint32_t banks = 16;
};

struct PageCacheSpec
{
    bool enabled = false;
    std::uint32_t frameBudget = 64;
    std::uint32_t lineMlp = 8;
    std::uint32_t lowWatermark = 4;
    std::uint32_t highWatermark = 8;
};

struct NodeSpec
{
    std::string name;
    /** "host" issues traffic; "donor" lends memory to its host. */
    std::string role = "host";
    /** Donor node claimed by this host ("" = none). */
    std::string donor;
    /** Bonded ThymesisFlow channels to the donor. */
    std::uint32_t channels = 1;
    /** Memory a donor lends (donor role only). */
    std::uint64_t donatedMiB = 64;
    DramSpec dram;
    PageCacheSpec cache;
};

struct SwitchSpec
{
    std::string name;
    double crossingNs = 50.0;
    std::uint32_t radix = 16;
};

struct LinkSpec
{
    std::string a;
    std::string b;
    double gbps = 100.0; ///< gigaBITS per second (network convention)
    double latencyNs = 500.0;
};

struct TrafficSpec
{
    std::string name;
    /** "rpc" = request/response over the fabric; "memory" = loads
     * and stores through the node's memory path. */
    std::string kind = "rpc";
    std::string src;
    std::string dst; ///< rpc only
    std::uint64_t requestBytes = 128;
    // 32 bits, like the sizes of the memory transactions they set.
    std::uint32_t responseBytes = 4096;
    std::uint32_t accessBytes = 128;
    /** memory only: "remote" (donated window), "local", or
     * "interleave" (alternate between the two). */
    std::string policy = "remote";
    std::uint32_t window = 4;
    std::uint64_t ops = 2000;
    /** Override for --smoke runs; 0 = ops / 10 (min 1). */
    std::uint64_t smokeOps = 0;
    double startUs = 0.0;
};

/**
 * Declarative SLO rule from the "monitors" stanza, bound at build
 * time to the timeline series named by @p metric (the builder
 * rejects unknown metrics with a file:line:col SpecError listing
 * what exists). Evaluated by the in-sim watchdog as timeline
 * windows close; results land under "slo.<name>.*".
 */
struct MonitorSpec
{
    std::string name;
    /** Timeline series, e.g. "vic.latP99Us" or
     * "fabric.s0->s1.queueDepth". */
    std::string metric;
    /** ">", "<", ">=" or "<=". */
    std::string op = ">";
    double threshold = 0.0;
    /** Consecutive bad windows before violations count. */
    std::uint32_t forWindows = 1;
    double fromUs = 0.0;
    /** < 0 = end of run. */
    double untilUs = -1.0;
    bool dumpFlight = false;
    /** file:line:col of the stanza, for build-time diagnostics. */
    std::string where;
};

struct FaultSpec
{
    /** fault kind name: channelFail, channelFlap, burstLoss,
     * latencySpike, dramStall, creditStarve, controlOutage,
     * cachePoison. */
    std::string kind;
    std::string point;
    double atUs = 0.0;
    double forUs = 0.0;
    double extraNs = 0.0;
};

struct Spec
{
    std::string name;
    std::vector<NodeSpec> nodes;
    std::vector<SwitchSpec> switches;
    std::vector<LinkSpec> links;
    std::vector<TrafficSpec> traffic;
    std::vector<FaultSpec> faults;
    std::vector<MonitorSpec> monitors;
    /** Timeline window width; the default applies when monitors are
     * declared (or the harness enables the timeline) without an
     * explicit "timelineUs". */
    double timelineUs = 50.0;
};

/** Parse + validate; @p origin names the source for errors. */
Spec parseSpec(const std::string &text, const std::string &origin);

/** Read @p path and parseSpec() it. */
Spec loadSpecFile(const std::string &path);

} // namespace tf::topo

#endif // TF_TOPO_SPEC_HH
