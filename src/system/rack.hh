/**
 * @file
 * Rack-scale cluster on the windowed LP engine.
 *
 * One logical process per rack: a compute node and its memory donor,
 * coupled by a full ThymesisFlow datapath (the ~950 ns ld/st path of
 * Fig. 2 — latency-critical, so it stays inside one partition), plus
 * the donor's DRAM. Racks are wired in a 100 Gb/s Ethernet ring; that
 * link's fixed one-way latency is what gives the engine its lookahead,
 * mirroring the paper's observation that the disaggregation fabric is
 * orders of magnitude tighter than the scale-out network.
 *
 * Each rack replays a shard of a synthetic ClusterData-like trace
 * (dc::shardTrace): a job burst issues chained 128 B loads through
 * the rack's thymesisflow, and a seeded per-rack coin decides whether
 * the job also performs one cross-rack RPC (request over the ring,
 * remote DRAM read, response back). Everything a rack does is driven
 * by its own queue and its own Rng; racks meet only through the ring's
 * engine channels.
 */

#ifndef TF_SYS_RACK_HH
#define TF_SYS_RACK_HH

#include <memory>
#include <string>
#include <vector>

#include "dc/trace.hh"
#include "net/switch.hh"
#include "sim/parallel/engine.hh"
#include "tflow/rig.hh"

namespace tf::sys {

struct RackParams
{
    /** Racks in the cluster; one LP (and one trace shard) each. */
    std::size_t racks = 4;
    /** Chained datapath loads issued per job burst. */
    int opsPerJob = 8;
    /** Probability that a job also performs one cross-rack RPC. */
    double crossRackFraction = 0.25;
    /** RPC request / response sizes on the inter-rack ring. */
    std::uint64_t rpcRequestBytes = 512;
    std::uint64_t rpcResponseBytes = 4096;
    /** Inter-rack ring links (their latency is the lookahead). */
    net::FabricLinkParams interRack = net::FabricLinkParams::hundredGig();
    flow::FlowParams flow;
    mem::DramParams dram;
};

class RackCluster
{
  public:
    /**
     * Build the cluster on @p engine: one LP per rack, the Ethernet
     * ring partitioned across them, and every job of @p shards
     * (shard i drives rack i) scheduled at its arrival tick.
     */
    RackCluster(const std::string &name,
                sim::par::ParallelEngine &engine,
                const std::vector<std::vector<dc::Job>> &shards,
                RackParams params, std::uint64_t seed);

    const RackParams &params() const { return _params; }
    std::size_t rackCount() const { return _racks.size(); }

    /** Datapath loads completed, summed over all racks. */
    std::uint64_t opsCompleted() const;

    /** Cross-rack RPC round trips completed, summed over all racks. */
    std::uint64_t crossRackOps() const;

    net::Fabric &network() { return *_net; }

    /**
     * Register per-rack counters and RPC latency under
     * "<prefix>.rack<i>", plus the ring links under "<prefix>.net".
     * Deterministic: no wall-clock values.
     */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix);

  private:
    /** One rack: compute + donor + datapath on a private LP. */
    struct Rack
    {
        std::size_t index;
        std::string endpoint;      ///< network endpoint name
        sim::par::LogicalProcess *lp;
        sim::Rng rng;
        std::unique_ptr<flow::Rig> rig;
        sim::Counter ops;          ///< datapath loads completed
        sim::Counter cross;        ///< RPC round trips completed
        sim::Summary rpcRttUs;     ///< per-RPC round-trip time

        Rack(std::size_t index, std::uint64_t seed)
            : index(index), lp(nullptr), rng(seed)
        {}
    };

    void startJob(Rack &rack, std::uint64_t jobId);
    void issueRead(Rack &rack, int remaining, std::uint64_t offset);
    void issueRpc(Rack &rack);

    std::string _name;
    RackParams _params;
    std::vector<std::unique_ptr<Rack>> _racks;
    std::unique_ptr<net::Fabric> _net;
};

} // namespace tf::sys

#endif // TF_SYS_RACK_HH
