/**
 * @file
 * Topology instantiation: Spec -> running simulation.
 *
 * An Instance turns a validated topo::Spec into the same wiring the
 * hand-written rigs use — sys::Node per node, flow::Datapath +
 * ctrl::ControlPlane per host/donor pair (replicating
 * Testbed::composeDisaggregated), optional page cache, a net::Fabric
 * over the declared switches and links, per-LP fault registries with
 * the scheduled FaultSpecs armed, and closed-loop traffic runners —
 * partitioned onto a sim::par::ParallelEngine so `--jobs N` stays
 * bit-identical to serial.
 *
 * Partitioning: each host (together with its claimed donor) is one
 * LP, each unclaimed donor one LP, each switch one LP. Fabric links
 * live on their source element's LP and cross partitions through
 * engine channels with the link's wire latency as lookahead.
 *
 * Everything that can go wrong from a config file throws SpecError
 * at build time (unknown fault point, compose failure); TF_ASSERT is
 * reserved for internal invariants.
 */

#ifndef TF_TOPO_BUILDER_HH
#define TF_TOPO_BUILDER_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/control_plane.hh"
#include "net/switch.hh"
#include "sim/fault/fault.hh"
#include "sim/parallel/engine.hh"
#include "sim/timeline/timeline.hh"
#include "system/node.hh"
#include "topo/spec.hh"

namespace tf::topo {

struct BuildOptions
{
    std::uint64_t seed = 42;
    unsigned jobs = 1;
    /** Scale traffic to each stanza's smokeOps. */
    bool smoke = false;
    /** Response-framing override (bench --cut-through). */
    std::optional<bool> cutThrough;
    /**
     * Timeline window width override (bench --timeline-window), in
     * microseconds. 0 keeps the spec's choice: the timeline is on
     * whenever the spec declares monitors (width = spec.timelineUs)
     * and off otherwise.
     */
    double timelineUs = 0.0;
    /** Directory for SLO dumpFlight breach dumps ("" = cwd). */
    std::string dumpDir;
};

class Instance
{
  public:
    Instance(const Spec &spec, BuildOptions opt);
    ~Instance();

    Instance(const Instance &) = delete;
    Instance &operator=(const Instance &) = delete;

    const Spec &spec() const { return _spec; }

    /** Start every traffic runner and drain the engine. */
    std::uint64_t run();

    std::size_t lpCount() const { return _engine->lpCount(); }
    sim::par::LogicalProcess &lp(std::size_t i)
    {
        return _engine->lp(i);
    }

    net::Fabric &fabric() { return *_fabric; }

    /** Per-traffic-stanza outcome, in spec order. */
    struct TrafficStats
    {
        std::string name;
        std::uint64_t target = 0;  ///< ops requested
        sim::Counter completed;    ///< ops finished
        sim::SampleStat latUs;     ///< per-op latency, microseconds
        /** Same latencies, sketched — feeds the per-window p50/p95/
         * p99 timeline series ("<name>.latP99Us"). */
        sim::QuantileSketch latSketch;
        sim::Tick lastDone = 0; ///< completion time of the last op
    };

    std::size_t trafficCount() const { return _runners.size(); }
    const TrafficStats &traffic(std::size_t i) const;

    /** Fault events fired, summed over the per-LP engines. */
    std::uint64_t faultsFired() const;

    /** Simulated span: latest traffic completion across stanzas. */
    sim::Tick lastCompletion() const;

    /** Is the windowed timeline recording this instance? */
    bool timelineEnabled() const { return !_recorders.empty(); }

    /**
     * The merged timeline (empty until run() finishes). Valid for
     * the Instance's lifetime; the bench harness adopts a copy.
     */
    const sim::timeline::Timeline &timeline() const { return _timeline; }

    /** Watchdog outcomes, one per monitors stanza (post-run). */
    const std::vector<sim::timeline::SloResult> &sloResults() const
    {
        return _timeline.slo();
    }

    /**
     * Register the whole instance under @p reg:
     *   <host>.tflow[...] / <host>.ctrl / <host>.cache
     *   <node>.dram           every node's memory controller
     *   fabric.*              per-link + per-switch counters
     *   traffic.<name>        completed ops per stanza
     *   fault.<lp>            per-LP fault engine counters
     *   sim.par[...]          engine + per-LP kernels
     */
    void registerStats(sim::StatsRegistry &reg);

  private:
    struct Group;
    struct Runner;

    const Spec _spec;
    BuildOptions _opt;
    std::unique_ptr<sim::par::ParallelEngine> _engine;
    std::vector<std::unique_ptr<Group>> _groups;
    /** Every node's group, by node name (hosts and their donors). */
    std::map<std::string, Group *> _groupOf;
    std::unique_ptr<net::Fabric> _fabric;
    std::vector<std::unique_ptr<Runner>> _runners;
    /** Per-LP fault plumbing, index = LP id. */
    std::vector<std::unique_ptr<sim::fault::Registry>> _faultRegs;
    std::vector<std::unique_ptr<sim::fault::Engine>> _faultEngines;
    /** Per-LP timeline recorders, index = LP id; empty = disabled. */
    std::vector<std::unique_ptr<sim::timeline::Recorder>> _recorders;
    sim::timeline::Timeline _timeline;
    bool _harvested = false;

    Group *group(const std::string &nodeName);
    sys::Node *nodeOf(const std::string &nodeName);
    void buildGroups();
    void buildFabric();
    void buildFaults();
    void buildTraffic();
    void buildTimeline();
    void harvestTimeline();
    void startRpc(Runner &r);
    void startMemory(Runner &r);
    void rpcOp(Runner &r);
    void memoryOp(Runner &r);
};

} // namespace tf::topo

#endif // TF_TOPO_BUILDER_HH
