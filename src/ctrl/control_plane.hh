/**
 * @file
 * Software-defined control plane (Section IV-C).
 *
 * Responsibilities, as in the paper: i) system state maintenance (the
 * property graph), ii) configuration of endpoints via the trusted
 * host agents, iii) a system access interface (a REST-style command
 * handler), and iv) security and access control (per-user tokens with
 * roles; agents only accept the control plane's token).
 *
 * For each allocation request the control plane traverses the graph
 * for the best available path(s) between the compute and
 * memory-stealing endpoints, reserves their resources, and pushes the
 * resulting configuration to the agents on both hosts.
 */

#ifndef TF_CTRL_CONTROL_PLANE_HH
#define TF_CTRL_CONTROL_PLANE_HH

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "agent/agent.hh"
#include "ctrl/graph.hh"
#include "sim/event_queue.hh"
#include "sim/fault/fault.hh"
#include "sim/stats.hh"

namespace tf::ctrl {

enum class Role { Admin, Observer };

/** A composed disaggregated-memory allocation. */
struct AllocationRecord
{
    std::uint64_t id = 0;
    std::string computeHost;
    std::string donorHost;
    agent::Donation donation;
    agent::Attachment attachment;
    std::vector<Path> paths; ///< reserved network paths (1 per channel)
    /** Channel index carried by paths[i] (kept in lockstep). */
    std::vector<int> channels;
    /** Channel count originally requested; repair grows back to it. */
    int channelsWanted = 0;
    double demandGbpsPerPath = 0;
    flow::Datapath *datapath = nullptr;
};

class ControlPlane
{
  public:
    /**
     * Quarantine of a channel reporting back up: it is re-admitted
     * (edge up, allocations regrown) only after
     * kHoldDownBase << (flaps - 1), capped at kHoldDownMax. A re-flap
     * during the quarantine cancels the pending re-admission and
     * doubles the next one, so a flap storm costs one repair per down
     * instead of a repair/regrow pair per cycle.
     */
    static constexpr sim::Tick kHoldDownBase = sim::microseconds(5);
    static constexpr sim::Tick kHoldDownMax = sim::microseconds(80);

    /** Timers run on @p eq; @p agentToken goes to trusted agents. */
    ControlPlane(sim::EventQueue &eq, std::string agentToken);

    const std::string &agentToken() const { return _agentToken; }

    // ------------------------- users / ACL -------------------------

    void addUser(const std::string &userToken, Role role);
    bool isAuthorised(const std::string &userToken, Role needed) const;

    // --------------------- topology registration -------------------

    /** Register a host (both roles); creates its endpoint vertices. */
    void registerHost(const std::string &name, agent::Agent &agent,
                      os::MemoryManager &mm);

    /**
     * Register a point-to-point datapath between two registered
     * hosts; creates transceiver vertices and 100 Gb/s link edges,
     * one per channel.
     */
    void registerDatapath(const std::string &computeHost,
                          const std::string &donorHost,
                          flow::Datapath &datapath);

    const PropertyGraph &graph() const { return _graph; }

    // --------------------------- operations ------------------------

    /**
     * Compose disaggregated memory: steal @p bytes on the donor,
     * reserve @p channelsWanted network paths, configure the
     * endpoints, and hotplug the memory into @p numaNode on the
     * compute host.
     * @return the allocation id, or nullopt (no capacity / memory /
     *         permission).
     */
    std::optional<std::uint64_t>
    allocate(const std::string &userToken,
             const std::string &computeHost,
             const std::string &donorHost, std::uint64_t bytes,
             os::NodeId numaNode, int channelsWanted = 1,
             os::NodeId donorNode = 0);

    /** Tear an allocation down and release every resource. */
    bool deallocate(const std::string &userToken, std::uint64_t id);

    const AllocationRecord *allocation(std::uint64_t id) const;
    std::size_t allocationCount() const { return _allocations.size(); }

    // ------------------------ failure repair ------------------------

    /**
     * Fault injection: control-plane outage. Link events arriving in
     * the next @p duration ticks are deferred (FIFO) and processed
     * when the outage lifts.
     */
    void controlOutage(sim::Tick duration);

    /** Register the "<name>" ControlOutage fault point. */
    void registerFaultPoints(sim::fault::Registry &reg,
                             const std::string &name);

    /** Successful path repairs (replacement channel found + pushed). */
    std::uint64_t repairs() const { return _repairs.value(); }
    /** Allocations degraded to fewer channels (no spare capacity). */
    std::uint64_t degrades() const { return _degrades.value(); }
    /** Allocations torn down after losing every channel. */
    std::uint64_t teardowns() const { return _teardowns.value(); }
    /** Allocations regrown to their wanted width after recovery. */
    std::uint64_t regrows() const { return _regrows.value(); }
    /** Channel re-admissions delayed by the hold-down. */
    std::uint64_t holdDowns() const { return _holdDowns.value(); }
    /** Link events deferred by control-plane outages. */
    std::uint64_t deferredLinkEvents() const
    {
        return _deferredEvents.value();
    }

    /** Attach the repair-ladder outcome counters for telemetry. */
    void attachStats(sim::StatSet &set);

    // ----------------------- REST-style access ---------------------

    struct HttpResponse
    {
        int status = 200;
        std::string body;
    };

    /**
     * Handle a REST-style request:
     *   POST /flows    body: compute=H donor=H bytes=N numa=N
     *                        channels=N [donor_node=N]
     *   DELETE /flows/<id>
     *   GET /flows | GET /flows/<id> | GET /topology
     * Mutations need an Admin token; reads need any known token.
     */
    HttpResponse handleRequest(const std::string &userToken,
                               const std::string &method,
                               const std::string &path,
                               const std::string &body = "");

  private:
    struct HostInfo
    {
        agent::Agent *agent = nullptr;
        os::MemoryManager *mm = nullptr;
        VertexId computeEp = 0;
        VertexId memoryEp = 0;
    };

    struct DatapathInfo
    {
        flow::Datapath *datapath = nullptr;
        std::string computeHost;
        std::string donorHost;
        /** channel index -> link edge id. */
        std::vector<EdgeId> channelEdges;
    };

    sim::EventQueue &_eq;
    std::string _agentToken;
    std::map<std::string, Role> _users;
    PropertyGraph _graph;
    std::map<std::string, HostInfo> _hosts;
    std::vector<DatapathInfo> _datapaths;
    std::map<std::uint64_t, AllocationRecord> _allocations;
    std::uint64_t _nextAllocation = 1;
    sim::Counter _repairs;
    sim::Counter _degrades;
    sim::Counter _teardowns;
    sim::Counter _regrows;
    sim::Counter _holdDowns;
    sim::Counter _outages;
    sim::Counter _deferredEvents;

    /** Per-(datapath, channel) flap-tracking state for the hold-down. */
    struct ChannelHealth
    {
        std::uint32_t flapCount = 0;
        sim::EventQueue::EventId readmit =
            sim::EventQueue::invalidEvent;
    };

    std::map<std::pair<std::size_t, std::size_t>, ChannelHealth>
        _chHealth;
    /** Outage window end; link events before it are deferred. */
    sim::Tick _outageUntil = 0;
    std::vector<std::tuple<std::size_t, std::size_t, bool>> _deferred;

    DatapathInfo *findDatapath(const std::string &computeHost,
                               const std::string &donorHost);
    void onLinkEvent(std::size_t dpIndex, std::size_t channel,
                     bool down);
    void processLinkEvent(std::size_t dpIndex, std::size_t channel,
                          bool down);
    void readmitChannel(std::size_t dpIndex, std::size_t channel);
    void repairAllocation(AllocationRecord &rec,
                          const DatapathInfo &dpi, std::size_t channel);
    void growAllocation(AllocationRecord &rec, const DatapathInfo &dpi);
    void forceTeardown(std::uint64_t id);
    void pushRoute(AllocationRecord &rec);
    std::vector<int> channelsFromPaths(const DatapathInfo &dpi,
                                       const std::vector<Path> &paths)
        const;
    static std::map<std::string, std::string>
    parseBody(const std::string &body);
};

} // namespace tf::ctrl

#endif // TF_CTRL_CONTROL_PLANE_HH
