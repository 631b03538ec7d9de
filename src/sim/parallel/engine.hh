/**
 * @file
 * Conservative windowed discrete-event engine over logical processes.
 *
 * The simulation is partitioned into logical processes (LPs), each
 * owning a private EventQueue (src/sim/event_queue.hh) — one kernel
 * per simulated node or node group. LPs are coupled only through
 * LinkChannels, whose guaranteed minimum latencies yield the engine's
 * lookahead:
 *
 *     lookahead L = min over channels of minLatency()
 *
 * Execution proceeds in bounded windows. Each round the engine
 * computes the global floor F (the earliest pending event across all
 * LPs), then runs every LP's events in [F, F + L), in LP-id order: no
 * message sent during the window can be due before F + L, so no LP
 * can affect another inside the window. At the window's end the
 * engine drains every channel and merges the messages into the
 * destination queues sorted by (tick, source LP, channel, sequence).
 *
 * Everything runs on the calling thread. The partitioning is what
 * composes multi-node rigs (sys::RackCluster, topo::Instance), and
 * the windows and the sorted merge fix their event order. With a
 * single LP — or no channels — the engine degenerates to plain
 * EventQueue::run semantics.
 *
 * Contract for components: everything built on an LP's queue belongs
 * to that LP; cross-partition interaction must go through a
 * LinkChannel (net::Fabric routes through them — see its
 * assign/partition API).
 */

#ifndef TF_SIM_PARALLEL_ENGINE_HH
#define TF_SIM_PARALLEL_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/parallel/link_channel.hh"
#include "sim/parallel/lp.hh"

namespace tf::sim::par {

class ParallelEngine
{
  public:
    ParallelEngine() = default;

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /**
     * Create the next logical process. Stable id = creation order.
     * Its trace buffer joins LP 0's flight ring, so the engine keeps
     * the newest TraceBuffer::kFlightCap sampled events of all its
     * LPs together; an engine has fewer than 65,536 LPs (TF_ASSERT).
     */
    LogicalProcess &addLp(std::string name);

    /**
     * Create a unidirectional channel src -> dst with a guaranteed
     * minimum latency (> 0, TF_ASSERT-enforced: zero lookahead would
     * deadlock a conservative engine). The engine's lookahead is the
     * minimum over all connected channels.
     */
    LinkChannel &connect(LogicalProcess &src, LogicalProcess &dst,
                         Tick minLatency, std::string name = "");

    /** Current lookahead; maxTick when no channels exist. */
    Tick lookahead() const;

    /**
     * Run every LP's events up to and including @p limit, window by
     * window. Returns events executed. Like EventQueue::run, a finite
     * limit warps every LP's clock to @p limit on return.
     */
    std::uint64_t run(Tick limit = maxTick);

    std::size_t lpCount() const { return _lps.size(); }
    LogicalProcess &lp(std::size_t i) { return *_lps.at(i); }

    std::size_t channelCount() const { return _channels.size(); }

    /** Synchronization windows executed over the engine's lifetime. */
    std::uint64_t windows() const { return _windows.value(); }

    /** Cross-LP messages merged over the engine's lifetime. */
    std::uint64_t merged() const { return _mergedTotal.value(); }

    /** Events executed across all LPs over the engine's lifetime. */
    std::uint64_t executed() const;

    /**
     * Register engine + per-LP kernel telemetry:
     *   <prefix>            windows / merged / lps / lookaheadNs
     *   <prefix>.lp<N>      sim.eq counters + activeWindows + merged
     *   <prefix>.chan<N>    per-channel sent/delivered
     */
    void attachStats(StatsRegistry &reg, const std::string &prefix);

  private:
    struct MergeItem
    {
        Tick when;
        LpId src;
        std::uint32_t chan;
        std::uint64_t seq;
        LinkChannel::Msg *msg;
    };

    Tick minNextEventTick();
    Tick windowRunTo(Tick floor, Tick la, Tick limit) const;
    void mergeChannels();

    std::vector<std::unique_ptr<LogicalProcess>> _lps;
    std::vector<std::unique_ptr<LinkChannel>> _channels;
    /** Channels inbound to each LP id, in channel-index order. */
    std::vector<std::vector<LinkChannel *>> _inbound;
    std::vector<MergeItem> _mergeScratch;
    Counter _windows;
    Counter _mergedTotal;
};

} // namespace tf::sim::par

#endif // TF_SIM_PARALLEL_ENGINE_HH
