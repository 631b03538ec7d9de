/**
 * @file
 * LinkChannel: the only legal way for work to cross LP partitions.
 *
 * A LinkChannel is a unidirectional mailbox from one LP to another,
 * modelling a physical link with a guaranteed minimum latency (an
 * OpenCAPI hop, an Ethernet wire). The sender deposits a callback
 * stamped with its absolute delivery tick; the engine drains every
 * channel at the window's end and schedules the callbacks into the
 * destination LP's queue in a fixed order — sorted by (deliverAt,
 * source LP, channel, per-channel sequence) — so the destination's
 * event order never depends on the order the window ran its LPs.
 *
 * The minimum latency is the conservative contract: the engine's
 * lookahead is the minimum over all channels, every send must be
 * scheduled at least minLatency() after the sender's current tick,
 * and therefore no message can ever target the window in which it
 * was sent. Zero-latency channels are rejected loudly at connect
 * time (TF_ASSERT) — they would force a zero-length window and
 * deadlock a conservative engine.
 */

#ifndef TF_SIM_PARALLEL_LINK_CHANNEL_HH
#define TF_SIM_PARALLEL_LINK_CHANNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/parallel/lp.hh"

namespace tf::sim::par {

class LinkChannel
{
  public:
    /**
     * Deposit @p cb for execution on the destination LP at absolute
     * time @p deliverAt. Must be called from the source LP (inside
     * one of its events, or before the engine runs).
     * @pre deliverAt >= source now + minLatency().
     */
    void send(Tick deliverAt, EventCallback cb);

    LpId src() const { return _src->id(); }
    LpId dst() const { return _dst->id(); }
    const std::string &name() const { return _name; }

    /** Guaranteed minimum source->destination latency (lookahead). */
    Tick minLatency() const { return _minLatency; }

    /** Messages deposited over the channel's lifetime. */
    std::uint64_t sent() const { return _sent.value(); }

    /** Messages delivered into the destination queue. */
    std::uint64_t delivered() const { return _delivered.value(); }

    /** Messages deposited but not yet merged (teardown diagnostics). */
    std::size_t inFlight() const { return _outbox.size(); }

    /** Attach sent/delivered counters for telemetry export. */
    void attachStats(StatSet &set);

  private:
    friend class ParallelEngine;

    struct Msg
    {
        Tick when;
        std::uint64_t seq; ///< per-channel deposit order
        EventCallback cb;
    };

    LinkChannel(std::string name, LogicalProcess &src,
                LogicalProcess &dst, Tick minLatency,
                std::uint32_t index);

    LogicalProcess *_src;
    LogicalProcess *_dst;
    std::string _name;
    Tick _minLatency;
    std::uint32_t _index; ///< engine-wide channel ordinal (tiebreak)
    std::vector<Msg> _outbox;
    std::uint64_t _nextSeq = 0;
    Counter _sent;
    Counter _delivered;
};

} // namespace tf::sim::par

#endif // TF_SIM_PARALLEL_LINK_CHANNEL_HH
