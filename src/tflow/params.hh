/**
 * @file
 * Calibration constants for the ThymesisFlow datapath.
 *
 * Provenance (paper Section V, VI-C):
 *  - Flit RTT ~950 ns = 4 FPGA-stack crossings + 6 serDES crossings
 *    (2 at the compute endpoint, 2 for the network, 2 at the
 *    memory-stealing endpoint) plus cabling:
 *        6 x 75 ns (serDES) + 4 x 115 ns (FPGA stack) + 2 x 20 ns (wire)
 *        = 950 ns.
 *  - Host OpenCAPI attachment: 8 x GTY transceivers at 25 Gbit/s
 *    = 200 Gbit/s = 25 GB/s.
 *  - Each network channel: 4 bonded GTY transceivers at 25 Gbit/s
 *    = 100 Gbit/s = 12.5 GB/s; two independent channels per card.
 *  - LLC datapath is 32 B wide at 401 MHz (12.83 GB/s), matching the
 *    channel rate; flits are 32 B.
 *  - A 128 B data-bearing transaction is 1 header flit + 4 data flits.
 */

#ifndef TF_FLOW_PARAMS_HH
#define TF_FLOW_PARAMS_HH

#include <cstdint>

#include "sim/ticks.hh"

namespace tf::flow {

struct FlowParams
{
    // ---- latency elements (see file header for the 950 ns budget) ----
    sim::Tick serdesLatency = sim::nanoseconds(75);
    sim::Tick fpgaStackLatency = sim::nanoseconds(115);
    sim::Tick wireLatency = sim::nanoseconds(20);

    // ---- bandwidth ----
    /** Host OpenCAPI link (shared by both channels), bytes/s. */
    double hostLinkBps = 25e9;
    /** One network channel (4 x 25 Gb/s bonded), bytes/s. */
    double channelBps = 12.5e9;
    /** Number of independent network channels on the card. */
    int channels = 2;

    // ---- LLC framing ----
    std::uint32_t flitBytes = 32;
    /**
     * Flits per LLC frame. In store-and-forward mode this is the
     * fixed on-wire frame size (padded with nops if short); in
     * cut-through mode it is the assembly cap — only occupied flits
     * travel. The default is the winner of the ablation_llc
     * credit-depth x frame-size sweep (DESIGN.md section 15): 128
     * flits holds the loaded 192-deep remote read p99 under 2 us
     * (total p99 1984 ns, llcResp p99 976 ns) and tops the sweep's
     * bandwidth column; credit depths past 32 change nothing, so
     * rxQueueFrames stays at 64 for loss headroom.
     */
    std::uint32_t frameFlits = 128;
    /**
     * Cut-through / coalesced framing (default on). A frame's data
     * flits begin serialising as soon as its header flit is
     * committed: the Rx receives the frame at header arrival and
     * streams each transaction out as its own last flit lands, nop
     * padding never travels, and data-bearing transactions coalesce
     * behind one shared header flit (their per-transaction headers
     * ride the shared slot table). Under a sequence gap an intact
     * younger frame releases immediately — exactly once, tracked by
     * the Rx early-release set — instead of waiting for go-back-N to
     * heal the unrelated older frame. Off restores the paper's
     * store-and-forward framing: fixed-size padded frames, delivery
     * at last-flit arrival, strict in-order release.
     */
    bool cutThrough = true;

    // ---- LLC credits / reliability ----
    /** Rx ingress queue depth, in frames; equals initial Tx credits. */
    std::uint32_t rxQueueFrames = 64;
    /** Tx replay buffer capacity, in frames. */
    std::uint32_t replayBufferFrames = 256;
    /** Tx-side safety retransmit timeout for unacked frames. */
    sim::Tick ackTimeout = sim::microseconds(20);
    /**
     * Per-frame probability of loss/corruption on the wire. Fault
     * plans can open transient Gilbert-Elliott burst windows on top
     * (Wire::startBurst).
     */
    double frameErrorRate = 0.0;
    /**
     * Consecutive ack-timeout rounds (no cumulative-ack progress at
     * all) after which the Tx declares the channel dead and raises a
     * link-down event instead of replaying forever. 0 disables
     * escalation: replay retries indefinitely (transient-loss-only
     * model, the paper's baseline behaviour).
     */
    std::uint32_t maxReplayRounds = 16;

    // ---- endpoint ----
    /** Outstanding-transaction tags at the compute endpoint. */
    std::uint32_t maxTags = 256;
    /**
     * End-to-end request deadline at the compute endpoint. A request
     * still outstanding (or still tag-queued) this long after issue
     * is error-completed with TxnStatus::TimedOut so the host never
     * hangs on a response that cannot arrive. 0 disables the
     * deadline (legacy behaviour: requests wait forever).
     */
    sim::Tick requestDeadline = 0;
    /** Frame drain time at Rx before its credit is returned. */
    sim::Tick rxDrainLatency = sim::nanoseconds(40);
};

} // namespace tf::flow

#endif // TF_FLOW_PARAMS_HH
