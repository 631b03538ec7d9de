/**
 * @file
 * LLC frames and in-band control messages.
 *
 * The LLC groups transaction flits into fixed-size frames; incomplete
 * frames are padded with single-flit nop headers for immediate
 * transmission. Frames carry monotonically increasing identifiers so
 * the Rx side can detect loss and request an in-order replay
 * (Section IV-A4).
 */

#ifndef TF_FLOW_FRAME_HH
#define TF_FLOW_FRAME_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "mem/transaction.hh"
#include "sim/pool.hh"

namespace tf::flow {

using FrameSeq = std::uint64_t;

struct Frame;

/**
 * Counted handle to a pooled Frame; this thread's freelist keeps up to
 * 512. Frames never leave the LP of the LlcTx that assembled them.
 */
using FramePtr = sim::PoolPtr<Frame, 512>;

struct Frame : sim::PoolRefs
{
    FrameSeq seq = 0;
    /** Whole transactions packed into this frame. */
    std::vector<mem::TxnPtr> txns;
    /** Flits occupied by transactions (rest of the frame is nops). */
    std::uint32_t usedFlits = 0;
    std::uint32_t padFlits = 0;
    /** Set by the channel when the frame arrives damaged. */
    bool corrupted = false;
    /** True when this transmission is a replay. */
    bool replayed = false;

  private:
    friend FramePtr;

    /**
     * Pool reset: default fields, but txns keeps its capacity, the
     * allocation the pool exists to recycle.
     */
    void
    recycle() noexcept
    {
        std::vector<mem::TxnPtr> keep = std::move(txns);
        keep.clear();
        *this = Frame();
        txns = std::move(keep);
    }
};

/**
 * Flits a transaction occupies in a coalesced (cut-through) frame:
 * payload flits only for data-bearing transactions — their
 * per-transaction header fields ride the frame's shared header
 * flit's slot table — while payload-less transactions (read
 * requests, write acks) still pay their single header flit.
 */
constexpr std::uint32_t
coalescedFlitCount(const mem::MemTxn &txn)
{
    std::uint32_t flits = mem::flitCount(txn);
    return flits > 1 ? flits - 1 : 1;
}

/**
 * In-band control info travelling opposite to a frame's direction.
 * Models both the piggybacked credit/ack fields of transaction headers
 * and the special single-flit replay-request frames.
 */
struct ControlMsg
{
    /** Credits being returned (empty Rx ingress slots). */
    std::uint32_t credits = 0;
    /** Cumulative ack: highest in-order frame delivered, valid if set. */
    bool hasAck = false;
    FrameSeq ack = 0;
    /** Replay request: retransmit starting from this sequence. */
    bool replayRequest = false;
    FrameSeq replayFrom = 0;
};

} // namespace tf::flow

#endif // TF_FLOW_FRAME_HH
