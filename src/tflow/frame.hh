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

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mem/transaction.hh"

namespace tf::flow {

using FrameSeq = std::uint64_t;

struct Frame
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
 * Counted handle to a pooled Frame. Frames never leave the LP of the
 * LlcTx that assembled them, so the count is not atomic. The last
 * handle to go hands the frame back to its pool.
 */
class FramePtr
{
  public:
    FramePtr() noexcept = default;

    FramePtr(const FramePtr &other) noexcept : _slot(other._slot)
    {
        if (_slot != nullptr)
            ++_slot->refs;
    }

    FramePtr(FramePtr &&other) noexcept
        : _slot(std::exchange(other._slot, nullptr))
    {
    }

    FramePtr &
    operator=(FramePtr other) noexcept
    {
        std::swap(_slot, other._slot);
        return *this;
    }

    ~FramePtr() { reset(); }

    /** Drop this handle's reference. */
    void reset() noexcept;

    Frame *get() const noexcept { return _slot ? &_slot->frame : nullptr; }
    Frame &operator*() const noexcept { return _slot->frame; }
    Frame *operator->() const noexcept { return &_slot->frame; }
    explicit operator bool() const noexcept { return _slot != nullptr; }

  private:
    friend class FramePool;

    struct Core;

    /** A pooled frame plus its handle count and owning pool. */
    struct Slot
    {
        Frame frame;
        std::uint32_t refs = 0;
        Core *core = nullptr;
    };

    /** Freelist shared by a pool and its outstanding frames. */
    struct Core
    {
        std::vector<Slot *> free;
        /** Frames handed out and not yet released. */
        std::size_t live = 0;
        /** Frames taken from the heap rather than the freelist. */
        std::uint64_t heapAllocations = 0;
        /** The pool died; the last live frame frees the core. */
        bool orphaned = false;
    };

    explicit FramePtr(Slot *slot) noexcept : _slot(slot) { ++_slot->refs; }

    static void release(Slot *slot) noexcept;

    Slot *_slot = nullptr;
};

/**
 * Freelist pool for Frame objects.
 *
 * Every wire transmission allocates a Frame (and its txns vector). The
 * pool recycles the Frame *object* — most importantly the txns
 * vector's capacity — through a freelist, and FramePtr counts handles
 * inside the pooled slot, so a frame costs no allocation at all in
 * steady state.
 *
 * Lifetime: frames routinely outlive their LlcTx (deliveries already
 * scheduled in the event queue when a channel is torn down), so the
 * freelist core outlives the pool until the last outstanding frame
 * is released.
 */
class FramePool
{
  public:
    FramePool() : _core(new FramePtr::Core) {}

    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    ~FramePool()
    {
        for (FramePtr::Slot *slot : _core->free)
            delete slot;
        _core->free.clear();
        if (_core->live == 0)
            delete _core;
        else
            _core->orphaned = true;
    }

    /** A fresh (default-state) pooled frame. */
    FramePtr
    acquire()
    {
        FramePtr::Slot *slot = nullptr;
        if (!_core->free.empty()) {
            slot = _core->free.back();
            _core->free.pop_back();
        } else {
            slot = new FramePtr::Slot;
            slot->core = _core;
            ++_core->heapAllocations;
        }
        ++_core->live;
        return FramePtr(slot);
    }

    std::size_t freeCount() const { return _core->free.size(); }

    /** Frames this pool has taken from the heap; flat in steady state. */
    std::uint64_t heapAllocations() const { return _core->heapAllocations; }

  private:
    friend class FramePtr;

    /** Frames cached beyond this are genuinely freed. */
    static constexpr std::size_t kMaxFree = 512;

    FramePtr::Core *_core;
};

inline void
FramePtr::reset() noexcept
{
    Slot *slot = std::exchange(_slot, nullptr);
    if (slot != nullptr && --slot->refs == 0)
        release(slot);
}

inline void
FramePtr::release(Slot *slot) noexcept
{
    Core *core = slot->core;
    --core->live;
    if (core->orphaned || core->free.size() >= FramePool::kMaxFree) {
        delete slot;
        if (core->orphaned && core->live == 0)
            delete core;
        return;
    }
    // Reset to default state now so payload references are released
    // immediately; clear() keeps txns' capacity, which is the
    // allocation this pool exists to recycle.
    Frame &f = slot->frame;
    f.seq = 0;
    f.txns.clear();
    f.usedFlits = 0;
    f.padFlits = 0;
    f.corrupted = false;
    f.replayed = false;
    core->free.push_back(slot);
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
