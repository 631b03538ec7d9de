/**
 * @file
 * DRAM channel model.
 *
 * A latency + bandwidth model of one memory controller's DRAM. The
 * channel serialises data at the configured bandwidth, every access
 * pays a fixed access latency, and — with banks > 1 — requests also
 * contend for per-bank cursors: a row miss occupies the bank for an
 * activate/restore cycle, a row hit only for the data transfer, and a
 * bounded-window FR-FCFS scheduler reorders queued requests onto
 * ready banks so one hot bank no longer convoys the whole channel.
 * This captures the three effects the disaggregated tail depends on:
 * local access latency (~100 ns class), a per-socket bandwidth
 * ceiling, and a bank-conflict service tail. banks <= 1 restores the
 * original single-cursor model exactly.
 *
 * The DRAM optionally fronts a BackingStore so accesses move real bytes.
 */

#ifndef TF_MEM_DRAM_HH
#define TF_MEM_DRAM_HH

#include <vector>

#include "mem/backing_store.hh"
#include "mem/transaction.hh"
#include "sim/fault/fault.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tf::mem {

struct DramParams
{
    /** Fixed access (CAS-to-data) latency. */
    sim::Tick accessLatency = sim::nanoseconds(90);
    /** Sustained channel bandwidth, bytes per second. */
    double bandwidthBps = 110e9; // AC922-class per-socket ballpark
    /**
     * Independent banks behind the channel. 1 = legacy single-cursor
     * model (the channel is the only serialisation point); > 1 adds
     * per-bank busy cursors and FR-FCFS reordering.
     */
    std::uint32_t banks = 16;
    /** The most banks a topology spec may ask for; each has state. */
    static constexpr std::uint32_t kMaxBanks = 1024;
    /** Consecutive-address stripe rotated across banks. */
    std::uint64_t bankStrideBytes = 256;
    /**
     * Per-bank row-buffer capacity. With stripe interleaving one row
     * spans banks * rowBytes of contiguous address space, so
     * streaming accesses activate rows across all banks in parallel.
     */
    std::uint64_t rowBytes = 4096;
    /**
     * Bank occupancy on a row miss (activate + restore, tRC class).
     * Row hits occupy the bank only for the data transfer.
     */
    sim::Tick rowCycleLatency = sim::nanoseconds(45);
    /**
     * FR-FCFS reorder window: how many queued requests the scheduler
     * scans for one whose bank is ready, row hits first. 1 = FCFS.
     */
    std::uint32_t reorderWindow = 8;
};

class Dram : public sim::SimObject
{
  public:
    /**
     * Access continuation. 32 bytes inline: with the object pointer
     * and the transaction handle, complete()'s event closure then
     * fills sim::EventCallback's 64 bytes exactly.
     */
    using DoneFn = sim::InlineFn<void(TxnPtr), 32>;

    Dram(std::string name, sim::EventQueue &eq, DramParams params,
         BackingStore *store = nullptr);

    /**
     * Service a request transaction. The response (same object,
     * type flipped) is delivered through @p done after the modelled
     * delay. Functional data movement happens against the backing
     * store, if one is attached.
     */
    void access(TxnPtr txn, DoneFn done);

    /**
     * Latency the next request would see if issued now: channel
     * backlog (queued bytes plus cursors — including stall-frozen
     * bank cursors) + serialisation + access latency.
     */
    sim::Tick estimatedLatency(std::uint32_t bytes) const;

    /**
     * Fault injection: the channel services nothing for the next
     * @p duration ticks (refresh storm / thermal throttle). New
     * arrivals queue behind the stall; the channel cursor AND every
     * bank cursor freeze until it expires, so the banked scheduler
     * cannot slip requests around the stall. Accesses already in
     * flight complete normally. Nothing is lost.
     */
    void stall(sim::Tick duration);

    std::uint64_t stalls() const { return _stalls.value(); }

    const DramParams &params() const { return _params; }

    std::uint64_t reads() const { return _reads.value(); }
    std::uint64_t writes() const { return _writes.value(); }
    std::uint64_t bytesMoved() const { return _bytes.value(); }
    std::uint64_t rowHits() const { return _rowHits.value(); }
    std::uint64_t rowMisses() const { return _rowMisses.value(); }
    std::uint64_t reorders() const { return _reorders.value(); }
    std::size_t queueDepth() const { return _pending.size(); }

    /**
     * Per-bank scheduler telemetry (banks > 1 only): dispatches,
     * row-buffer outcomes, occupancy charged to the bank cursor, and
     * the per-bank queue depth observed at each enqueue. Exported as
     * "bank<i>.*" by attachStats, so the bench JSON shows which
     * banks a workload's stride actually lands on.
     */
    struct BankStats
    {
        sim::Counter dispatches;
        sim::Counter rowHits;
        sim::Counter rowMisses;
        /** Busy time charged to this bank's cursor, nanoseconds. */
        sim::Counter busyNs;
        /** Queued requests for this bank, sampled at enqueue. */
        sim::Summary queueDepth;
    };

    const BankStats &bankStats(std::uint32_t bank) const
    {
        return _bankStats.at(bank);
    }

    /** Attach read/write/byte counters for telemetry export. */
    void attachStats(sim::StatSet &set);

    /** Register the "<name>" DramStall fault point. */
    void registerFaultPoints(sim::fault::Registry &reg,
                             const std::string &name);

  private:
    struct Pending
    {
        TxnPtr txn;
        DoneFn done;
    };

    DramParams _params;
    BackingStore *_store;
    /** Channel (data-bus) cursor: next tick a transfer can start. */
    sim::Tick _nextFree = 0;
    /** Per-bank busy cursors (banks > 1 only). */
    std::vector<sim::Tick> _bankFree;
    /** Open row per bank, rowOf(addr) + 1; 0 = none open. */
    std::vector<std::uint64_t> _openRow;
    /** FR-FCFS request queue, arrival order (banks > 1 only). */
    std::vector<Pending> _pending;
    /** Bytes queued but not yet dispatched (estimate input). */
    std::uint64_t _pendingBytes = 0;
    /** Earliest armed dispatch retry; dedups scheduler wakeups. */
    bool _dispatchArmed = false;
    sim::Tick _dispatchAt = 0;
    sim::Counter _reads;
    sim::Counter _writes;
    sim::Counter _bytes;
    sim::Counter _stalls;
    sim::Counter _rowHits;
    sim::Counter _rowMisses;
    sim::Counter _reorders;
    /** Per-bank telemetry (banks > 1 only). */
    std::vector<BankStats> _bankStats;
    /** Requests currently queued per bank (enqueue minus dispatch). */
    std::vector<std::uint32_t> _bankQueued;

    sim::Tick serializationDelay(std::uint64_t bytes) const;
    std::uint32_t bankOf(Addr addr) const;
    std::uint64_t rowOf(Addr addr) const;
    void tryDispatch();
    void scheduleDispatch(sim::Tick when);
    void complete(TxnPtr txn, DoneFn done, sim::Tick finish);
};

} // namespace tf::mem

#endif // TF_MEM_DRAM_HH
