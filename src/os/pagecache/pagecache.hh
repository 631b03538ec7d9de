/**
 * @file
 * Compute-side page cache over disaggregated memory.
 *
 * A ScaleStore-style buffer manager interposed between the host bus
 * and the ThymesisFlow compute endpoint: donor pages are cached in
 * local DRAM frames so a hot working set stops paying the full wire
 * RTT on every access and remote latency becomes a hit-rate problem.
 *
 * Core pieces:
 *  - a fixed-budget frame table (frames allocated from the local
 *    NUMA node at construction) with hash-based page lookup;
 *  - clock / second-chance eviction over the frame array;
 *  - an async read buffer: misses park on the frame and the fill
 *    streams the page from the donor as a bounded-MLP sequence of
 *    cacheline reads (the LLC frames at most `frameFlits` flits per
 *    transaction, so a page can never travel as one transfer);
 *  - a write-back dirty queue with bounded in-flight flushes; a
 *    flushing frame stays in the lookup table so a re-access rescues
 *    it instead of re-fetching a page the donor has not seen yet;
 *  - a background page provider (lazily armed, like the deadline
 *    sweeper) that keeps a partitioned free list between its
 *    watermarks so misses rarely evict inline.
 *
 * Everything runs on the owning EventQueue: no wall-clock, no
 * unordered-container iteration, byte-identical stats across bench
 * --jobs sweeps. The cache exposes a fault hook (poisonCleanPage) so
 * a fault plan can hwpoison a cached frame and force a refault
 * through the miss path.
 */

#ifndef TF_OS_PAGECACHE_PAGECACHE_HH
#define TF_OS_PAGECACHE_PAGECACHE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "mem/dram.hh"
#include "mem/transaction.hh"
#include "os/memory_manager.hh"
#include "sim/fault/fault.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tf::os {

struct PageCacheParams
{
    /** Cache page size; must match the MemoryManager's. */
    std::uint64_t pageBytes = mem::pageBytes;
    /** Local DRAM frames the cache may pin. */
    std::uint32_t frameBudget = 64;
    /** Free-list partitions (pages hash to a home partition). */
    std::uint32_t partitions = 4;
    /** Concurrent page fills (async read buffer slots). */
    std::uint32_t maxInflightFills = 4;
    /** Concurrent dirty write-backs. */
    std::uint32_t maxInflightFlushes = 2;
    /** Outstanding cacheline transfers per fill/flush stream. */
    std::uint32_t lineMlp = 8;
    /** Background page-provider wakeup period. */
    sim::Tick providerPeriod = sim::microseconds(2);
    /** Provider arms when the free list drops below this. */
    std::uint32_t lowWatermark = 4;
    /** ... and evicts until it is back up to this. */
    std::uint32_t highWatermark = 8;
    /**
     * Local-controller pressure gate: when the local DRAM's
     * estimatedLatency for one cacheline exceeds this, the provider
     * defers its eviction sweep to the next period instead of piling
     * write-back staging reads onto a stalled or deeply backlogged
     * controller (the banked estimate reflects both queue and frozen
     * bank cursors). Misses still evict inline, so a deferral never
     * wedges the cache. 0 disables the gate.
     */
    sim::Tick providerPressureLatency = sim::microseconds(2);
};

/**
 * Page-granular buffer manager caching donor memory in local DRAM.
 *
 * The cache is addressed in host-real (M1 window) coordinates: the
 * page number is txn->addr / pageBytes, and fills/flushes reconstruct
 * donor line addresses from it, so no separate window base is needed.
 * Remote traffic leaves through the RemoteIssue callback (the
 * datapath's issue()), keeping tf_os free of a tflow dependency.
 */
class PageCache : public sim::SimObject
{
  public:
    using RemoteIssue = std::function<void(mem::TxnPtr)>;

    PageCache(std::string name, sim::EventQueue &eq,
              PageCacheParams params, MemoryManager &mm,
              NodeId localNode, mem::Dram &localDram,
              RemoteIssue remote);
    ~PageCache() override;

    const PageCacheParams &params() const { return _params; }

    /**
     * Host-bus entry: service a cacheline request against the cache.
     * Hits complete after a local DRAM access; misses park until the
     * page fill lands. onComplete fires exactly once either way, with
     * txn->error set when the backing fill failed.
     */
    void access(mem::TxnPtr txn);

    /**
     * Fault hook: hwpoison the first clean resident frame in clock
     * order (an uncorrectable error in the cached copy). The page is
     * dropped from the table — since it was clean the donor still has
     * the truth and the next touch refaults through the miss path —
     * the frame is retired via MemoryManager::poisonPage, and a
     * replacement frame is allocated to keep the budget whole. With
     * no clean frame resident it only counts in poisonSkipped().
     * @return true when a frame was poisoned.
     */
    bool poisonCleanPage();

    /** Register the "<name>" CachePoison fault point. */
    void registerFaultPoints(sim::fault::Registry &reg,
                             const std::string &name);

    /** Write back every dirty resident page (test/teardown aid). */
    void flushAll();

    // ------------------------- telemetry ---------------------------

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    std::uint64_t evictions() const { return _evictions.value(); }
    std::uint64_t writebacks() const { return _writebacks.value(); }
    std::uint64_t fills() const { return _fills.value(); }
    std::uint64_t fillErrors() const { return _fillErrors.value(); }
    std::uint64_t wbErrors() const { return _wbErrors.value(); }
    std::uint64_t rescues() const { return _rescues.value(); }
    std::uint64_t poisonedFrames() const { return _poisonedFrames.value(); }
    std::uint64_t poisonSkipped() const { return _poisonSkipped.value(); }
    std::uint64_t providerRuns() const { return _providerRuns.value(); }
    std::uint64_t providerDeferrals() const
    {
        return _providerDeferrals.value();
    }
    double hitRate() const { return _hitRate.mean(); }

    /** Resident (servable) pages right now. */
    std::uint32_t residentPages() const;
    /** Dirty resident pages right now. */
    std::uint32_t dirtyPages() const;
    /** Frames on the free lists right now. */
    std::uint32_t freeFrames() const;

    /** Attach cache.{hits,misses,...} + hit/miss latency sketches. */
    void attachStats(sim::StatSet &set);

  private:
    enum class FrameState : std::uint8_t {
        Free,     ///< on a free list, no page bound
        Filling,  ///< fill in flight; waiters parked on the frame
        Resident, ///< servable copy in local DRAM
        Flushing, ///< dirty write-back in flight; rescuable
        Retired,  ///< frame lost to hwpoison, no replacement left
    };

    /** One parked access waiting on a fill or flush. */
    struct Waiter
    {
        mem::TxnPtr txn;
        sim::Tick start = 0;
        sim::trace::TraceId traceId = sim::trace::noTrace;
    };

    struct Frame
    {
        mem::Addr addr = 0;      ///< local physical frame address
        std::uint64_t page = 0;  ///< cached page number (addr/pageBytes)
        FrameState state = FrameState::Free;
        bool dirty = false;
        bool referenced = false; ///< clock second-chance bit
        bool rescue = false;     ///< re-accessed while Flushing
        std::vector<Waiter> waiters;

        // Fill / flush stream bookkeeping (one stream at a time).
        std::uint32_t lineNext = 0; ///< next line index to issue
        std::uint32_t lineDone = 0; ///< line completions seen
        bool ioError = false;       ///< any line of the stream failed
        std::vector<std::uint8_t> buf; ///< page staging buffer
        sim::trace::TraceId wbTraceId = sim::trace::noTrace;
    };

    std::uint64_t pageOf(mem::Addr addr) const
    {
        return addr / _params.pageBytes;
    }
    std::uint32_t linesPerPage() const
    {
        return static_cast<std::uint32_t>(_params.pageBytes /
                                          mem::cachelineBytes);
    }
    std::uint32_t partitionOf(std::uint64_t page) const
    {
        return static_cast<std::uint32_t>(page % _params.partitions);
    }

    void serveHit(std::uint32_t idx, Waiter w, bool wasMiss);
    void pump();
    bool evictOne();
    std::int32_t allocFrame(std::uint64_t page);
    void releaseFrame(std::uint32_t idx);

    void startFill(std::uint32_t idx);
    void issueFillLine(std::uint32_t idx);
    void onFillLine(std::uint32_t idx, std::uint32_t line,
                    mem::MemTxn &t);
    void finishFill(std::uint32_t idx);

    void startFlush(std::uint32_t idx);
    void beginFlushIo(std::uint32_t idx);
    void issueFlushLine(std::uint32_t idx);
    void onFlushLine(std::uint32_t idx, mem::MemTxn &t);
    void finishFlush(std::uint32_t idx);

    void maybeArmProvider();
    void providerTick();
    bool hasEvictable() const;

    PageCacheParams _params;
    MemoryManager &_mm;
    NodeId _localNode;
    mem::Dram &_dram;
    RemoteIssue _remote;

    std::vector<Frame> _frames;
    /** page -> frame index; Filling/Resident/Flushing entries only.
     *  Never iterated, so the unordered map stays deterministic. */
    std::unordered_map<std::uint64_t, std::uint32_t> _table;
    /** Misses still waiting for a frame: page -> parked accesses. */
    std::unordered_map<std::uint64_t, std::vector<Waiter>> _pending;
    /** FIFO of pages in _pending, in first-miss order. */
    std::deque<std::uint64_t> _backlog;
    /** Partitioned free lists of frame indices. */
    std::vector<std::deque<std::uint32_t>> _free;
    /** Dirty victims waiting for a write-back slot. */
    std::deque<std::uint32_t> _flushQueue;

    std::uint32_t _clockHand = 0;
    std::uint32_t _activeFills = 0;
    std::uint32_t _activeFlushes = 0;
    std::uint32_t _freeCount = 0;
    bool _providerArmed = false;

    sim::Counter _hits;
    sim::Counter _misses;
    sim::Counter _evictions;
    sim::Counter _writebacks;
    sim::Counter _fills;
    sim::Counter _fillErrors;
    sim::Counter _wbErrors;
    sim::Counter _rescues;
    sim::Counter _poisonedFrames;
    sim::Counter _poisonSkipped;
    sim::Counter _providerRuns;
    sim::Counter _providerDeferrals;
    sim::Summary _hitRate;
    sim::QuantileSketch _hitNs;
    sim::QuantileSketch _missNs;
};

} // namespace tf::os

#endif // TF_OS_PAGECACHE_PAGECACHE_HH
