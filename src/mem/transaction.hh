/**
 * @file
 * Memory transactions.
 *
 * A MemTxn models one bus-level load/store: a 128-byte cacheline read or
 * write, as issued by the POWER9 onto the OpenCAPI port. Transactions
 * flow from the host bus through the ThymesisFlow compute endpoint
 * (where the RMMU rewrites the address and attaches a network ID),
 * across the network stack, and into the memory-stealing endpoint which
 * masters them into donor memory. Responses retrace the arrival channel.
 *
 * Lifetime (DESIGN.md §19): a transaction is pooled and reached through
 * TxnPtr, a counted handle. The count is not atomic: a simulation runs
 * on one thread, and no two threads share a transaction. One logical
 * process owns a transaction at a time, and a transaction crosses to
 * another LP only by moving its last handle through a channel. The last
 * release returns the object to a per-thread freelist (sim/pool.hh).
 */

#ifndef TF_MEM_TRANSACTION_HH
#define TF_MEM_TRANSACTION_HH

#include <cstdint>
#include <vector>

#include "mem/addr.hh"
#include "sim/callback.hh"
#include "sim/pool.hh"
#include "sim/ticks.hh"
#include "sim/trace/span.hh"

namespace tf::mem {

enum class TxnType : std::uint8_t {
    ReadReq,
    WriteReq,
    ReadResp,
    WriteResp,
};

/** True for the two request types. */
constexpr bool
isRequest(TxnType t)
{
    return t == TxnType::ReadReq || t == TxnType::WriteReq;
}

/** Matching response type for a request. */
constexpr TxnType
responseFor(TxnType t)
{
    return t == TxnType::ReadReq ? TxnType::ReadResp : TxnType::WriteResp;
}

/** Identifier carried by routing headers; selects an active flow. */
using NetworkId = std::uint16_t;
constexpr NetworkId invalidNetworkId = 0xffff;

/** Tag value of a transaction that holds no OpenCAPI tag. */
constexpr std::uint32_t noTag = 0xffffffff;

struct MemTxn;

/**
 * Counted handle to a pooled MemTxn: copyable, 8 bytes, and the last
 * handle to go returns the transaction to its thread's freelist, which
 * keeps up to 256. Copying and dropping handles is not thread-safe;
 * see the ownership rule in the file comment.
 */
using TxnPtr = sim::PoolPtr<MemTxn, 256>;

/**
 * Final disposition of a transaction, settled exactly once when the
 * requester's completion fires. Pending means the completion has not
 * run yet; every other state is terminal.
 */
enum class TxnStatus : std::uint8_t {
    Pending = 0, ///< still in flight
    Ok,          ///< completed successfully
    Error,       ///< error-completed (RMMU fault, abort, unroutable)
    TimedOut,    ///< error-completed by the request deadline
};

/** Stable status name for logs and stats keys. */
constexpr const char *
statusName(TxnStatus s)
{
    switch (s) {
      case TxnStatus::Pending:  return "pending";
      case TxnStatus::Ok:       return "ok";
      case TxnStatus::Error:    return "error";
      case TxnStatus::TimedOut: return "timedOut";
    }
    return "unknown";
}

/**
 * Told about every transaction that error-completes, before the
 * requester's own completion runs. The host bus installs itself here
 * to poison the page behind a failed remote access.
 */
class ErrorSink
{
  public:
    virtual void txnFailed(const MemTxn &txn) = 0;

  protected:
    ~ErrorSink() = default;
};

/**
 * Completion callback. 48 bytes inline hold every requester's capture
 * in this codebase; a larger one still works from the heap.
 */
using CompletionFn = sim::InlineFn<void(MemTxn &), 48>;

/**
 * One in-flight memory transaction.
 *
 * The address field is rewritten as the transaction moves through the
 * stack (Fig. 3 of the paper): effective -> real (host MMU), real ->
 * device-internal (OpenCAPI window), device-internal -> remote
 * effective (RMMU). Each stage overwrites @c addr; @c origAddr keeps
 * the address as first seen by the compute endpoint for bookkeeping.
 *
 * Only makeTxn() and cloneForCompletion() create transactions (both
 * through TxnPtr::acquire()).
 */
struct MemTxn : sim::PoolRefs
{
    /**
     * OpenCAPI tag slot held at the compute endpoint, or noTag. First,
     * so it fills the 4 bytes after the handle count.
     */
    std::uint32_t tag = noTag;

    std::uint64_t id = 0;
    TxnType type = TxnType::ReadReq;
    Addr addr = 0;
    Addr origAddr = 0;
    std::uint32_t size = cachelineBytes;

    /** Routing header fields (attached by the RMMU). */
    NetworkId networkId = invalidNetworkId;
    bool bonded = false;

    /** Channel the request arrived on; responses retrace it. */
    int arrivalChannel = -1;

    /** Set when the access failed (RMMU fault, C1 authorisation). */
    bool error = false;

    /**
     * Completion status, settled by complete() from the error flag
     * (Error when set, Ok otherwise) unless a completer pre-set a
     * terminal status (e.g. TimedOut). Never reverts once terminal.
     */
    TxnStatus status = TxnStatus::Pending;

    /** Issue time at the original requester, for latency stats. */
    sim::Tick issued = 0;

    /**
     * Causal-trace id, allocated by the compute endpoint at issue
     * (noTrace when the transaction is unsampled or tracing is off).
     * makeResponse() flips this object in place, so the response
     * inherits the id and one trace covers the full round trip.
     */
    sim::trace::TraceId traceId = sim::trace::noTrace;

    /** Called by complete() first when the transaction failed. */
    ErrorSink *errorSink = nullptr;

    /** Host-real address as issued on the host bus (errorSink's key). */
    Addr hostAddr = 0;

    /** Functional payload (writes carry data; read responses fill it). */
    std::vector<std::uint8_t> data;

    /** Completion callback, invoked exactly once at the requester. */
    CompletionFn onComplete;

    MemTxn(const MemTxn &) = delete;
    MemTxn &operator=(const MemTxn &) = delete;

    bool isRead() const { return type == TxnType::ReadReq ||
                                 type == TxnType::ReadResp; }
    bool isWrite() const { return !isRead(); }

    /** Flip a request into its response in place. */
    void makeResponse();

    /**
     * Settle the status, tell the error sink if the transaction
     * failed, then invoke and clear the completion callback. Both
     * run at most once.
     */
    void complete();

  private:
    friend TxnPtr;

    MemTxn() = default;

    /**
     * Pool reset: rebuilt in place, so the completion's captures die
     * with the last handle, keeping at most a cacheline of payload
     * capacity.
     */
    void recycle() noexcept;
};

/** Allocate a fresh transaction with a process-unique id. */
TxnPtr makeTxn(TxnType type, Addr addr, std::uint32_t size = cachelineBytes);

/**
 * A new transaction equal to @p src (same id; no fresh id is drawn)
 * that takes over src's completion callback and error sink. Used to
 * error-complete a request at the requester while the original object
 * may still be in flight: whatever happens to src later completes
 * nothing.
 */
TxnPtr cloneForCompletion(MemTxn &src);

/**
 * Transactions this thread has taken from the heap rather than from
 * its freelist; flat in steady state.
 */
inline std::uint64_t
txnHeapAllocations()
{
    return TxnPtr::heapAllocations();
}

/**
 * Number of 32-byte flits a transaction occupies on the link. The
 * LLC datapath is 32B wide; a transaction is a header flit plus the
 * payload for data-bearing transactions. Write requests and read
 * responses carry the cacheline; read requests and write responses
 * are header-only.
 */
constexpr std::uint32_t
flitCount(const MemTxn &txn)
{
    constexpr std::uint32_t flitBytes = 32;
    bool carriesData = txn.type == TxnType::WriteReq ||
                       txn.type == TxnType::ReadResp;
    return 1 + (carriesData ? (txn.size + flitBytes - 1) / flitBytes : 0);
}

} // namespace tf::mem

#endif // TF_MEM_TRANSACTION_HH
