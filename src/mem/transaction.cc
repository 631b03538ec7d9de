#include "mem/transaction.hh"

#include <atomic>
#include <new>

#include "sim/logging.hh"

namespace tf::mem {

namespace {

std::atomic<std::uint64_t> g_nextTxnId{1};

/**
 * Released transactions this thread keeps for reuse; beyond this they
 * are freed. Warm-up phases hold thousands of transactions at once, so
 * a deep cache would pin their memory for the rest of the run.
 */
constexpr std::size_t kMaxFreeTxns = 256;

struct TxnFreeList
{
    std::vector<MemTxn *> txns;
    std::uint64_t heapAllocations = 0;

    TxnFreeList() { txns.reserve(kMaxFreeTxns); }
    TxnFreeList(const TxnFreeList &) = delete;
    TxnFreeList &operator=(const TxnFreeList &) = delete;

    ~TxnFreeList()
    {
        for (MemTxn *txn : txns)
            delete txn;
    }
};

thread_local TxnFreeList t_freeTxns;

} // namespace

void
MemTxn::makeResponse()
{
    TF_ASSERT(isRequest(type), "makeResponse on a response");
    type = responseFor(type);
}

void
MemTxn::complete()
{
    if (status == TxnStatus::Pending)
        status = error ? TxnStatus::Error : TxnStatus::Ok;
    if (error && errorSink != nullptr)
        std::exchange(errorSink, nullptr)->txnFailed(*this);
    if (onComplete) {
        CompletionFn cb = std::move(onComplete);
        cb(*this);
    }
}

MemTxn *
MemTxn::allocate()
{
    TxnFreeList &pool = t_freeTxns;
    if (pool.txns.empty()) {
        ++pool.heapAllocations;
        return new MemTxn();
    }
    MemTxn *txn = pool.txns.back();
    pool.txns.pop_back();
    return txn;
}

void
MemTxn::recycle(MemTxn *txn) noexcept
{
    // Back to default state first, so the completion's captures die
    // with the last handle whether or not the object is kept.
    std::vector<std::uint8_t> data = std::move(txn->data);
    txn->~MemTxn();
    ::new (txn) MemTxn();

    TxnFreeList &pool = t_freeTxns;
    if (pool.txns.size() >= kMaxFreeTxns) {
        delete txn;
        return;
    }
    // Keep a cacheline of payload capacity, so read responses and
    // write payloads stop allocating, but never more: page-sized
    // fills and flush snapshots would otherwise stay pinned here.
    if (data.capacity() <= cachelineBytes) {
        data.clear();
        txn->data = std::move(data);
    }
    pool.txns.push_back(txn);
}

TxnPtr
makeTxn(TxnType type, Addr addr, std::uint32_t size)
{
    MemTxn *txn = MemTxn::allocate();
    txn->id = g_nextTxnId.fetch_add(1, std::memory_order_relaxed);
    txn->type = type;
    txn->addr = addr;
    txn->origAddr = addr;
    txn->size = size;
    return TxnPtr(txn);
}

TxnPtr
cloneForCompletion(MemTxn &src)
{
    MemTxn *txn = MemTxn::allocate();
    txn->id = src.id;
    txn->type = src.type;
    txn->addr = src.addr;
    txn->origAddr = src.origAddr;
    txn->size = src.size;
    txn->networkId = src.networkId;
    txn->bonded = src.bonded;
    txn->arrivalChannel = src.arrivalChannel;
    txn->error = src.error;
    txn->status = src.status;
    txn->issued = src.issued;
    txn->traceId = src.traceId;
    txn->tag = src.tag;
    txn->hostAddr = src.hostAddr;
    txn->data = src.data;
    txn->errorSink = std::exchange(src.errorSink, nullptr);
    txn->onComplete = std::move(src.onComplete);
    return TxnPtr(txn);
}

std::uint64_t
txnHeapAllocations()
{
    return t_freeTxns.heapAllocations;
}

} // namespace tf::mem
