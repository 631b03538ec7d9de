#include "mem/transaction.hh"

#include <atomic>
#include <new>

#include "sim/logging.hh"

namespace tf::mem {

namespace {

std::atomic<std::uint64_t> g_nextTxnId{1};

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

void
MemTxn::recycle() noexcept
{
    std::vector<std::uint8_t> keep = std::move(data);
    this->~MemTxn();
    ::new (this) MemTxn();
    // Keep a cacheline of payload capacity, so read responses and
    // write payloads stop allocating, but never more: page-sized
    // fills and flush snapshots would otherwise stay pinned here.
    if (keep.capacity() <= cachelineBytes) {
        keep.clear();
        data = std::move(keep);
    }
}

TxnPtr
makeTxn(TxnType type, Addr addr, std::uint32_t size)
{
    TxnPtr txn = TxnPtr::acquire();
    txn->id = g_nextTxnId.fetch_add(1, std::memory_order_relaxed);
    txn->type = type;
    txn->addr = addr;
    txn->origAddr = addr;
    txn->size = size;
    return txn;
}

TxnPtr
cloneForCompletion(MemTxn &src)
{
    TxnPtr txn = TxnPtr::acquire();
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
    return txn;
}

} // namespace tf::mem
