#include "mem/dram.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tf::mem {

Dram::Dram(std::string name, sim::EventQueue &eq, DramParams params,
           BackingStore *store)
    : SimObject(std::move(name), eq), _params(params), _store(store)
{
    TF_ASSERT(_params.bandwidthBps > 0, "dram bandwidth must be positive");
    if (_params.banks > 1) {
        TF_ASSERT(_params.bankStrideBytes > 0, "bank stride must be positive");
        TF_ASSERT(_params.rowBytes > 0, "row size must be positive");
        TF_ASSERT(_params.reorderWindow > 0, "reorder window must be >= 1");
        _bankFree.assign(_params.banks, 0);
        _openRow.assign(_params.banks, 0);
        _bankStats = std::vector<BankStats>(_params.banks);
        _bankQueued.assign(_params.banks, 0);
    }
}

sim::Tick
Dram::serializationDelay(std::uint64_t bytes) const
{
    double secs = static_cast<double>(bytes) / _params.bandwidthBps;
    return sim::seconds(secs);
}

std::uint32_t
Dram::bankOf(Addr addr) const
{
    return static_cast<std::uint32_t>((addr / _params.bankStrideBytes) %
                                      _params.banks);
}

std::uint64_t
Dram::rowOf(Addr addr) const
{
    // One row spans banks * rowBytes of contiguous address space (the
    // stripes of a row land in every bank), so a streaming access
    // pattern activates one row per bank instead of thrashing one.
    return addr / (_params.rowBytes * _params.banks);
}

sim::Tick
Dram::estimatedLatency(std::uint32_t bytes) const
{
    sim::Tick start = std::max(now(), _nextFree);
    if (_params.banks > 1) {
        // A new arrival dispatches behind the queued backlog on the
        // channel and no earlier than the least-loaded bank frees up.
        // stall() freezes every bank cursor, so a frozen controller
        // is fully reflected here (fault_soak's bounded-recovery
        // estimate depends on that).
        sim::Tick minBank =
            *std::min_element(_bankFree.begin(), _bankFree.end());
        start = std::max(start, minBank);
        start += serializationDelay(_pendingBytes);
    }
    return (start - now()) + serializationDelay(bytes) +
           _params.accessLatency;
}

void
Dram::complete(TxnPtr txn, DoneFn done, sim::Tick finish)
{
    auto hop = [this, txn = std::move(txn),
                done = std::move(done)]() mutable {
        if (_store) {
            if (txn->type == TxnType::WriteReq) {
                if (!txn->data.empty())
                    _store->write(txn->addr, txn->data.data(),
                                  std::min<std::uint64_t>(
                                      txn->data.size(), txn->size));
            } else {
                txn->data.resize(txn->size);
                _store->read(txn->addr, txn->data.data(), txn->size);
            }
        }
        txn->makeResponse();
        done(std::move(txn));
    };
    static_assert(sim::EventCallback::fitsInline<decltype(hop)>(),
                  "the DRAM completion hop must stay an inline event");
    after(finish - now(), std::move(hop));
}

void
Dram::access(TxnPtr txn, DoneFn done)
{
    TF_ASSERT(isRequest(txn->type), "dram got a response");

    _bytes.inc(txn->size);
    if (txn->isRead())
        _reads.inc();
    else
        _writes.inc();

    if (_params.banks <= 1) {
        // Legacy single-cursor model: the channel is the only
        // serialisation point.
        sim::Tick start = std::max(now(), _nextFree);
        sim::Tick ser = serializationDelay(txn->size);
        _nextFree = start + ser;
        complete(std::move(txn), std::move(done),
                 start + ser + _params.accessLatency);
        return;
    }

    _pendingBytes += txn->size;
    std::uint32_t bank = bankOf(txn->addr);
    _pending.push_back(Pending{std::move(txn), std::move(done)});
    _bankQueued[bank]++;
    _bankStats[bank].queueDepth.add(
        static_cast<double>(_bankQueued[bank]));
    tryDispatch();
}

void
Dram::tryDispatch()
{
    while (!_pending.empty()) {
        if (_nextFree > now()) {
            scheduleDispatch(_nextFree);
            return;
        }
        // FR-FCFS over a bounded window: the oldest row hit on a
        // ready bank goes first, then the oldest request on any
        // ready bank; if no bank in the window is ready, retry when
        // the earliest one frees up.
        std::size_t window = std::min<std::size_t>(
            _pending.size(), _params.reorderWindow);
        std::size_t pick = window; // sentinel: nothing ready
        sim::Tick earliest = 0;
        bool haveEarliest = false;
        for (std::size_t i = 0; i < window; ++i) {
            std::uint32_t b = bankOf(_pending[i].txn->addr);
            if (_bankFree[b] <= now()) {
                if (_openRow[b] == rowOf(_pending[i].txn->addr) + 1) {
                    pick = i; // oldest row hit wins outright
                    break;
                }
                if (pick == window)
                    pick = i;
            } else if (!haveEarliest || _bankFree[b] < earliest) {
                earliest = _bankFree[b];
                haveEarliest = true;
            }
        }
        if (pick == window) {
            TF_ASSERT(haveEarliest, "no ready bank and none pending");
            scheduleDispatch(earliest);
            return;
        }

        Pending p = std::move(_pending[pick]);
        _pending.erase(_pending.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        if (pick != 0)
            _reorders.inc();

        std::uint32_t b = bankOf(p.txn->addr);
        std::uint64_t row = rowOf(p.txn->addr) + 1;
        bool hit = _openRow[b] == row;
        (hit ? _rowHits : _rowMisses).inc();
        _openRow[b] = row;

        sim::Tick ser = serializationDelay(p.txn->size);
        sim::Tick start = now();
        _nextFree = start + ser;
        // A miss occupies the bank for the activate/restore cycle (or
        // the transfer, whichever is longer); a hit only for the
        // transfer. Access latency is not bank occupancy: it
        // pipelines, like the legacy model's fixed tail.
        sim::Tick occupancy =
            hit ? ser : std::max(_params.rowCycleLatency, ser);
        _bankFree[b] = start + occupancy;
        BankStats &bs = _bankStats[b];
        bs.dispatches.inc();
        (hit ? bs.rowHits : bs.rowMisses).inc();
        bs.busyNs.inc(static_cast<std::uint64_t>(sim::toNs(occupancy)));
        _bankQueued[b]--;
        _pendingBytes -= p.txn->size;
        complete(std::move(p.txn), std::move(p.done),
                 start + ser + _params.accessLatency);
    }
}

void
Dram::scheduleDispatch(sim::Tick when)
{
    // One armed retry at the earliest useful tick; later requests for
    // the same or a later tick piggyback on it, an earlier request
    // supersedes it (the stale event sees a mismatched tick and
    // drops out).
    if (_dispatchArmed && _dispatchAt <= when)
        return;
    _dispatchArmed = true;
    _dispatchAt = when;
    after(when - now(), [this, when]() {
        if (!_dispatchArmed || _dispatchAt != when)
            return; // superseded
        _dispatchArmed = false;
        tryDispatch();
    });
}

void
Dram::stall(sim::Tick duration)
{
    sim::Tick until = now() + duration;
    _nextFree = std::max(_nextFree, until);
    // Freeze every bank cursor too: the banked scheduler must not
    // slip requests around the stall via an idle bank.
    for (auto &bank : _bankFree)
        bank = std::max(bank, until);
    _stalls.inc();
}

void
Dram::reportStats(sim::StatSet &out) const
{
    out.record("reads", static_cast<double>(_reads.value()), "txns");
    out.record("writes", static_cast<double>(_writes.value()), "txns");
    out.record("bytes", static_cast<double>(_bytes.value()), "B");
    out.record("rowHits", static_cast<double>(_rowHits.value()), "txns");
    out.record("rowMisses", static_cast<double>(_rowMisses.value()),
               "txns");
    out.record("reorders", static_cast<double>(_reorders.value()), "txns");
}

void
Dram::attachStats(sim::StatSet &set)
{
    set.attach("reads", _reads, "txns");
    set.attach("writes", _writes, "txns");
    set.attach("bytes", _bytes, "bytes");
    set.attach("serviceStalls", _stalls, "events",
               "injected service-stall windows");
    set.attach("rowHits", _rowHits, "txns", "open-row accesses");
    set.attach("rowMisses", _rowMisses, "txns",
               "row activations (bank busy for the row cycle)");
    set.attach("reorders", _reorders, "txns",
               "FR-FCFS dispatches ahead of an older request");
    for (std::uint32_t b = 0; b < _bankStats.size(); ++b) {
        std::string p = "bank" + std::to_string(b) + ".";
        BankStats &bs = _bankStats[b];
        set.attach(p + "dispatches", bs.dispatches, "txns");
        set.attach(p + "rowHits", bs.rowHits, "txns");
        set.attach(p + "rowMisses", bs.rowMisses, "txns");
        set.attach(p + "busyNs", bs.busyNs, "ns",
                   "cursor occupancy charged to this bank");
        set.attach(p + "queueDepth", bs.queueDepth, "txns",
                   "queued requests for this bank at enqueue");
    }
}

} // namespace tf::mem
