#include "os/pagecache/pagecache.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace tf::os {

using sim::trace::Stage;

PageCache::PageCache(std::string name, sim::EventQueue &eq,
                     PageCacheParams params, MemoryManager &mm,
                     NodeId localNode, mem::Dram &localDram,
                     RemoteIssue remote)
    : SimObject(std::move(name), eq), _params(params), _mm(mm),
      _localNode(localNode), _dram(localDram),
      _remote(std::move(remote))
{
    TF_ASSERT(_params.pageBytes == _mm.pageBytes(),
              "cache page size must match the memory manager's");
    TF_ASSERT(_params.pageBytes % mem::cachelineBytes == 0,
              "page size must be a whole number of cachelines");
    TF_ASSERT(_params.frameBudget >= 2, "cache needs >= 2 frames");
    TF_ASSERT(_params.partitions >= 1, "cache needs >= 1 partition");
    TF_ASSERT(_params.lineMlp >= 1, "cache needs >= 1 line in flight");
    TF_ASSERT(_params.maxInflightFills >= 1, "cache needs a fill slot");
    TF_ASSERT(_params.maxInflightFlushes >= 1,
              "cache needs a flush slot");
    TF_ASSERT(_params.highWatermark >= _params.lowWatermark,
              "cache watermarks inverted");

    _frames.resize(_params.frameBudget);
    _free.resize(_params.partitions);
    for (std::uint32_t i = 0; i < _params.frameBudget; ++i) {
        auto frame = _mm.allocPageOn(_localNode);
        TF_ASSERT(frame.has_value(),
                  "local node cannot back the cache frame budget");
        _frames[i].addr = *frame;
        _free[i % _params.partitions].push_back(i);
        ++_freeCount;
    }
}

PageCache::~PageCache()
{
    for (Frame &f : _frames) {
        if (f.state != FrameState::Retired)
            _mm.freePage(f.addr);
    }
}

void
PageCache::access(mem::TxnPtr txn)
{
    TF_ASSERT(mem::isRequest(txn->type), "cache takes requests");
    std::uint64_t page = pageOf(txn->addr);
    TF_ASSERT(pageOf(txn->addr + txn->size - 1) == page,
              "cache access must not straddle a page");

    Waiter w;
    w.start = now();
    w.traceId = eventQueue().trace().newTrace();
    w.txn = std::move(txn);

    auto it = _table.find(page);
    if (it != _table.end()) {
        std::uint32_t idx = it->second;
        Frame &f = _frames[idx];
        switch (f.state) {
          case FrameState::Resident:
            _hits.inc();
            _hitRate.add(1.0);
            eventQueue().trace().begin(now(), w.traceId,
                                       Stage::CacheHit);
            serveHit(idx, std::move(w), false);
            return;
          case FrameState::Flushing:
            // The donor has not seen the write-back yet, so the local
            // copy is the only correct source: rescue the frame and
            // replay once the flush settles.
            _hits.inc();
            _rescues.inc();
            _hitRate.add(1.0);
            eventQueue().trace().begin(now(), w.traceId,
                                       Stage::CacheHit);
            f.rescue = true;
            f.waiters.push_back(std::move(w));
            return;
          case FrameState::Filling:
            _misses.inc();
            _hitRate.add(0.0);
            eventQueue().trace().begin(now(), w.traceId,
                                       Stage::CacheMiss);
            f.waiters.push_back(std::move(w));
            return;
          default:
            TF_ASSERT(false, "page table holds a %d-state frame",
                      static_cast<int>(f.state));
        }
    }

    _misses.inc();
    _hitRate.add(0.0);
    eventQueue().trace().begin(now(), w.traceId, Stage::CacheMiss);
    auto pit = _pending.find(page);
    if (pit == _pending.end()) {
        _pending[page].push_back(std::move(w));
        _backlog.push_back(page);
    } else {
        pit->second.push_back(std::move(w));
    }
    pump();
}

void
PageCache::serveHit(std::uint32_t idx, Waiter w, bool wasMiss)
{
    Frame &f = _frames[idx];
    TF_ASSERT(f.state == FrameState::Resident,
              "serveHit on a non-resident frame");
    f.referenced = true;
    if (w.txn->type == mem::TxnType::WriteReq)
        f.dirty = true;
    std::uint64_t off = w.txn->addr % _params.pageBytes;
    w.txn->addr = f.addr + off;
    sim::Tick start = w.start;
    sim::trace::TraceId id = w.traceId;
    _dram.access(std::move(w.txn),
                 [this, start, id, wasMiss](mem::TxnPtr t) {
                     double ns = static_cast<double>(now() - start);
                     (wasMiss ? _missNs : _hitNs).add(ns);
                     eventQueue().trace().end(
                         now(), id,
                         wasMiss ? Stage::CacheMiss : Stage::CacheHit);
                     t->complete();
                 });
}

void
PageCache::pump()
{
    // Queued write-backs first: they are the only path that turns a
    // Flushing frame back into a free one.
    while (!_flushQueue.empty() &&
           _activeFlushes < _params.maxInflightFlushes) {
        std::uint32_t idx = _flushQueue.front();
        _flushQueue.pop_front();
        beginFlushIo(idx);
    }

    while (!_backlog.empty() &&
           _activeFills < _params.maxInflightFills) {
        std::uint64_t page = _backlog.front();
        std::int32_t idx = allocFrame(page);
        if (idx < 0) {
            if (!evictOne())
                break; // nothing evictable; IO completions re-pump
            continue;
        }
        _backlog.pop_front();
        Frame &f = _frames[static_cast<std::uint32_t>(idx)];
        f.page = page;
        f.state = FrameState::Filling;
        f.dirty = false;
        f.referenced = false;
        f.rescue = false;
        auto pit = _pending.find(page);
        TF_ASSERT(pit != _pending.end(),
                  "backlog page with no parked waiters");
        f.waiters = std::move(pit->second);
        _pending.erase(pit);
        _table.emplace(page, static_cast<std::uint32_t>(idx));
        startFill(static_cast<std::uint32_t>(idx));
    }
    maybeArmProvider();
}

std::int32_t
PageCache::allocFrame(std::uint64_t page)
{
    std::uint32_t home = partitionOf(page);
    for (std::uint32_t n = 0; n < _params.partitions; ++n) {
        std::uint32_t p = (home + n) % _params.partitions;
        if (_free[p].empty())
            continue;
        std::uint32_t idx = _free[p].front();
        _free[p].pop_front();
        --_freeCount;
        TF_ASSERT(_frames[idx].state == FrameState::Free,
                  "free list holds a busy frame");
        return static_cast<std::int32_t>(idx);
    }
    return -1;
}

void
PageCache::releaseFrame(std::uint32_t idx)
{
    Frame &f = _frames[idx];
    f.state = FrameState::Free;
    f.dirty = false;
    f.referenced = false;
    f.rescue = false;
    f.waiters.clear();
    f.buf.clear();
    f.buf.shrink_to_fit();
    _free[idx % _params.partitions].push_back(idx);
    ++_freeCount;
}

bool
PageCache::evictOne()
{
    // Two clock laps: the first may only clear reference bits.
    std::uint32_t budget = _params.frameBudget * 2;
    for (std::uint32_t n = 0; n < budget; ++n) {
        std::uint32_t idx = _clockHand;
        _clockHand = (_clockHand + 1) % _params.frameBudget;
        Frame &f = _frames[idx];
        if (f.state != FrameState::Resident)
            continue;
        if (f.referenced) {
            f.referenced = false; // second chance
            continue;
        }
        _evictions.inc();
        if (f.dirty) {
            // The frame frees when the write-back lands; keep
            // scanning for a clean victim to free right now.
            startFlush(idx);
            continue;
        }
        _table.erase(f.page);
        releaseFrame(idx);
        return true;
    }
    return false;
}

// --------------------------- fill path ----------------------------

void
PageCache::startFill(std::uint32_t idx)
{
    Frame &f = _frames[idx];
    TF_ASSERT(f.state == FrameState::Filling, "startFill state");
    ++_activeFills;
    f.ioError = false;
    f.lineNext = 0;
    f.lineDone = 0;
    f.buf.assign(_params.pageBytes, 0);
    for (std::uint32_t i = 0;
         i < _params.lineMlp && f.lineNext < linesPerPage(); ++i)
        issueFillLine(idx);
}

void
PageCache::issueFillLine(std::uint32_t idx)
{
    Frame &f = _frames[idx];
    std::uint32_t line = f.lineNext++;
    mem::Addr addr = f.page * _params.pageBytes +
                     static_cast<mem::Addr>(line) * mem::cachelineBytes;
    auto rd = mem::makeTxn(mem::TxnType::ReadReq, addr,
                           mem::cachelineBytes);
    rd->onComplete = [this, idx, line](mem::MemTxn &t) {
        onFillLine(idx, line, t);
    };
    _remote(std::move(rd));
}

void
PageCache::onFillLine(std::uint32_t idx, std::uint32_t line,
                      mem::MemTxn &t)
{
    Frame &f = _frames[idx];
    TF_ASSERT(f.state == FrameState::Filling,
              "fill line landed on a non-filling frame");
    if (t.status != mem::TxnStatus::Ok || t.error) {
        f.ioError = true;
    } else {
        TF_ASSERT(t.data.size() >= mem::cachelineBytes,
                  "fill response short of a cacheline");
        std::copy_n(t.data.begin(), mem::cachelineBytes,
                    f.buf.begin() +
                        static_cast<std::size_t>(line) *
                            mem::cachelineBytes);
    }
    ++f.lineDone;
    if (!f.ioError && f.lineNext < linesPerPage())
        issueFillLine(idx); // keep the MLP window full
    else if (f.lineDone == f.lineNext)
        finishFill(idx);
}

void
PageCache::finishFill(std::uint32_t idx)
{
    Frame &f = _frames[idx];
    TF_ASSERT(_activeFills > 0, "fill accounting underflow");
    --_activeFills;

    if (f.ioError) {
        // The fill died (dead path, deadline): error-complete every
        // parked access so requester-side recovery (hwpoison of the
        // window frame) proceeds exactly as without a cache.
        _fillErrors.inc();
        auto ws = std::move(f.waiters);
        _table.erase(f.page);
        releaseFrame(idx);
        for (Waiter &w : ws) {
            w.txn->error = true;
            _missNs.add(static_cast<double>(now() - w.start));
            eventQueue().trace().end(now(), w.traceId,
                                     Stage::CacheMiss);
            w.txn->complete();
        }
        pump();
        return;
    }

    // Install the assembled page into the frame through the DRAM
    // model (pays local latency + serialisation), then replay the
    // parked accesses against the resident copy.
    auto wr = mem::makeTxn(
        mem::TxnType::WriteReq, f.addr,
        static_cast<std::uint32_t>(_params.pageBytes));
    wr->data = std::move(f.buf);
    f.buf.clear();
    _dram.access(std::move(wr), [this, idx](mem::TxnPtr) {
        Frame &fr = _frames[idx];
        TF_ASSERT(fr.state == FrameState::Filling,
                  "install landed on a non-filling frame");
        fr.state = FrameState::Resident;
        fr.referenced = true;
        fr.dirty = false;
        _fills.inc();
        auto ws = std::move(fr.waiters);
        fr.waiters.clear();
        for (Waiter &w : ws)
            serveHit(idx, std::move(w), true);
        pump();
    });
}

// -------------------------- flush path ----------------------------

void
PageCache::startFlush(std::uint32_t idx)
{
    Frame &f = _frames[idx];
    TF_ASSERT(f.state == FrameState::Resident && f.dirty,
              "startFlush wants a dirty resident frame");
    f.state = FrameState::Flushing;
    f.rescue = false;
    if (_activeFlushes < _params.maxInflightFlushes)
        beginFlushIo(idx);
    else
        _flushQueue.push_back(idx);
}

void
PageCache::beginFlushIo(std::uint32_t idx)
{
    Frame &f = _frames[idx];
    TF_ASSERT(f.state == FrameState::Flushing, "beginFlushIo state");
    ++_activeFlushes;
    f.ioError = false;
    f.lineNext = 0;
    f.lineDone = 0;
    f.wbTraceId = eventQueue().trace().newTrace();
    eventQueue().trace().begin(now(), f.wbTraceId, Stage::CacheWb);
    // Snapshot the page from local DRAM first. Re-accesses arriving
    // during the flush park until it settles, so the snapshot cannot
    // be overtaken by a local write.
    auto rd = mem::makeTxn(
        mem::TxnType::ReadReq, f.addr,
        static_cast<std::uint32_t>(_params.pageBytes));
    _dram.access(std::move(rd), [this, idx](mem::TxnPtr t) {
        Frame &fr = _frames[idx];
        TF_ASSERT(fr.state == FrameState::Flushing,
                  "flush snapshot on a non-flushing frame");
        fr.buf = std::move(t->data);
        for (std::uint32_t i = 0;
             i < _params.lineMlp && fr.lineNext < linesPerPage(); ++i)
            issueFlushLine(idx);
    });
}

void
PageCache::issueFlushLine(std::uint32_t idx)
{
    Frame &f = _frames[idx];
    std::uint32_t line = f.lineNext++;
    mem::Addr addr = f.page * _params.pageBytes +
                     static_cast<mem::Addr>(line) * mem::cachelineBytes;
    auto wr = mem::makeTxn(mem::TxnType::WriteReq, addr,
                           mem::cachelineBytes);
    auto first = f.buf.begin() +
                 static_cast<std::size_t>(line) * mem::cachelineBytes;
    wr->data.assign(first, first + mem::cachelineBytes);
    wr->onComplete = [this, idx](mem::MemTxn &t) {
        onFlushLine(idx, t);
    };
    _remote(std::move(wr));
}

void
PageCache::onFlushLine(std::uint32_t idx, mem::MemTxn &t)
{
    Frame &f = _frames[idx];
    TF_ASSERT(f.state == FrameState::Flushing,
              "flush line landed on a non-flushing frame");
    if (t.status != mem::TxnStatus::Ok || t.error)
        f.ioError = true;
    ++f.lineDone;
    if (!f.ioError && f.lineNext < linesPerPage())
        issueFlushLine(idx);
    else if (f.lineDone == f.lineNext)
        finishFlush(idx);
}

void
PageCache::finishFlush(std::uint32_t idx)
{
    Frame &f = _frames[idx];
    TF_ASSERT(_activeFlushes > 0, "flush accounting underflow");
    --_activeFlushes;
    eventQueue().trace().end(now(), f.wbTraceId, Stage::CacheWb);
    f.wbTraceId = sim::trace::noTrace;
    f.buf.clear();

    if (f.ioError) {
        // The donor may hold a torn page: keep the local copy
        // resident and dirty so a later eviction retries.
        _wbErrors.inc();
        f.state = FrameState::Resident;
        f.dirty = true;
        f.referenced = true;
    } else {
        _writebacks.inc();
        if (f.rescue) {
            f.state = FrameState::Resident;
            f.dirty = false;
            f.referenced = true;
        } else {
            TF_ASSERT(f.waiters.empty(),
                      "unrescued flush with parked waiters");
            _table.erase(f.page);
            releaseFrame(idx);
        }
    }
    f.rescue = false;
    if (f.state == FrameState::Resident && !f.waiters.empty()) {
        auto ws = std::move(f.waiters);
        f.waiters.clear();
        for (Waiter &w : ws)
            serveHit(idx, std::move(w), false);
    }
    pump();
}

// ------------------------- page provider --------------------------

void
PageCache::maybeArmProvider()
{
    if (_providerArmed || _freeCount >= _params.lowWatermark ||
        !hasEvictable())
        return;
    _providerArmed = true;
    after(_params.providerPeriod, [this] { providerTick(); });
}

void
PageCache::providerTick()
{
    _providerArmed = false;
    if (_params.providerPressureLatency > 0 &&
        _dram.estimatedLatency(mem::cachelineBytes) >
            _params.providerPressureLatency) {
        // The local controller is stalled or deeply backlogged (the
        // banked estimate covers frozen bank cursors and queued
        // bytes alike): eviction write-backs would stage their dirty
        // lines into that backlog. Defer the sweep a period; misses
        // still evict inline, so nothing can wedge on this.
        _providerDeferrals.inc();
        _providerArmed = true;
        after(_params.providerPeriod, [this] { providerTick(); });
        return;
    }
    _providerRuns.inc();
    while (_freeCount < _params.highWatermark) {
        if (!evictOne())
            break;
    }
    pump(); // re-arms through maybeArmProvider when still low
}

bool
PageCache::hasEvictable() const
{
    for (const Frame &f : _frames) {
        if (f.state == FrameState::Resident)
            return true;
    }
    return false;
}

// ------------------------------ misc ------------------------------

bool
PageCache::poisonCleanPage()
{
    for (std::uint32_t n = 0; n < _params.frameBudget; ++n) {
        std::uint32_t idx = (_clockHand + n) % _params.frameBudget;
        Frame &f = _frames[idx];
        if (f.state != FrameState::Resident || f.dirty)
            continue;
        TF_ASSERT(f.waiters.empty(), "resident frame with waiters");
        _poisonedFrames.inc();
        _table.erase(f.page);
        // Retire the frame through the kernel hwpoison path; the
        // page was clean so the donor still holds the truth and the
        // next touch refaults through the miss path.
        _mm.poisonPage(f.addr);
        _mm.freePage(f.addr);
        if (auto repl = _mm.allocPageOn(_localNode)) {
            f.addr = *repl;
            releaseFrame(idx);
            pump();
        } else {
            f.state = FrameState::Retired;
        }
        return true;
    }
    _poisonSkipped.inc();
    return false;
}

void
PageCache::registerFaultPoints(sim::fault::Registry &reg,
                               const std::string &name)
{
    reg.add(name, sim::fault::kindBit(sim::fault::Kind::CachePoison),
            [this](const sim::fault::Event &) { poisonCleanPage(); });
}

void
PageCache::flushAll()
{
    for (std::uint32_t idx = 0; idx < _params.frameBudget; ++idx) {
        Frame &f = _frames[idx];
        if (f.state == FrameState::Resident && f.dirty) {
            startFlush(idx);
            f.rescue = true; // write back but stay resident
        }
    }
}

std::uint32_t
PageCache::residentPages() const
{
    std::uint32_t n = 0;
    for (const Frame &f : _frames)
        n += f.state == FrameState::Resident ? 1 : 0;
    return n;
}

std::uint32_t
PageCache::dirtyPages() const
{
    std::uint32_t n = 0;
    for (const Frame &f : _frames) {
        n += (f.state == FrameState::Resident && f.dirty) ? 1 : 0;
    }
    return n;
}

std::uint32_t
PageCache::freeFrames() const
{
    return _freeCount;
}

void
PageCache::attachStats(sim::StatSet &set)
{
    set.attach("hits", _hits, "accesses",
               "served from a resident local frame");
    set.attach("misses", _misses, "accesses",
               "parked on a remote page fill");
    set.attach("evictions", _evictions, "pages",
               "clock victims (clean frees + flush starts)");
    set.attach("writebacks", _writebacks, "pages",
               "dirty pages flushed to the donor");
    set.attach("fills", _fills, "pages",
               "pages streamed in from the donor");
    set.attach("fillErrors", _fillErrors, "pages",
               "fills that error-completed their waiters");
    set.attach("wbErrors", _wbErrors, "pages",
               "write-backs kept dirty after a line error");
    set.attach("rescues", _rescues, "accesses",
               "hits on a frame mid write-back");
    set.attach("poisonedFrames", _poisonedFrames, "frames",
               "frames retired by injected hwpoison");
    set.attach("poisonSkipped", _poisonSkipped, "faults",
               "injected hwpoison that found no clean frame");
    set.attach("providerRuns", _providerRuns, "runs",
               "background page-provider wakeups");
    set.attach("providerDeferrals", _providerDeferrals, "runs",
               "sweeps deferred on local-controller pressure");
    set.attach("hitRate", _hitRate, "ratio",
               "1 per hit, 0 per miss; mean is the hit rate");
    set.attach("hitNs", _hitNs, "ns",
               "access-to-completion latency, hit path");
    set.attach("missNs", _missNs, "ns",
               "access-to-completion latency, miss path");
}

} // namespace tf::os
