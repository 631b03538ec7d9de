/**
 * @file
 * Unit tests for the memory substrate: transactions, backing store,
 * DRAM model and cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/transaction.hh"
#include "sim/rng.hh"
#include "tflow/rig.hh"

using namespace tf;
using namespace tf::mem;

TEST(Txn, MakeTxnAssignsUniqueIds)
{
    auto a = makeTxn(TxnType::ReadReq, 0x1000);
    auto b = makeTxn(TxnType::WriteReq, 0x2000);
    EXPECT_NE(a->id, b->id);
    EXPECT_EQ(a->size, cachelineBytes);
    EXPECT_EQ(a->origAddr, 0x1000u);
}

TEST(Txn, ResponseFlip)
{
    auto txn = makeTxn(TxnType::ReadReq, 0x80);
    txn->makeResponse();
    EXPECT_EQ(txn->type, TxnType::ReadResp);
    EXPECT_TRUE(txn->isRead());
    EXPECT_FALSE(isRequest(txn->type));
}

TEST(Txn, CompleteFiresOnce)
{
    auto txn = makeTxn(TxnType::WriteReq, 0x80);
    int fired = 0;
    txn->onComplete = [&](MemTxn &) { ++fired; };
    txn->complete();
    txn->complete();
    EXPECT_EQ(fired, 1);
}

TEST(Txn, FlitCounts)
{
    // 32B flits: header + 4 data flits for 128B payloads.
    auto rd = makeTxn(TxnType::ReadReq, 0);
    EXPECT_EQ(flitCount(*rd), 1u);
    rd->makeResponse();
    EXPECT_EQ(flitCount(*rd), 5u);

    auto wr = makeTxn(TxnType::WriteReq, 0);
    EXPECT_EQ(flitCount(*wr), 5u);
    wr->makeResponse();
    EXPECT_EQ(flitCount(*wr), 1u);
}

namespace {

/** Records failed transactions, in call order with completions. */
struct RecordingSink : ErrorSink
{
    std::vector<std::string> *log = nullptr;
    int failed = 0;

    void
    txnFailed(const MemTxn &) override
    {
        ++failed;
        if (log)
            log->push_back("sink");
    }
};

/**
 * Hold enough live transactions that this thread's freelist is empty
 * (it caches far fewer than 1024), so the next release is the next
 * object the pool hands out.
 */
std::vector<TxnPtr>
drainTxnFreelist()
{
    std::vector<TxnPtr> held;
    for (int i = 0; i < 1024; ++i)
        held.push_back(makeTxn(TxnType::ReadReq, 0));
    return held;
}

} // namespace

TEST(Txn, ErrorSinkRunsBeforeCompletionOnlyOnError)
{
    std::vector<std::string> log;
    RecordingSink sink;
    sink.log = &log;

    auto ok = makeTxn(TxnType::ReadReq, 0x80);
    ok->errorSink = &sink;
    // Completions log the status by its stable name.
    ok->onComplete = [&](MemTxn &t) { log.push_back(statusName(t.status)); };
    ok->complete();
    EXPECT_EQ(sink.failed, 0);

    auto bad = makeTxn(TxnType::ReadReq, 0x80);
    bad->errorSink = &sink;
    bad->error = true;
    bad->onComplete = [&](MemTxn &t) {
        EXPECT_EQ(t.status, TxnStatus::Error);
        log.push_back(statusName(t.status));
    };
    bad->complete();
    bad->complete(); // both run at most once
    EXPECT_EQ(sink.failed, 1);
    EXPECT_EQ(log, (std::vector<std::string>{"ok", "sink", "error"}));
}

// ------------------------------------------------------------------
// Transaction pool: counted handles and the per-thread freelist.
// ------------------------------------------------------------------

TEST(TxnPool, RecycledTxnComesBackInDefaultState)
{
    auto held = drainTxnFreelist();
    RecordingSink sink;
    MemTxn *raw = nullptr;
    std::uint64_t oldId = 0;
    {
        TxnPtr txn = makeTxn(TxnType::WriteReq, 0x1000, 256);
        raw = txn.get();
        oldId = txn->id;
        txn->addr = 0x9000;
        txn->networkId = 3;
        txn->bonded = true;
        txn->arrivalChannel = 2;
        txn->error = true;
        txn->status = TxnStatus::TimedOut;
        txn->issued = 77;
        txn->traceId = 9;
        txn->tag = 5;
        txn->errorSink = &sink;
        txn->hostAddr = 0x2000;
        txn->data.assign(cachelineBytes, 0xab);
        txn->onComplete = [](MemTxn &) {};
        txn->makeResponse();
    }
    TxnPtr g = makeTxn(TxnType::ReadReq, 0x40);
    ASSERT_EQ(g.get(), raw); // recycled object, not a fresh allocation
    EXPECT_EQ(g.useCount(), 1u);
    EXPECT_GT(g->id, oldId);
    EXPECT_EQ(g->type, TxnType::ReadReq);
    EXPECT_EQ(g->addr, 0x40u);
    EXPECT_EQ(g->origAddr, 0x40u);
    EXPECT_EQ(g->size, cachelineBytes);
    EXPECT_EQ(g->networkId, invalidNetworkId);
    EXPECT_FALSE(g->bonded);
    EXPECT_EQ(g->arrivalChannel, -1);
    EXPECT_FALSE(g->error);
    EXPECT_EQ(g->status, TxnStatus::Pending);
    EXPECT_EQ(g->issued, 0u);
    EXPECT_EQ(g->traceId, sim::trace::noTrace);
    EXPECT_EQ(g->tag, noTag);
    EXPECT_EQ(g->errorSink, nullptr);
    EXPECT_EQ(g->hostAddr, 0u);
    EXPECT_TRUE(g->data.empty());
    EXPECT_FALSE(g->onComplete);
    EXPECT_EQ(sink.failed, 0); // recycling completes nothing
}

TEST(TxnPool, RecyclingKeepsAtMostACachelineOfPayload)
{
    auto held = drainTxnFreelist();
    MemTxn *raw = nullptr;
    {
        TxnPtr line = makeTxn(TxnType::WriteReq, 0);
        line->data.assign(cachelineBytes, 1);
        raw = line.get();
    }
    TxnPtr reused = makeTxn(TxnType::ReadReq, 0);
    ASSERT_EQ(reused.get(), raw);
    // A cacheline's capacity stays, so the next payload allocates
    // nothing...
    EXPECT_EQ(reused->data.capacity(), cachelineBytes);

    // ...but a page-sized one (a page-cache install or flush
    // snapshot) is not hoarded.
    reused->data.assign(pageBytes, 1);
    reused.reset();
    TxnPtr again = makeTxn(TxnType::ReadReq, 0);
    ASSERT_EQ(again.get(), raw);
    EXPECT_LE(again->data.capacity(), cachelineBytes);
}

TEST(TxnPool, CompletionCapturesDieWithTheLastHandle)
{
    auto capture = std::make_shared<int>(0);
    std::weak_ptr<int> weak = capture;
    TxnPtr a = makeTxn(TxnType::ReadReq, 0);
    a->onComplete = [capture = std::move(capture)](MemTxn &) {};
    TxnPtr b = a;
    EXPECT_EQ(a.useCount(), 2u);
    a.reset();
    EXPECT_EQ(b.useCount(), 1u);
    EXPECT_FALSE(weak.expired());
    b.reset();
    EXPECT_TRUE(weak.expired());
}

TEST(TxnPool, CloneKeepsIdAndTakesCompletionAndSink)
{
    RecordingSink sink;
    int fired = 0;
    TxnPtr orig = makeTxn(TxnType::WriteReq, 0x80);
    orig->networkId = 4;
    orig->issued = 11;
    orig->traceId = 6;
    orig->hostAddr = 0x1080;
    orig->data.assign(cachelineBytes, 7);
    orig->errorSink = &sink;
    orig->onComplete = [&](MemTxn &t) {
        ++fired;
        EXPECT_TRUE(t.error);
    };

    std::uint64_t before = makeTxn(TxnType::ReadReq, 0)->id;
    TxnPtr clone = cloneForCompletion(*orig);
    std::uint64_t after = makeTxn(TxnType::ReadReq, 0)->id;
    EXPECT_EQ(after, before + 1) << "the clone drew a fresh id";

    EXPECT_NE(clone.get(), orig.get());
    EXPECT_EQ(clone->id, orig->id);
    EXPECT_EQ(clone->type, TxnType::WriteReq);
    EXPECT_EQ(clone->addr, 0x80u);
    EXPECT_EQ(clone->networkId, 4u);
    EXPECT_EQ(clone->issued, 11u);
    EXPECT_EQ(clone->traceId, 6u);
    EXPECT_EQ(clone->hostAddr, 0x1080u);
    EXPECT_EQ(clone->data, orig->data);
    EXPECT_EQ(clone->errorSink, &sink);
    EXPECT_TRUE(clone->onComplete);
    EXPECT_EQ(orig->errorSink, nullptr);
    EXPECT_FALSE(orig->onComplete);

    // The original completes nothing any more; the clone does.
    orig->error = true;
    orig->complete();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(sink.failed, 0);
    clone->error = true;
    clone->complete();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sink.failed, 1);
}

TEST(TxnPool, DatapathRoundTripsAllocateNoTxnOrFrame)
{
    constexpr int kWindow = 64;

    sim::EventQueue eq;
    sim::Rng rng(5);
    flow::FlowParams params;
    params.channels = 2;
    flow::Rig rig("dp", eq, params, rng);
    flow::Datapath &path = rig.dp;
    path.attach(0, flow::Rig::kDonorBase, 1, {0, 1});

    // Closed loop, reads and writes alternating.
    int issued = 0, completed = 0, target = 0;
    std::function<void()> one = [&] {
        if (issued == target)
            return;
        bool write = issued % 2 == 1;
        auto txn = makeTxn(write ? TxnType::WriteReq : TxnType::ReadReq,
                           ocapi::kM1WindowBase +
                               static_cast<Addr>(issued % 4096) *
                                   cachelineBytes);
        if (write)
            txn->data.assign(cachelineBytes, 3);
        ++issued;
        txn->onComplete = [&](MemTxn &t) {
            EXPECT_FALSE(t.error);
            ++completed;
            one();
        };
        path.issue(txn);
    };
    auto framesAllocated = [&] {
        std::uint64_t n = 0;
        for (std::size_t c = 0; c < path.channelCount(); ++c)
            n += path.channel(c).txA().framePool().heapAllocations() +
                 path.channel(c).txB().framePool().heapAllocations();
        return n;
    };
    auto roundTrips = [&](int n) {
        target += n;
        for (int i = 0; i < kWindow; ++i)
            one();
        eq.run();
        ASSERT_EQ(completed, target);
    };

    roundTrips(2000); // warm-up fills both freelists
    std::uint64_t txns = txnHeapAllocations();
    std::uint64_t frames = framesAllocated();
    EXPECT_GT(frames, 0u);
    roundTrips(10000);
    EXPECT_EQ(txnHeapAllocations(), txns);
    EXPECT_EQ(framesAllocated(), frames);
}

TEST(Addr, Alignment)
{
    EXPECT_EQ(alignDown(0x1234, 0x100), 0x1200u);
    EXPECT_EQ(alignUp(0x1234, 0x100), 0x1300u);
    EXPECT_EQ(alignUp(0x1200, 0x100), 0x1200u);
    EXPECT_TRUE(isAligned(0x1200, 0x100));
    EXPECT_FALSE(isAligned(0x1201, 0x100));
}

TEST(BackingStore, ReadBackWritten)
{
    BackingStore store;
    store.write64(0x1000, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(store.read64(0x1000), 0xdeadbeefcafef00dULL);
}

TEST(BackingStore, ZeroFilledByDefault)
{
    BackingStore store;
    EXPECT_EQ(store.read64(0x123456), 0u);
}

TEST(BackingStore, CrossPageAccess)
{
    BackingStore store;
    std::vector<std::uint8_t> out(256), in(256);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i);
    Addr addr = pageBytes - 100; // straddles a page boundary
    store.write(addr, in.data(), in.size());
    store.read(addr, out.data(), out.size());
    EXPECT_EQ(in, out);
    EXPECT_EQ(store.touchedPages(), 2u);
}

TEST(BackingStore, ReadOfUntouchedPageAllocatesNothing)
{
    BackingStore store;
    std::vector<std::uint8_t> out(256, 0xff);
    store.read(3 * pageBytes - 100, out.data(), out.size());
    EXPECT_EQ(out, std::vector<std::uint8_t>(256, 0));
    EXPECT_EQ(store.touchedPages(), 0u);
}

TEST(BackingStore, ZeroWriteToUntouchedPageIsDropped)
{
    BackingStore store;
    std::vector<std::uint8_t> zeros(cachelineBytes, 0);
    store.write(0x4000, zeros.data(), zeros.size());
    store.write64(5 * pageBytes, 0);
    EXPECT_EQ(store.touchedPages(), 0u);
    EXPECT_EQ(store.read64(0x4000), 0u);
}

TEST(BackingStore, ZeroWriteOverwritesExistingData)
{
    BackingStore store;
    store.write64(0x1000, 0xdeadbeefcafef00dULL);
    store.write64(0x1000, 0);
    EXPECT_EQ(store.read64(0x1000), 0u);
    EXPECT_EQ(store.touchedPages(), 1u);
}

TEST(BackingStore, StraddlingWriteCreatesOnlyNonzeroPage)
{
    // 100 bytes land at the end of page 0, 156 at the start of page 1;
    // only the page-1 chunk carries a nonzero byte.
    BackingStore store;
    std::vector<std::uint8_t> in(256, 0), out(256, 0xff);
    in[200] = 0x5a;
    Addr addr = pageBytes - 100;
    store.write(addr, in.data(), in.size());
    EXPECT_EQ(store.touchedPages(), 1u);
    store.read(addr, out.data(), out.size());
    EXPECT_EQ(in, out);
    EXPECT_EQ(store.read64(0), 0u); // page 0 still absent
    EXPECT_EQ(store.touchedPages(), 1u);
}

namespace {

struct DramFixture : ::testing::Test
{
    sim::EventQueue eq;
    BackingStore store;
    DramParams params;
    std::unique_ptr<Dram> dram;

    void
    SetUp() override
    {
        params.accessLatency = sim::nanoseconds(90);
        params.bandwidthBps = 128e9; // 1 ns per 128B line
        dram = std::make_unique<Dram>("dram", eq, params, &store);
    }
};

} // namespace

TEST_F(DramFixture, SingleAccessLatency)
{
    auto txn = makeTxn(TxnType::ReadReq, 0x1000);
    sim::Tick done_at = 0;
    dram->access(txn, [&](TxnPtr t) {
        done_at = eq.now();
        EXPECT_EQ(t->type, TxnType::ReadResp);
        EXPECT_EQ(t->data.size(), cachelineBytes);
    });
    eq.run();
    // 1 ns serialization + 90 ns access.
    EXPECT_EQ(done_at, sim::nanoseconds(91));
}

TEST_F(DramFixture, BandwidthSerialisesBackToBack)
{
    // Channel-cursor model (banks = 1): 100 simultaneous reads,
    // completions spaced by the 1 ns serialization delay of a 128B
    // line at 128 GB/s.
    params.banks = 1;
    dram = std::make_unique<Dram>("dram", eq, params, &store);
    std::vector<sim::Tick> completions;
    for (int i = 0; i < 100; ++i) {
        auto txn = makeTxn(TxnType::ReadReq,
                           static_cast<Addr>(i) * cachelineBytes);
        dram->access(txn,
                     [&](TxnPtr) { completions.push_back(eq.now()); });
    }
    eq.run();
    ASSERT_EQ(completions.size(), 100u);
    EXPECT_EQ(completions.front(), sim::nanoseconds(91));
    EXPECT_EQ(completions.back(), sim::nanoseconds(190));
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_EQ(completions[i] - completions[i - 1],
                  sim::nanoseconds(1));
}

TEST_F(DramFixture, BankedSameStripeNeighborWaitsRowCycle)
{
    // Addresses 0 and 128 share one 256B stripe: same bank, same
    // row. The first access activates the row (bank busy for the
    // 45 ns row cycle); the neighbor is a row hit but can only
    // dispatch once the bank frees: 45 + 1 ns transfer + 90 ns.
    std::vector<sim::Tick> completions;
    for (Addr a : {Addr{0}, Addr{128}}) {
        dram->access(makeTxn(TxnType::ReadReq, a),
                     [&](TxnPtr) { completions.push_back(eq.now()); });
    }
    eq.run();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0], sim::nanoseconds(91));
    EXPECT_EQ(completions[1], sim::nanoseconds(136));
    EXPECT_EQ(dram->rowMisses(), 1u);
    EXPECT_EQ(dram->rowHits(), 1u);
}

TEST_F(DramFixture, BankedIndependentBanksPipelineAtChannelRate)
{
    // One access per bank: every row activation proceeds in parallel,
    // so completions are spaced by the channel serialization alone —
    // identical to the legacy single-cursor model.
    std::vector<sim::Tick> completions;
    for (int i = 0; i < 4; ++i) {
        dram->access(makeTxn(TxnType::ReadReq,
                             static_cast<Addr>(i) * 256),
                     [&](TxnPtr) { completions.push_back(eq.now()); });
    }
    eq.run();
    ASSERT_EQ(completions.size(), 4u);
    for (std::size_t i = 0; i < completions.size(); ++i)
        EXPECT_EQ(completions[i],
                  sim::nanoseconds(91 + static_cast<std::uint64_t>(i)));
    EXPECT_EQ(dram->rowMisses(), 4u);
    EXPECT_EQ(dram->reorders(), 0u);
}

TEST_F(DramFixture, FrFcfsDispatchesAroundBusyBank)
{
    // A1 occupies bank 0 with a row activation; A2 also wants bank 0
    // (a different row, 4 KiB * 16 banks away is irrelevant — 4096 is
    // stripe 16, bank 0, row 1) while A3 wants idle bank 1. FR-FCFS
    // sends A3 ahead of the older A2 instead of convoying the channel
    // behind the busy bank.
    std::vector<int> order;
    auto issue = [&](int id, Addr a) {
        dram->access(makeTxn(TxnType::ReadReq, a),
                     [&order, id](TxnPtr) { order.push_back(id); });
    };
    issue(1, 0);
    issue(2, 4096);
    issue(3, 256);
    eq.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
    EXPECT_EQ(dram->reorders(), 1u);
}

TEST_F(DramFixture, StallFreezesAllBankCursorsAndEstimate)
{
    // A service stall must freeze every bank cursor, not just the
    // channel cursor: accesses to *different* banks both wait out
    // the stall, and estimatedLatency reflects it immediately
    // (fault_soak's bounded-recovery estimate depends on this).
    const sim::Tick stall = sim::microseconds(10);
    dram->stall(stall);
    EXPECT_GE(dram->estimatedLatency(cachelineBytes),
              stall + sim::nanoseconds(90));

    std::vector<sim::Tick> completions;
    for (Addr a : {Addr{0}, Addr{256}}) { // banks 0 and 1
        dram->access(makeTxn(TxnType::ReadReq, a),
                     [&](TxnPtr) { completions.push_back(eq.now()); });
    }
    eq.run();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0], stall + sim::nanoseconds(91));
    EXPECT_EQ(completions[1], stall + sim::nanoseconds(92));
}

TEST_F(DramFixture, PerBankTelemetryTracksDispatchAndOccupancy)
{
    // Three bank-0 accesses (miss, same-row hit, other-row miss) and
    // one to an independent bank: the per-bank counters must
    // attribute the work to the right bank. The first access
    // dispatches straight off the idle channel, so the two held back
    // behind the busy bank are the two-deep backlog high-water.
    for (Addr a : {Addr{0}, Addr{128}, Addr{65536}, Addr{256}}) {
        dram->access(makeTxn(TxnType::ReadReq, a), [](TxnPtr) {});
    }
    eq.run();

    const auto &b0 = dram->bankStats(0);
    EXPECT_EQ(b0.dispatches.value(), 3u);
    EXPECT_EQ(b0.rowMisses.value(), 2u);
    EXPECT_EQ(b0.rowHits.value(), 1u);
    // Misses pay the 45 ns row cycle, the hit only its 1 ns transfer.
    EXPECT_EQ(b0.busyNs.value(), 91u);
    EXPECT_EQ(b0.queueDepth.max(), 2.0);

    const auto &b1 = dram->bankStats(1);
    EXPECT_EQ(b1.dispatches.value(), 1u);
    EXPECT_EQ(b1.rowMisses.value(), 1u);
    EXPECT_EQ(b1.rowHits.value(), 0u);
    EXPECT_EQ(b1.queueDepth.max(), 1.0);
}

TEST_F(DramFixture, BankedEstimateReflectsQueuedBacklog)
{
    // Queue a burst, then ask for the estimate: it must grow with the
    // undispatched backlog instead of reporting an idle channel.
    sim::Tick idle = dram->estimatedLatency(cachelineBytes);
    for (int i = 0; i < 64; ++i) {
        dram->access(makeTxn(TxnType::ReadReq,
                             static_cast<Addr>(i) * cachelineBytes),
                     [](TxnPtr) {});
    }
    EXPECT_GT(dram->estimatedLatency(cachelineBytes), idle);
    eq.run();
    EXPECT_EQ(dram->estimatedLatency(cachelineBytes), idle);
}

TEST_F(DramFixture, FunctionalWriteThenRead)
{
    auto wr = makeTxn(TxnType::WriteReq, 0x2000);
    wr->data.assign(cachelineBytes, 0xab);
    bool wrote = false;
    dram->access(wr, [&](TxnPtr) { wrote = true; });
    eq.run();
    ASSERT_TRUE(wrote);

    auto rd = makeTxn(TxnType::ReadReq, 0x2000);
    dram->access(rd, [&](TxnPtr t) {
        for (auto byte : t->data)
            EXPECT_EQ(byte, 0xab);
    });
    eq.run();
    EXPECT_EQ(dram->reads(), 1u);
    EXPECT_EQ(dram->writes(), 1u);
    EXPECT_EQ(dram->bytesMoved(), 2u * cachelineBytes);
}

TEST(CacheModel, HitAfterFill)
{
    Cache cache({1024 * 128, 8, 128});
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1040, false).hit); // same line
    EXPECT_FALSE(cache.access(0x1080, false).hit); // next line
}

TEST(CacheModel, LruEviction)
{
    // Direct calculation: 2 KiB cache, 2 ways, 128B lines -> 8 sets.
    Cache cache({2048, 2, 128});
    EXPECT_EQ(cache.sets(), 8u);
    // Three lines mapping to set 0: addresses 0, 8*128, 16*128.
    EXPECT_FALSE(cache.access(0, false).hit);
    EXPECT_FALSE(cache.access(8 * 128, false).hit);
    EXPECT_TRUE(cache.access(0, false).hit); // refresh line 0
    // Fill third line: evicts 8*128 (LRU), not 0.
    EXPECT_FALSE(cache.access(16 * 128, false).hit);
    EXPECT_TRUE(cache.access(0, false).hit);
    EXPECT_FALSE(cache.access(8 * 128, false).hit);
}

TEST(CacheModel, DirtyEvictionReportsWriteback)
{
    Cache cache({2048, 2, 128});
    cache.access(0, true); // dirty line in set 0
    cache.access(8 * 128, false);
    auto res = cache.access(16 * 128, false); // evicts dirty line 0
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.victimAddr, 0u);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(CacheModel, StreamingDefeatsCache)
{
    Cache cache({1024 * 1024, 8, 128});
    // One pass over 16 MiB: every access a miss.
    for (Addr a = 0; a < 16 * 1024 * 1024; a += 128)
        cache.access(a, false);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_DOUBLE_EQ(cache.hitRatio(), 0.0);
}

TEST(CacheModel, HotSetStaysResident)
{
    Cache cache({1024 * 1024, 8, 128});
    // Working set: 256 KiB, fits. First pass misses, then all hits.
    for (int pass = 0; pass < 4; ++pass)
        for (Addr a = 0; a < 256 * 1024; a += 128)
            cache.access(a, false);
    EXPECT_EQ(cache.misses(), 2048u);
    EXPECT_EQ(cache.hits(), 3u * 2048u);
    cache.flush();
    EXPECT_FALSE(cache.access(0, false).hit);
}

TEST(CacheModel, FlushBeforeFirstAccessMatchesFlushAfterUse)
{
    // A fresh cache flushed before any access must behave exactly
    // like a used cache after flush(): same hit/miss/write-back trace.
    Cache fresh({2048, 2, 128});
    fresh.flush();
    Cache used({2048, 2, 128});
    for (Addr a = 0; a < 64 * 128; a += 128)
        used.access(a, true);
    used.flush();
    const std::uint64_t before[3] = {used.hits(), used.misses(),
                                     used.writebacks()};

    const std::pair<Addr, bool> seq[] = {
        {0, true},        {8 * 128, false}, {0, false},
        {16 * 128, true}, {8 * 128, false}, {24 * 128, false},
        {16 * 128, false}};
    for (auto [addr, write] : seq) {
        CacheResult a = fresh.access(addr, write);
        CacheResult b = used.access(addr, write);
        EXPECT_EQ(a.hit, b.hit) << addr;
        EXPECT_EQ(a.writeback, b.writeback) << addr;
        EXPECT_EQ(a.victimAddr, b.victimAddr) << addr;
    }
    EXPECT_EQ(fresh.hits(), used.hits() - before[0]);
    EXPECT_EQ(fresh.misses(), used.misses() - before[1]);
    EXPECT_EQ(fresh.writebacks(), used.writebacks() - before[2]);
    EXPECT_GT(fresh.writebacks(), 0u);
    EXPECT_GT(fresh.hits(), 0u);
}

// ---- differential check against the LRU-stamp tag layout ----

namespace {

/**
 * The tag array as it was before MRU-ordered words: one
 * {tag, lru, valid, dirty} record per way and a global LRU clock. A
 * fill takes an invalid way if there is one, else the smallest stamp.
 */
class StampCache
{
  public:
    explicit StampCache(CacheParams p)
        : _p(p), _sets(p.sizeBytes / p.lineBytes / p.ways),
          _lines(_sets * p.ways)
    {
    }

    CacheResult access(Addr addr, bool write)
    {
        ++_tick;
        Addr tag = addr / _p.lineBytes;
        Line *set = &_lines[(tag & (_sets - 1)) * _p.ways];
        Line *victim = set;
        for (std::uint32_t w = 0; w < _p.ways; ++w) {
            Line &line = set[w];
            if (line.valid && line.tag == tag) {
                line.lru = _tick;
                line.dirty = line.dirty || write;
                ++hits;
                return CacheResult{true, false, 0};
            }
            if (!line.valid)
                victim = &line;
            else if (victim->valid && line.lru < victim->lru)
                victim = &line;
        }
        ++misses;
        CacheResult result;
        if (victim->valid && victim->dirty) {
            result.writeback = true;
            result.victimAddr = victim->tag * _p.lineBytes;
            ++writebacks;
        }
        *victim = Line{tag, _tick, true, write};
        return result;
    }

    void flush() { std::fill(_lines.begin(), _lines.end(), Line{}); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };

    CacheParams _p;
    std::uint64_t _sets;
    std::vector<Line> _lines;
    std::uint64_t _tick = 0;
};

/** Next address of a stream over a cache of @p bytes, @p line lines. */
using AddrStream =
    std::function<Addr(sim::Rng &, std::uint64_t bytes, std::uint32_t line)>;

/**
 * Drive both tag layouts with @p next (25% stores, flushing with
 * probability @p flushChance per access) at 1-16 ways and 64/128 B
 * lines; every access must agree on hit, write-back and victim, and
 * the counters must agree at the end.
 */
void
diffAgainstStamps(const AddrStream &next, double flushChance = 0)
{
    constexpr std::uint64_t bytes = 32 * 1024;
    constexpr int accesses = 40000;
    for (std::uint32_t line : {64u, 128u}) {
        for (std::uint32_t ways : {1u, 2u, 4u, 8u, 16u}) {
            SCOPED_TRACE(std::to_string(ways) + " ways, " +
                         std::to_string(line) + " B lines");
            CacheParams p{bytes, ways, line};
            Cache cache(p);
            StampCache ref(p);
            sim::Rng rng(ways * 1000 + line);
            for (int i = 0; i < accesses; ++i) {
                if (flushChance > 0 && rng.chance(flushChance)) {
                    cache.flush();
                    ref.flush();
                }
                Addr addr = next(rng, bytes, line);
                bool write = rng.chance(0.25);
                CacheResult got = cache.access(addr, write);
                CacheResult want = ref.access(addr, write);
                ASSERT_EQ(got.hit, want.hit) << "access " << i;
                ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
                ASSERT_EQ(got.victimAddr, want.victimAddr)
                    << "access " << i;
            }
            EXPECT_EQ(cache.hits(), ref.hits);
            EXPECT_EQ(cache.misses(), ref.misses);
            EXPECT_EQ(cache.writebacks(), ref.writebacks);
            EXPECT_GT(ref.writebacks, 0u);
        }
    }
}

/** A random byte of the first @p span bytes above @p base. */
Addr
anyByte(sim::Rng &rng, Addr base, std::uint64_t span)
{
    return base + rng.below(span);
}

} // namespace

TEST(CacheDiff, WorkingSetThreeTimesTheCache)
{
    diffAgainstStamps([](sim::Rng &rng, std::uint64_t bytes,
                         std::uint32_t) {
        return anyByte(rng, 0, 3 * bytes);
    });
}

TEST(CacheDiff, Streaming)
{
    Addr cursor = 0;
    diffAgainstStamps([&cursor](sim::Rng &, std::uint64_t,
                                std::uint32_t line) {
        cursor += line;
        return cursor;
    });
}

TEST(CacheDiff, HotSetTakesNinetyPercent)
{
    // 90% of accesses to a half-cache hot set, the rest to a cold
    // region eight times the cache.
    diffAgainstStamps([](sim::Rng &rng, std::uint64_t bytes,
                         std::uint32_t) {
        return rng.chance(0.9) ? anyByte(rng, 0, bytes / 2)
                               : anyByte(rng, bytes, 8 * bytes);
    });
}

TEST(CacheDiff, HighAddressesAliasLowSets)
{
    // Regions at and above 2^47 share set indices with the low one,
    // so only the full line number tells them apart.
    diffAgainstStamps([](sim::Rng &rng, std::uint64_t bytes,
                         std::uint32_t) {
        static constexpr Addr bases[] = {0, Addr{1} << 47, Addr{1} << 56,
                                         Addr{1} << 63};
        return anyByte(rng, bases[rng.below(4)], 2 * bytes);
    });
}

TEST(CacheDiff, InterleavedFlushes)
{
    diffAgainstStamps(
        [](sim::Rng &rng, std::uint64_t bytes, std::uint32_t) {
            return anyByte(rng, 0, 3 * bytes);
        },
        0.001);
}
