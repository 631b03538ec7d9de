/**
 * @file
 * Tests for the causal-span tracing subsystem: buffer modes and
 * sampling, balanced span propagation through the full datapath
 * (including the LLC replay path), latency attribution, the Perfetto
 * export, and the panic flight recorder.
 */

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "sim/logging.hh"
#include "sim/parallel/engine.hh"
#include "sim/trace/export.hh"
#include "tflow/rig.hh"

using namespace tf;
using namespace tf::flow;
using tf::mem::Addr;
using tf::mem::TxnPtr;
using tf::mem::TxnType;
namespace trace = tf::sim::trace;

// ------------------------------------------------------ TraceBuffer

TEST(TraceBufferT, FullModeRecordsEveryTransaction)
{
    trace::TraceBuffer tb;
    tb.setFull(true);
    std::set<trace::TraceId> ids;
    for (int i = 0; i < 100; ++i) {
        trace::TraceId id = tb.newTrace();
        EXPECT_NE(id, trace::noTrace);
        ids.insert(id);
    }
    EXPECT_EQ(ids.size(), 100u);
}

TEST(TraceBufferT, FlightModeSamples)
{
    trace::TraceBuffer tb;
    int sampled = 0;
    const int issues = 3 * trace::TraceBuffer::kSampleInterval;
    for (int i = 0; i < issues; ++i)
        if (tb.newTrace() != trace::noTrace)
            ++sampled;
    EXPECT_EQ(sampled, 3); // first issue plus every interval-th
}

TEST(TraceBufferT, FlightRingKeepsNewestEvents)
{
    trace::TraceBuffer tb;
    const std::size_t cap = trace::TraceBuffer::kFlightCap;
    for (std::size_t i = 0; i < cap + 100; ++i)
        tb.begin(i, 1, trace::Stage::C1);
    EXPECT_EQ(tb.size(), cap);
    auto events = tb.snapshot();
    ASSERT_EQ(events.size(), cap);
    // Oldest-first unroll: first retained tick is 100.
    EXPECT_EQ(events.front().tick, 100u);
    EXPECT_EQ(events.back().tick, cap + 99);
}

TEST(TraceBufferT, IdTagDisambiguatesBuffers)
{
    trace::TraceBuffer a;
    trace::TraceBuffer b;
    a.setFull(true);
    b.setFull(true);
    b.setIdTag(1);
    EXPECT_NE(a.newTrace(), b.newTrace());
}

TEST(TraceBufferDeathTest, RingHoldsFewerThan65536Buffers)
{
    // A shared ring tells its buffers' events apart by a 16-bit source
    // index: 65,535 buffers fit, one more is a panic.
    ::testing::FLAGS_gtest_death_test_style = "fast";
    trace::TraceBuffer owner;
    std::vector<std::unique_ptr<trace::TraceBuffer>> members(0xFFFE);
    for (auto &m : members) {
        m = std::make_unique<trace::TraceBuffer>();
        m->shareRing(owner);
    }
    trace::TraceBuffer extra;
    EXPECT_DEATH(extra.shareRing(owner), "fewer than 65,536 buffers");
}

TEST(TraceBufferT, NoTraceHooksAreNoOps)
{
    trace::TraceBuffer tb;
    tb.begin(10, trace::noTrace, trace::Stage::Rmmu);
    tb.end(20, trace::noTrace, trace::Stage::Rmmu);
    EXPECT_EQ(tb.size(), 0u);
}

// -------------------------------------------- datapath propagation

namespace {

constexpr Addr kWindowBase = ocapi::kM1WindowBase;
constexpr std::uint64_t kSectionBytes = Rig::kSection;

struct TraceFixture : ::testing::Test
{
    sim::EventQueue eq;
    sim::Rng rng{2024};
    std::unique_ptr<Rig> rig;
    Datapath *dp = nullptr;

    void
    build(FlowParams params = FlowParams{})
    {
        eq.trace().setFull(true);
        rig = std::make_unique<Rig>("dp", eq, params, rng);
        dp = &rig->dp;
        dp->attach(0, Rig::kDonorBase, 1, {0});
    }

    /** Issue @p count chained reads with @p outstanding in flight. */
    int
    pump(int count, int outstanding = 32)
    {
        int issued = 0;
        int completed = 0;
        std::function<void()> one = [&]() {
            if (issued >= count)
                return;
            auto txn = mem::makeTxn(
                TxnType::ReadReq,
                kWindowBase + (static_cast<Addr>(issued) * 128) %
                                  kSectionBytes);
            ++issued;
            txn->onComplete = [&](mem::MemTxn &) {
                ++completed;
                one();
            };
            dp->issue(txn);
        };
        for (int i = 0; i < outstanding && i < count; ++i)
            one();
        eq.run();
        return completed;
    }
};

/** begins/ends per (id, stage) and unmatched-open count. */
struct SpanTally
{
    std::map<std::pair<trace::TraceId, int>, int> begins;
    std::map<std::pair<trace::TraceId, int>, int> ends;
    std::set<trace::TraceId> ids;
};

SpanTally
tally(const std::vector<trace::SpanEvent> &events)
{
    SpanTally t;
    for (const auto &ev : events) {
        auto key = std::make_pair(ev.id, static_cast<int>(ev.stage));
        if (ev.kind == trace::SpanEvent::Kind::Begin)
            ++t.begins[key];
        else
            ++t.ends[key];
        t.ids.insert(ev.id);
    }
    return t;
}

} // namespace

TEST_F(TraceFixture, EveryStageOpensExactlyOneBalancedSpan)
{
    build();
    ASSERT_EQ(pump(50), 50);

    auto events = eq.trace().snapshot();
    SpanTally t = tally(events);
    EXPECT_EQ(t.ids.size(), 50u);

    // The un-bonded single-channel read path crosses exactly these
    // stages, each with one begin and one end per transaction.
    const std::set<trace::Stage> expected = {
        trace::Stage::TagQueue,       trace::Stage::HostSerdesDown,
        trace::Stage::StackDown,      trace::Stage::Rmmu,
        trace::Stage::Route,          trace::Stage::LlcReq,
        trace::Stage::DonorStackDown, trace::Stage::DonorSerdesDown,
        trace::Stage::C1,             trace::Stage::DonorSerdesUp,
        trace::Stage::DonorStackUp,   trace::Stage::LlcResp,
        trace::Stage::StackUp,        trace::Stage::HostSerdesUp,
    };
    for (trace::TraceId id : t.ids) {
        for (trace::Stage stage : expected) {
            auto key = std::make_pair(id, static_cast<int>(stage));
            EXPECT_EQ(t.begins[key], 1)
                << "id " << id << " stage " << trace::stageName(stage);
            EXPECT_EQ(t.ends[key], 1)
                << "id " << id << " stage " << trace::stageName(stage);
        }
    }
    EXPECT_EQ(events.size(), 50u * expected.size() * 2);
}

TEST_F(TraceFixture, SpansStayBalancedAcrossLlcReplay)
{
    FlowParams params;
    params.frameErrorRate = 0.2; // drops + corruption -> replays
    build(params);
    ASSERT_EQ(pump(300), 300);

    // The error injection must actually have exercised go-back-N.
    EXPECT_GT(dp->channel(0).txA().replayedFrames() +
                  dp->channel(0).txB().replayedFrames(),
              0u);

    SpanTally t = tally(eq.trace().snapshot());
    EXPECT_EQ(t.ids.size(), 300u);
    // Replayed frames re-deliver the same transaction object exactly
    // once (duplicates are discarded by sequence number), so every
    // begin still has exactly one end -- no orphans either way.
    for (const auto &[key, n] : t.begins) {
        EXPECT_EQ(n, 1) << "stage "
                        << trace::stageName(
                               static_cast<trace::Stage>(key.second));
        EXPECT_EQ(t.ends[key], 1);
    }
    for (const auto &[key, n] : t.ends)
        EXPECT_EQ(t.begins[key], 1)
            << "orphan end, stage "
            << trace::stageName(static_cast<trace::Stage>(key.second));
}

TEST_F(TraceFixture, StageDurationsTileTheRoundTrip)
{
    build();
    ASSERT_EQ(pump(1, 1), 1);

    trace::TraceCollector collector;
    collector.addBuffer(eq.trace(), "dp");
    trace::Attribution attr = collector.attribution();

    ASSERT_EQ(attr.totalNs.count(), 1u);
    double stageSum = 0;
    for (const auto &q : attr.stageNs)
        if (q.count() > 0)
            stageSum += q.mean();
    // Stage spans tile the round trip exactly: means are exact sums
    // (no sketch quantisation), so the agreement is tight.
    double rtt = dp->compute().rttNs().mean();
    EXPECT_NEAR(stageSum, rtt, rtt * 1e-9);
    EXPECT_NEAR(attr.totalNs.mean(), rtt, rtt * 1e-9);
}

TEST(TraceTilingT, StageDurationsTileUnderBothFramingModes)
{
    // The tiling invariant must survive cut-through: staggered
    // per-transaction release and coalesced shared-header frames move
    // where time is spent (llcResp shrinks, c1 overlap grows) but
    // every nanosecond of the round trip still belongs to exactly one
    // stage span. Run loaded so frames actually coalesce.
    for (bool ct : {false, true}) {
        SCOPED_TRACE(ct ? "cut-through" : "store-and-forward");
        sim::EventQueue eq;
        eq.trace().setFull(true);
        sim::Rng rng{2024};
        FlowParams params;
        params.cutThrough = ct;
        Rig rig("dp", eq, params, rng);
        Datapath &dp = rig.dp;
        dp.attach(0, Rig::kDonorBase, 1, {0});

        const int total = 64;
        int issued = 0;
        int completed = 0;
        std::function<void()> one = [&]() {
            if (issued >= total)
                return;
            auto txn = mem::makeTxn(
                TxnType::ReadReq,
                kWindowBase + (static_cast<Addr>(issued) * 128) %
                                  kSectionBytes);
            ++issued;
            txn->onComplete = [&](mem::MemTxn &) {
                ++completed;
                one();
            };
            dp.issue(txn);
        };
        for (int i = 0; i < 16; ++i)
            one();
        eq.run();
        ASSERT_EQ(completed, total);

        trace::TraceCollector collector;
        collector.addBuffer(eq.trace(), "dp");
        trace::Attribution attr = collector.attribution();

        ASSERT_EQ(attr.totalNs.count(),
                  static_cast<std::size_t>(total));
        double stageSum = 0;
        for (const auto &q : attr.stageNs)
            if (q.count() > 0)
                stageSum += q.mean() * static_cast<double>(q.count()) /
                            static_cast<double>(total);
        double rtt = dp.compute().rttNs().mean();
        EXPECT_NEAR(stageSum, rtt, rtt * 1e-9);
        EXPECT_NEAR(attr.totalNs.mean(), rtt, rtt * 1e-9);
    }
}

TEST_F(TraceFixture, ResponsesReuseTheRequestTraceId)
{
    build();
    auto txn = mem::makeTxn(TxnType::ReadReq, kWindowBase + 0x100);
    TxnPtr got;
    txn->onComplete = [&](mem::MemTxn &t) {
        got = TxnPtr(&t);
    };
    dp->issue(txn);
    eq.run();
    ASSERT_NE(got, nullptr);
    EXPECT_NE(got->traceId, trace::noTrace);
    // One id covers the whole round trip: request and response spans
    // all carry it.
    SpanTally t = tally(eq.trace().snapshot());
    EXPECT_EQ(t.ids.size(), 1u);
    EXPECT_EQ(*t.ids.begin(), got->traceId);
}

// ------------------------------------------------------- exporting

TEST_F(TraceFixture, PerfettoExportIsWellFormed)
{
    build();
    ASSERT_EQ(pump(5), 5);

    trace::TraceCollector collector;
    collector.addBuffer(eq.trace(), "dp");
    std::ostringstream os;
    collector.writeJson(os);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"tagQueue\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""),
              std::string::npos);
    // Balanced async begin/end counts in the serialised form too.
    std::size_t b = 0, e = 0;
    for (std::size_t pos = 0;
         (pos = json.find("\"ph\":\"b\"", pos)) != std::string::npos;
         ++pos)
        ++b;
    for (std::size_t pos = 0;
         (pos = json.find("\"ph\":\"e\"", pos)) != std::string::npos;
         ++pos)
        ++e;
    EXPECT_EQ(b, e);
    EXPECT_GT(b, 0u);
}

// ------------------------------------------------- flight recorder

namespace {

/**
 * A fresh dump directory of the test's own, set as the process dump
 * directory and removed with its contents at the end, so no other
 * test's dumps are ever seen here. The death tests fork their child
 * ("fast" style) so it inherits the setting.
 */
struct FlightDumpDir
{
    std::filesystem::path path;

    FlightDumpDir()
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "flight_dumps_XXXXXX")
                .string();
        EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
        path = tmpl;
        trace::setDumpDir(path.string());
    }

    ~FlightDumpDir()
    {
        trace::setDumpDir("");
        std::filesystem::remove_all(path);
    }

    std::vector<std::filesystem::path>
    dumps() const
    {
        std::vector<std::filesystem::path> out;
        for (const auto &ent : std::filesystem::directory_iterator(path)) {
            std::string name = ent.path().filename().string();
            if (name.rfind("tf_flight_", 0) == 0 &&
                ent.path().extension() == ".json")
                out.push_back(ent.path());
        }
        return out;
    }
};

} // namespace

using FlightRecorderDeathTest = TraceFixture;

TEST_F(FlightRecorderDeathTest, PanicDumpsLastSpans)
{
    ::testing::FLAGS_gtest_death_test_style = "fast";
    FlightDumpDir dir;

    // The child drives sampled flight-mode traffic (the fixture's
    // setFull is overridden back to flight mode), then hits an
    // assertion.
    EXPECT_DEATH(
        {
            build();
            eq.trace().setFull(false);
            pump(200);
            TF_ASSERT(false, "forced failure for the recorder");
        },
        "flight recorder: .* dumped to .*tf_flight_");

    auto dumps = dir.dumps();
    ASSERT_EQ(dumps.size(), 1u);
    std::ifstream in(dumps.front());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"tagQueue\""), std::string::npos);
    EXPECT_NE(json.find("forced failure for the recorder"),
              std::string::npos);
}

TEST_F(FlightRecorderDeathTest, FatalDoesNotDumpFlight)
{
    // The asymmetry is deliberate (DESIGN.md §17): panic() marks an
    // internal bug, so the last in-flight spans are evidence worth
    // shipping; fatal() marks a user/configuration error, where a
    // flight dump would bury the actionable message under an
    // irrelevant wall of JSON. Pin both halves: exit code 1, no
    // tf_flight_*.json left behind.
    ::testing::FLAGS_gtest_death_test_style = "fast";
    FlightDumpDir dir;

    EXPECT_EXIT(
        {
            build();
            eq.trace().setFull(false);
            pump(200);
            sim::fatal("configuration rejected: %s", "bad knob");
        },
        ::testing::ExitedWithCode(1),
        "configuration rejected: bad knob");

    EXPECT_TRUE(dir.dumps().empty());
}

TEST(EngineFlightDeathTest, DumpNamesEachLp)
{
    // An engine's LPs share one flight ring; the dump labels each
    // LP's node with the LP's name, not the buffer's registry index.
    ::testing::FLAGS_gtest_death_test_style = "fast";
    FlightDumpDir dir;

    EXPECT_DEATH(
        {
            sim::par::ParallelEngine engine;
            for (const char *name : {"h0", "h1", "s0"})
                engine.addLp(name).queue().trace().begin(
                    1, 1, trace::Stage::C1);
            TF_ASSERT(false, "forced failure for the recorder");
        },
        "flight recorder: 3 buffer\\(s\\) dumped to .*tf_flight_");

    auto dumps = dir.dumps();
    ASSERT_EQ(dumps.size(), 1u);
    std::ifstream in(dumps.front());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    for (const char *name : {"h0", "h1", "s0"})
        EXPECT_NE(json.find("\"args\":{\"name\":\"" + std::string(name) +
                            "\"}"),
                  std::string::npos)
            << name << " in " << json;
    EXPECT_EQ(json.find("\"eq0\""), std::string::npos) << json;
}

// ------------------------------------------------------- TF_DEBUG

TEST(TfDebugT, ArgumentsSkippedWhenFiltered)
{
    sim::setLogLevel(sim::LogLevel::Warn);
    int evaluated = 0;
    auto expensive = [&evaluated]() {
        ++evaluated;
        return 7;
    };
    TF_DEBUG("value %d", expensive());
    EXPECT_EQ(evaluated, 0); // filtered: arguments never evaluated

    sim::setLogLevel(sim::LogLevel::Debug);
    TF_DEBUG("value %d", expensive());
    EXPECT_EQ(evaluated, 1);
    sim::setLogLevel(sim::LogLevel::Warn);
}
