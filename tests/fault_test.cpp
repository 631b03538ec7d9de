/**
 * @file
 * Fault-injection engine tests: plan builders, seeded randomized
 * plans, registry dispatch, engine scheduling/counting, hwpoison
 * frame retirement, a control-plane outage on a plain testbed, and a
 * randomized testbed soak replayed twice for bit-identical results.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "os/address_space.hh"
#include "os/memory_manager.hh"
#include "sim/fault/fault.hh"
#include "system/testbed.hh"

using namespace tf;
using namespace tf::sim::fault;

// ------------------------------------------------- plan + registry

TEST(FaultPlan, BuildersKeepEventsSortedByFireTime)
{
    GilbertElliott ge;
    ge.pGoodBad = 0.1;

    Plan plan;
    plan.stall(sim::microseconds(30), "dram", sim::microseconds(5))
        .flap(sim::microseconds(10), "ch0", sim::microseconds(20))
        .burst(sim::microseconds(50), "wire", sim::microseconds(5), ge)
        .spike(sim::microseconds(20), "eth", sim::microseconds(5),
               sim::nanoseconds(500));

    ASSERT_EQ(plan.size(), 4u);
    for (std::size_t i = 1; i < plan.events().size(); ++i)
        EXPECT_LE(plan.events()[i - 1].at, plan.events()[i].at);
    EXPECT_EQ(plan.events().front().kind, Kind::ChannelFlap);
    EXPECT_EQ(plan.events().back().kind, Kind::BurstLoss);
}

TEST(FaultRegistry, DispatchRespectsKindMask)
{
    Registry reg;
    int flaps = 0;
    reg.add("ch0", kindBit(Kind::ChannelFlap) | kindBit(Kind::ChannelFail),
            [&](const Event &) { ++flaps; });

    EXPECT_TRUE(reg.has("ch0"));
    EXPECT_TRUE(reg.supports("ch0", Kind::ChannelFlap));
    EXPECT_FALSE(reg.supports("ch0", Kind::DramStall));
    EXPECT_FALSE(reg.supports("nope", Kind::ChannelFlap));

    Event ev;
    ev.kind = Kind::ChannelFlap;
    ev.point = "ch0";
    EXPECT_TRUE(reg.dispatch(ev));
    EXPECT_EQ(flaps, 1);

    ev.kind = Kind::DramStall; // registered point, unsupported kind
    EXPECT_FALSE(reg.dispatch(ev));
    ev.kind = Kind::ChannelFlap;
    ev.point = "nope"; // unknown point
    EXPECT_FALSE(reg.dispatch(ev));
    EXPECT_EQ(flaps, 1);
}

TEST(FaultRegistry, NamesAndPointsSupportingAreSorted)
{
    Registry reg;
    auto nop = [](const Event &) {};
    reg.add("z.ch1", kindBit(Kind::ChannelFlap), nop);
    reg.add("a.ch0", kindBit(Kind::ChannelFlap), nop);
    reg.add("m.dram", kindBit(Kind::DramStall), nop);

    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"a.ch0", "m.dram", "z.ch1"}));
    EXPECT_EQ(reg.pointsSupporting(Kind::ChannelFlap),
              (std::vector<std::string>{"a.ch0", "z.ch1"}));
    EXPECT_TRUE(reg.pointsSupporting(Kind::ControlOutage).empty());
}

// --------------------------------------------------------- engine

TEST(FaultEngine, FiresAtScheduledTicksAndCounts)
{
    sim::EventQueue eq;
    Registry reg;
    std::vector<sim::Tick> fireTimes;
    reg.add("ch0",
            kindBit(Kind::ChannelFlap) | kindBit(Kind::CreditStarve),
            [&](const Event &) { fireTimes.push_back(eq.now()); });

    Plan plan;
    plan.flap(sim::microseconds(5), "ch0", sim::microseconds(1))
        .starve(sim::microseconds(9), "ch0", sim::microseconds(1))
        .stall(sim::microseconds(7), "missing", sim::microseconds(1));

    Engine engine(eq, reg);
    engine.arm(plan);
    EXPECT_EQ(engine.armed(), 3u);
    eq.run();

    ASSERT_EQ(fireTimes.size(), 2u);
    EXPECT_EQ(fireTimes[0], sim::microseconds(5));
    EXPECT_EQ(fireTimes[1], sim::microseconds(9));
    EXPECT_EQ(engine.fired(), 2u);
    EXPECT_EQ(engine.unmatched(), 1u); // the stall had no point
    EXPECT_EQ(engine.firedOfKind(Kind::ChannelFlap), 1u);
    EXPECT_EQ(engine.firedOfKind(Kind::CreditStarve), 1u);
    EXPECT_EQ(engine.firedOfKind(Kind::DramStall), 0u);
}

TEST(FaultPlan, RandomizedIsSeedDeterministic)
{
    Registry reg;
    auto nop = [](const Event &) {};
    reg.add("ch0", kindBit(Kind::ChannelFlap) | kindBit(Kind::ChannelFail),
            nop);
    reg.add("ch0.wire", kindBit(Kind::BurstLoss), nop);
    reg.add("dram", kindBit(Kind::DramStall), nop);
    reg.add("eth", kindBit(Kind::LatencySpike), nop);

    const sim::Tick horizon = sim::microseconds(200);
    Plan a = Plan::randomized(1234, horizon, reg, 12);
    Plan b = Plan::randomized(1234, horizon, reg, 12);
    Plan c = Plan::randomized(4321, horizon, reg, 12);

    ASSERT_EQ(a.size(), 12u);
    ASSERT_EQ(b.size(), 12u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].at, b.events()[i].at);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].point, b.events()[i].point);
        EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
    }
    bool differs = false;
    for (std::size_t i = 0; i < c.size() && !differs; ++i)
        differs = c.events()[i].at != a.events()[i].at ||
                  c.events()[i].point != a.events()[i].point;
    EXPECT_TRUE(differs) << "different seeds drew identical plans";

    for (const Event &ev : a.events()) {
        EXPECT_NE(ev.kind, Kind::ChannelFail)
            << "random soaks must stay transient";
        EXPECT_TRUE(reg.supports(ev.point, ev.kind));
        EXPECT_GT(ev.at, sim::Tick{0});
        EXPECT_LT(ev.at, horizon);
    }
}

// ------------------------------------------------------- hwpoison

namespace {

constexpr std::uint64_t kSection = 1 << 22; // 4 MiB
constexpr std::uint64_t kPage = 64 * 1024;

} // namespace

TEST(HwPoison, PoisonedFrameIsRetiredNotRecycled)
{
    os::NumaTopology topo;
    os::NodeId node = topo.addNode("local", true);
    os::MemoryManager mm(topo, kSection, kPage);
    ASSERT_TRUE(mm.onlineSection(node, 0));

    auto frame = mm.allocPageOn(node);
    ASSERT_TRUE(frame.has_value());
    mm.poisonPage(*frame + 17); // any byte inside the page poisons it
    EXPECT_TRUE(mm.isPoisoned(*frame));
    EXPECT_EQ(mm.poisonedPages(), 1u);

    std::uint64_t freeBefore = mm.freePages(node);
    mm.freePage(*frame); // retired, not pushed back on the free list
    EXPECT_EQ(mm.freePages(node), freeBefore);

    // Drain the node: the poisoned frame must never be handed out.
    while (auto p = mm.allocPageOn(node))
        EXPECT_NE(*p, *frame);
}

TEST(HwPoison, TranslateRefaultsPoisonedMapping)
{
    os::NumaTopology topo;
    os::NodeId node = topo.addNode("local", true);
    os::MemoryManager mm(topo, kSection, kPage);
    ASSERT_TRUE(mm.onlineSection(node, 0));

    os::AddressSpace as(mm, node);
    mem::Addr vbase = as.mmap(4 * kPage);
    auto frame = as.translate(vbase + kPage);
    ASSERT_TRUE(frame.has_value());

    mm.poisonPage(*frame);
    auto fresh = as.translate(vbase + kPage);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_NE(*fresh, *frame);
    EXPECT_EQ(as.refaults(), 1u);
    EXPECT_FALSE(mm.isPoisoned(*fresh));

    // The replacement mapping is stable: no further refaults.
    auto again = as.translate(vbase + kPage);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *fresh);
    EXPECT_EQ(as.refaults(), 1u);
}

// ------------------------------------------- randomized soak replay

namespace {

/**
 * One randomized chaos soak against the bonded testbed: closed-loop
 * reads/writes while a seeded Plan::randomized schedule fires.
 * Returns a tuple of invariant-bearing counters for replay
 * comparison.
 */
struct SoakResult
{
    std::uint64_t completed = 0;
    std::uint64_t ok = 0;
    std::uint64_t errored = 0;
    std::uint64_t byteErrors = 0;
    std::uint64_t fired = 0;
    std::uint64_t linkDowns = 0;
    std::uint64_t executed = 0;

    bool
    operator==(const SoakResult &o) const
    {
        return completed == o.completed && ok == o.ok &&
               errored == o.errored && byteErrors == o.byteErrors &&
               fired == o.fired && linkDowns == o.linkDowns &&
               executed == o.executed;
    }
};

SoakResult
runRandomizedSoak(std::uint64_t seed, int totalOps)
{
    const sim::Tick horizon = sim::microseconds(120);
    sim::EventQueue eq;
    sys::TestbedParams tp;
    tp.setup = sys::Setup::BondingDisaggregated;
    tp.donatedBytes = 32ULL * 1024 * 1024;
    tp.seed = seed;
    tp.flow.requestDeadline = sim::microseconds(400);
    tp.flow.ackTimeout = sim::microseconds(5);
    tp.flow.maxReplayRounds = 4;
    sys::Testbed bed(eq, tp);

    Registry reg;
    bed.registerFaultPoints(reg);
    Engine engine(eq, reg);
    Plan plan = Plan::randomized(seed * 7 + 1, horizon, reg, 8);
    EXPECT_FALSE(plan.empty());
    engine.arm(plan);

    const mem::Addr base =
        bed.serverA().datapath()->compute().window().base;
    const std::uint64_t lines = 128;
    std::vector<std::uint8_t> expected(lines, 0);
    std::vector<bool> valid(lines, false), tainted(lines, false),
        busy(lines, false);
    sim::Rng wrng(seed ^ 0x9e3779b97f4a7c15ULL);

    SoakResult res;
    std::uint64_t launched = 0;
    std::function<void()> issueOne = [&]() {
        std::uint64_t line = wrng.below(lines);
        while (busy[line])
            line = wrng.below(lines);
        busy[line] = true;
        bool write = wrng.chance(0.5);
        std::uint8_t pat =
            static_cast<std::uint8_t>((launched * 37 + line) & 0xff);
        auto txn = mem::makeTxn(write ? mem::TxnType::WriteReq
                                      : mem::TxnType::ReadReq,
                                base + line * mem::cachelineBytes);
        if (write)
            txn->data.assign(mem::cachelineBytes, pat);
        ++launched;
        txn->onComplete = [&, line, write, pat](mem::MemTxn &t) {
            ++res.completed;
            busy[line] = false;
            if (t.status == mem::TxnStatus::Ok) {
                ++res.ok;
                if (write) {
                    expected[line] = pat;
                    valid[line] = true;
                } else if (valid[line] && !tainted[line]) {
                    for (std::uint8_t b : t.data)
                        if (b != expected[line]) {
                            ++res.byteErrors;
                            break;
                        }
                }
            } else {
                ++res.errored;
                if (write)
                    tainted[line] = true;
            }
            if (launched < static_cast<std::uint64_t>(totalOps))
                issueOne();
        };
        bed.serverA().issue(std::move(txn));
    };
    for (int i = 0; i < 32 && i < totalOps; ++i)
        issueOne();
    eq.run();

    res.fired = engine.fired();
    res.linkDowns = bed.datapath()->linkDownEvents();
    res.executed = eq.executed();
    return res;
}

} // namespace

TEST(FaultSoak, RandomizedSoakHoldsInvariantsAndReplaysExactly)
{
    constexpr int kOps = 4000;
    SoakResult first = runRandomizedSoak(97, kOps);

    // Invariants: nothing lost, nothing hangs, settled bytes correct.
    EXPECT_EQ(first.completed, static_cast<std::uint64_t>(kOps));
    EXPECT_EQ(first.ok + first.errored, first.completed);
    EXPECT_EQ(first.byteErrors, 0u);
    EXPECT_GT(first.fired, 0u);

    // Determinism: the same seed replays the same run bit-for-bit,
    // down to the total event count the kernel executed.
    SoakResult replay = runRandomizedSoak(97, kOps);
    EXPECT_TRUE(first == replay);

    // A different seed is a different soak (event counts diverge).
    SoakResult other = runRandomizedSoak(98, kOps);
    EXPECT_NE(first.executed, other.executed);
}

// ------------------------------------------ testbed control outage

namespace {

/** Value of the attached stat @p name in the set at @p path. */
double
statValue(const sim::StatsRegistry &reg, const std::string &path,
          const std::string &name)
{
    const sim::StatSet *set = reg.find(path);
    if (set == nullptr)
        return -1;
    for (const sim::StatEntry &e : set->snapshot())
        if (e.name == name)
            return e.value;
    return -1;
}

} // namespace

TEST(FaultTestbed, ControlOutageDefersLinkEventsOfAFlapInItsWindow)
{
    // A "ctrl" outage is not a silent no-op: the control plane runs
    // its timers on the bed's queue. A flap inside the outage window
    // reaches the plane late, deferred.
    sim::EventQueue eq;
    sys::TestbedParams tp;
    tp.setup = sys::Setup::BondingDisaggregated;
    tp.donatedBytes = 32ULL * 1024 * 1024;
    tp.flow.ackTimeout = sim::microseconds(5);
    tp.flow.maxReplayRounds = 4;
    sys::Testbed bed(eq, tp);

    Registry reg;
    bed.registerFaultPoints(reg);
    Engine engine(eq, reg);
    Plan plan;
    plan.outage(sim::microseconds(5), "ctrl", sim::microseconds(300))
        .flap(sim::microseconds(10), "tflow.ch0", sim::microseconds(60));
    engine.arm(plan);

    // Closed-loop reads keep channel 0 busy, so its death is noticed
    // (missing acks) and so is its recovery.
    const mem::Addr base =
        bed.serverA().datapath()->compute().window().base;
    constexpr int kOps = 3000;
    int launched = 0;
    int completed = 0;
    std::function<void()> issueOne = [&]() {
        auto txn = mem::makeTxn(
            mem::TxnType::ReadReq,
            base + static_cast<mem::Addr>(launched % 512) *
                       mem::cachelineBytes);
        ++launched;
        txn->onComplete = [&](mem::MemTxn &) {
            ++completed;
            if (launched < kOps)
                issueOne();
        };
        bed.serverA().issue(std::move(txn));
    };
    for (int i = 0; i < 16; ++i)
        issueOne();
    eq.run();

    EXPECT_EQ(completed, kOps);
    EXPECT_EQ(engine.fired(), 2u);
    EXPECT_GE(bed.datapath()->linkDownEvents(), 1u);
    sim::StatsRegistry stats;
    bed.registerStats(stats);
    EXPECT_GE(statValue(stats, "ctrl", "outages"), 1.0);
    EXPECT_GE(bed.controlPlane().deferredLinkEvents(), 1u);
}
