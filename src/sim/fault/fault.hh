/**
 * @file
 * Deterministic fault-injection engine.
 *
 * A FaultPlan is a scripted schedule of timed fault events: transient
 * channel flaps, Gilbert-Elliott burst-loss windows, Ethernet latency
 * spikes, donor-DRAM service stalls, credit starvation, control-plane
 * outages. Components expose *fault points* — named injectable sites
 * registered in a Registry — and the Engine arms a plan against a
 * registry, dispatching each event at its scheduled tick.
 *
 * Everything is deterministic: plans are either hand-scripted or
 * derived from a seed (Plan::randomized), the registry iterates in
 * sorted name order, and the engine schedules through the ordinary
 * EventQueue, so the same seed replays the same fault sequence
 * bit-for-bit — including across bench --jobs sweeps.
 *
 * Every armed/fired fault is counted under "fault.*" and recorded as
 * a Stage::Fault trace span, so Perfetto shows the fault windows
 * inline with the datapath spans they perturb.
 */

#ifndef TF_SIM_FAULT_FAULT_HH
#define TF_SIM_FAULT_FAULT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace tf::sim::fault {

/** Fault shapes a plan can schedule. */
enum class Kind : std::uint8_t {
    ChannelFail = 0, ///< permanent channel death (no auto-recover)
    ChannelFlap,     ///< channel down for `duration`, then back up
    BurstLoss,       ///< Gilbert-Elliott frame-error window on a wire
    LatencySpike,    ///< extra latency window on an Ethernet link
    DramStall,       ///< donor DRAM stops serving for `duration`
    CreditStarve,    ///< Rx credit returns swallowed for `duration`
    ControlOutage,   ///< control plane defers link events
    CachePoison,     ///< hwpoison one clean resident page-cache frame
};

constexpr int kKindCount = static_cast<int>(Kind::CachePoison) + 1;

/** Stable kind name for stats keys and logs. */
constexpr const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::ChannelFail:   return "channelFail";
      case Kind::ChannelFlap:   return "channelFlap";
      case Kind::BurstLoss:     return "burstLoss";
      case Kind::LatencySpike:  return "latencySpike";
      case Kind::DramStall:     return "dramStall";
      case Kind::CreditStarve:  return "creditStarve";
      case Kind::ControlOutage: return "controlOutage";
      case Kind::CachePoison:   return "cachePoison";
    }
    return "unknown";
}

/** Bit for @p k in a fault point's supported-kinds mask. */
constexpr std::uint32_t
kindBit(Kind k)
{
    return 1u << static_cast<unsigned>(k);
}

/**
 * Gilbert-Elliott two-state burst-error model parameters. The channel
 * flips between a good and a bad state per frame; each state has its
 * own frame-error probability. Replaces the i.i.d. coin flip with
 * correlated loss bursts (mean burst length = 1 / pBadGood frames).
 */
struct GilbertElliott
{
    double pGoodBad = 0.0; ///< P(good -> bad) per frame
    double pBadGood = 1.0; ///< P(bad -> good) per frame
    double errGood = 0.0;  ///< frame-error probability in good state
    double errBad = 0.0;   ///< frame-error probability in bad state

    bool
    enabled() const
    {
        return pGoodBad > 0.0 || errGood > 0.0;
    }
};

/** One scheduled fault event. */
struct Event
{
    Tick at = 0;        ///< absolute fire time
    Kind kind = Kind::ChannelFail;
    std::string point;  ///< target fault-point name
    Tick duration = 0;  ///< window length (0 = instantaneous/permanent)
    Tick extraLatency = 0;   ///< LatencySpike: added per-message delay
    GilbertElliott ge;       ///< BurstLoss: error model for the window
};

class Registry;

/**
 * A scripted, ordered schedule of fault events. Build one by chaining
 * add() calls, or derive one deterministically from a seed with
 * randomized().
 */
class Plan
{
  public:
    Plan() = default;

    /** Append an event; events are kept sorted by fire time. */
    Plan &add(Event ev);

    /** Convenience builders for the common shapes. */
    Plan &flap(Tick at, const std::string &point, Tick downFor);
    Plan &burst(Tick at, const std::string &point, Tick duration,
                const GilbertElliott &ge);
    Plan &spike(Tick at, const std::string &point, Tick duration,
                Tick extraLatency);
    Plan &stall(Tick at, const std::string &point, Tick duration);
    Plan &starve(Tick at, const std::string &point, Tick duration);
    Plan &outage(Tick at, const std::string &point, Tick duration);

    const std::vector<Event> &events() const { return _events; }
    bool empty() const { return _events.empty(); }
    std::size_t size() const { return _events.size(); }

    /**
     * Derive a deterministic schedule of @p count events over
     * (0, horizon) from @p seed, drawing targets from the fault
     * points registered in @p reg (sorted order, so the plan depends
     * only on the seed and the registered topology — never on
     * registration order or thread interleaving). Kinds with no
     * supporting point are never drawn. ChannelFail is excluded:
     * random soaks exercise transient faults; permanent death is a
     * scripted decision.
     */
    static Plan randomized(std::uint64_t seed, Tick horizon,
                           const Registry &reg, std::size_t count = 8);

  private:
    std::vector<Event> _events;
};

/**
 * Named fault points. Components register the sites faults can be
 * injected into; the engine dispatches plan events by point name.
 * Iteration order is sorted (std::map) for determinism.
 */
class Registry
{
  public:
    using Handler = std::function<void(const Event &)>;

    /**
     * Register an injectable site. @p kinds is an OR of kindBit()
     * values the handler understands. Re-registering a name replaces
     * the previous entry.
     */
    void add(const std::string &name, std::uint32_t kinds,
             Handler handler);

    bool has(const std::string &name) const;

    /** True if @p name exists and supports @p kind. */
    bool supports(const std::string &name, Kind kind) const;

    /** Sorted names of every point supporting @p kind. */
    std::vector<std::string> pointsSupporting(Kind kind) const;

    /** Sorted names of all registered points. */
    std::vector<std::string> names() const;

    std::size_t size() const { return _points.size(); }

    /**
     * Invoke the handler registered for @p ev's point.
     * @return false when the point is unknown or does not support
     *         the event's kind (the event is then dropped).
     */
    bool dispatch(const Event &ev) const;

  private:
    struct Point
    {
        std::uint32_t kinds = 0;
        Handler handler;
    };

    std::map<std::string, Point> _points;
};

/**
 * Arms a Plan against a Registry on an EventQueue: every event is
 * scheduled at its fire time, counted, traced as a Stage::Fault span
 * covering its window, and dispatched to its fault point.
 */
class Engine
{
  public:
    Engine(EventQueue &eq, const Registry &reg) : _eq(eq), _reg(reg) {}

    /** Schedule every event of @p plan. May be called repeatedly. */
    void arm(const Plan &plan);

    std::uint64_t armed() const { return _armed.value(); }
    std::uint64_t fired() const { return _fired.value(); }
    /** Events whose point was unknown or kind-incompatible. */
    std::uint64_t unmatched() const { return _unmatched.value(); }
    std::uint64_t firedOfKind(Kind k) const
    {
        return _firedByKind[static_cast<std::size_t>(k)].value();
    }

    /** Attach armed/fired/unmatched + per-kind counters. */
    void attachStats(StatSet &set);

    /**
     * Observe every event that dispatches to a registered point,
     * called at fire time on the engine's own queue thread (after
     * the point handler ran). The timeline recorder uses this to
     * annotate fault windows on the exported counter tracks;
     * unmatched events are not reported -- they perturbed nothing.
     */
    void setObserver(std::function<void(const Event &)> fn)
    {
        _observer = std::move(fn);
    }

  private:
    void fire(const Event &ev);

    std::function<void(const Event &)> _observer;
    EventQueue &_eq;
    const Registry &_reg;
    Counter _armed;
    Counter _fired;
    Counter _unmatched;
    Counter _firedByKind[kKindCount];
};

} // namespace tf::sim::fault

#endif // TF_SIM_FAULT_FAULT_HH
