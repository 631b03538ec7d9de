/**
 * @file
 * Windowed time-series telemetry over the live stats objects.
 *
 * Every metric the bench JSON exported before this subsystem was one
 * end-of-run aggregate; the phenomena the simulator exists to study
 * (fault windows, congestion onset, cache warmup) happen *during* the
 * run. A timeline::Recorder attaches to one LP's EventQueue and
 * closes fixed-width windows of simulated time, emitting per-window
 *
 *  - counter deltas   (events completed in the window),
 *  - gauge samples    (instantaneous values at the window boundary),
 *  - quantile series  (p50/p95/p99 of the samples added in the
 *                      window, via QuantileSketch::delta).
 *
 * The sampler is an ordinary event scheduled at the boundary of the
 * window containing the queue's next pending event (ClockEdge
 * priority, so boundary-tick work lands in the *new* window). When
 * the queue drains the sampler disarms itself -- it never keeps a
 * finished LP alive -- and re-arms from the engine's post-merge wake
 * hook when cross-LP traffic is delivered. Arming depends only on
 * queue contents and the wake hook runs at a fixed point of the
 * engine's window loop, so the sampled series are a pure function of
 * the simulation (DESIGN.md §17).
 *
 * A Recorder also evaluates declarative SLO rules (the in-sim health
 * watchdog) as windows close, and collects fault-engine windows so
 * the exporter can line a latency spike up with its injected cause.
 * Finished recorders merge into one Timeline in LP-index order for
 * the bench JSON `timeline` section and the Perfetto counter tracks.
 */

#ifndef TF_SIM_TIMELINE_TIMELINE_HH
#define TF_SIM_TIMELINE_TIMELINE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace tf::sim {
class JsonWriter;
}

namespace tf::sim::timeline {

/** How a series' per-window values were produced. */
enum class SeriesKind {
    Delta,    ///< counter increments within the window (sums on merge)
    Gauge,    ///< instantaneous sample at the window boundary
    Quantile, ///< quantile of samples added within the window (NaN if none)
};

/** One merged, window-indexed series. */
struct Series
{
    SeriesKind kind = SeriesKind::Delta;
    std::string unit;
    std::vector<double> values; ///< one per window; NaN = no data
};

/** A fault-engine dispatch, annotated onto the exported tracks. */
struct FaultWindow
{
    std::string label; ///< "<kind>:<point>"
    Tick begin = 0;
    Tick end = 0;
};

/**
 * Declarative SLO rule: "metric <op> threshold for N consecutive
 * windows within [from, until)". Declarable programmatically and
 * from the topo DSL `monitors` stanza.
 */
struct SloRule
{
    enum class Op { Gt, Lt, Ge, Le };

    std::string name;   ///< identifier; stats land under "slo.<name>"
    std::string metric; ///< a series name the owning recorder produces
    Op op = Op::Gt;
    double threshold = 0.0;
    /** Consecutive bad windows required before counting violations. */
    std::uint32_t forWindows = 1;
    Tick from = 0;        ///< evaluate windows starting at >= from
    Tick until = maxTick; ///< ... and ending at <= until
    bool dumpFlight = false; ///< dump owning LP's flight ring on 1st breach
};

/** Spelled form of an op ( ">" "<" ">=" "<=" ). */
const char *opName(SloRule::Op op);
/** Parse the spelled form; false when @p s is not an op. */
bool parseOp(const std::string &s, SloRule::Op &out);

/** End-of-run outcome of one SloRule. */
struct SloResult
{
    std::string name;
    std::string metric;
    std::uint64_t evaluated = 0;  ///< windows with data in range
    std::uint64_t violations = 0; ///< windows in a tripped streak
    /** Worst value seen in the op's bad direction; NaN if none. */
    double worstValue = 0.0;
    /** Start tick of the first tripped window; maxTick if none. */
    Tick firstViolationTick = maxTick;
};

/**
 * Per-LP windowed sampler + watchdog. Construct, register probes and
 * rules, start() before the run, finish() after it, then merge into
 * a Timeline. All methods run from the LP's own events (or the
 * engine's merge, for ensureArmed) -- never concurrently.
 */
class Recorder
{
  public:
    Recorder(EventQueue &eq, Tick window);
    ~Recorder();

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    Tick window() const { return _window; }

    /** Per-window delta series of a monotonic counter. */
    void addCounter(const std::string &name, const Counter &c,
                    const std::string &unit);

    /** Boundary-sampled gauge; @p fn is called at window close. */
    void addGauge(const std::string &name, std::function<double()> fn,
                  const std::string &unit);

    /**
     * Per-window p50/p95/p99 of a live sketch, emitted as
     * "<prefix>P50<suffix>" etc. Windows with no new samples emit
     * NaN (JSON null), not a stale repeat.
     */
    void addSketch(const std::string &prefix, const QuantileSketch &q,
                   const std::string &suffix, const std::string &unit);

    /** Series names this recorder produces (sorted). */
    std::vector<std::string> seriesNames() const;
    bool hasSeries(const std::string &name) const;

    /**
     * Attach an SLO rule; rule.metric must resolve to one of this
     * recorder's series (TF_ASSERT otherwise -- the topo builder
     * validates first and reports file:line:col).
     */
    void addRule(const SloRule &rule);

    /** Record a fault window (wired to fault::Engine::setObserver). */
    void noteFault(const std::string &label, Tick begin, Tick end);

    /** Arm the sampler. Call once, after probes are registered. */
    void start();

    /**
     * Re-arm (or pull forward) the sampler after new events were
     * delivered -- the LP wake hook. Cheap no-op when already armed
     * at the right boundary.
     */
    void ensureArmed();

    /**
     * Close the final (possibly partial) window at the queue's
     * current tick and stop sampling. Idempotent.
     */
    void finish();

    /** Windows closed so far. */
    std::size_t windows() const { return _windows; }

    const std::vector<SloResult> &sloResults() const { return _sloResults; }
    const std::vector<FaultWindow> &faults() const { return _faults; }

  private:
    friend class Timeline;

    struct CounterProbe
    {
        std::string name;
        std::string unit;
        const Counter *counter;
        std::uint64_t last = 0;
        std::vector<double> values;
    };

    struct GaugeProbe
    {
        std::string name;
        std::string unit;
        std::function<double()> fn;
        std::vector<double> values;
    };

    struct SketchProbe
    {
        std::string prefix;
        std::string suffix;
        std::string unit;
        const QuantileSketch *sketch;
        QuantileSketch last;
        std::vector<double> p50, p95, p99;
    };

    /** Resolved probe reference for rule evaluation. */
    struct RuleState
    {
        SloRule rule;
        SloResult result;
        int probeKind = 0;     ///< 0 counter, 1 gauge, 2 sketch
        std::size_t probe = 0; ///< index into the matching vector
        int quantile = 0;      ///< 0 p50, 1 p95, 2 p99 (sketch only)
        std::uint32_t streak = 0;
        bool dumped = false;
    };

    void arm(Tick target);
    void armFromQueue();
    void onBoundary();
    void closeTo(Tick boundary);
    void evalRules(std::size_t w, Tick wStart, Tick wEnd);
    double ruleValue(const RuleState &rs, std::size_t w) const;
    void dumpBreach(const RuleState &rs);

    EventQueue &_eq;
    Tick _window;
    Tick _closedUpTo = 0;
    std::size_t _windows = 0;
    bool _started = false;
    bool _finished = false;
    EventQueue::EventId _armedId = EventQueue::invalidEvent;
    Tick _armedAt = 0;

    std::vector<CounterProbe> _counters;
    std::vector<GaugeProbe> _gauges;
    std::vector<SketchProbe> _sketches;
    std::vector<RuleState> _rules;
    std::vector<SloResult> _sloResults;
    std::vector<FaultWindow> _faults;
};

/**
 * Merged, export-ready timeline: the union of every recorder's
 * series, zero/NaN-padded to a common window horizon. adopt() order
 * must be deterministic (LP-index order, then point-index order for
 * sharded bench runs); the sorted series map makes the JSON
 * independent of it anyway, but fault windows keep insertion order
 * until writeJson sorts them.
 */
class Timeline
{
  public:
    /** Window width; 0 = disabled/empty. Set on first adopt(). */
    Tick window() const { return _window; }
    std::size_t windows() const { return _windows; }
    bool empty() const { return _windows == 0; }

    /**
     * Merge a finished recorder. Same-name Delta series sum
     * window-wise (sharded counters of one logical metric);
     * same-name Gauge/Quantile series are a wiring bug (TF_ASSERT).
     * @p prefix namespaces every series/fault/slo name (bench points
     * use "p<i>.").
     */
    void adopt(const Recorder &rec, const std::string &prefix = "");

    /** Merge another timeline (per-point shards, in index order). */
    void adopt(const Timeline &other, const std::string &prefix = "");

    const std::map<std::string, Series> &series() const { return _series; }
    const std::vector<FaultWindow> &faults() const { return _faults; }
    const std::vector<SloResult> &slo() const { return _slo; }

    /**
     * Value of @p name at window @p w with the merge-time padding
     * applied (Delta 0, Gauge last-known, Quantile NaN).
     */
    double at(const std::string &name, std::size_t w) const;

    /** Emit the tf-bench-v2 "timeline" object. */
    void writeJson(JsonWriter &w) const;

    /**
     * The value a series takes past its recorded horizon: 0 for
     * deltas (nothing happened), last-known for gauges, NaN for
     * quantiles (no samples). Exporters use this to pad every series
     * to the merged window count.
     */
    static double padValue(const Series &s);

  private:
    void mergeSeries(const std::string &name, SeriesKind kind,
                     const std::string &unit,
                     const std::vector<double> &values);

    Tick _window = 0;
    std::size_t _windows = 0;
    std::map<std::string, Series> _series;
    std::vector<FaultWindow> _faults;
    std::vector<SloResult> _slo;
};

} // namespace tf::sim::timeline

#endif // TF_SIM_TIMELINE_TIMELINE_HH
