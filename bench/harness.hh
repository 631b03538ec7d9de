/**
 * @file
 * Unified bench harness: named scenarios, deterministic seeds, and a
 * machine-readable JSON result per run.
 *
 * Every scenario runs against a ScenarioContext that collects
 *  - headline metrics (bandwidth, latency quantiles, throughput),
 *  - the full hierarchical stats registry of every testbed it drove,
 *  - run metadata (seed, git SHA, config, simulated ticks, events).
 * The harness writes one BENCH_<scenario>.json per scenario; with a
 * fixed seed the document is byte-identical across runs except for
 * the wall-clock fields, which CI's regression gate ignores.
 */

#ifndef TF_BENCH_HARNESS_HH
#define TF_BENCH_HARNESS_HH

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/timeline/timeline.hh"
#include "sim/trace/export.hh"
#include "system/testbed.hh"

namespace tf::bench {

/** The five experimental configurations of Fig. 4, in paper order. */
inline const std::vector<sys::Setup> allSetups = {
    sys::Setup::Local,
    sys::Setup::SingleDisaggregated,
    sys::Setup::BondingDisaggregated,
    sys::Setup::Interleaved,
    sys::Setup::ScaleOut,
};

/** The three disaggregated configurations plotted in Fig. 5. */
inline const std::vector<sys::Setup> streamSetups = {
    sys::Setup::SingleDisaggregated,
    sys::Setup::BondingDisaggregated,
    sys::Setup::Interleaved,
};

struct Bed
{
    std::unique_ptr<sim::EventQueue> eq;
    std::unique_ptr<sys::Testbed> testbed;
};

/** Fresh testbed per data point so runs are independent. */
inline Bed
makeBed(sys::Setup setup, std::uint64_t donated,
        std::uint64_t cacheBytes, std::uint64_t seed)
{
    Bed bed;
    bed.eq = std::make_unique<sim::EventQueue>();
    sys::TestbedParams tp;
    tp.setup = setup;
    tp.donatedBytes = donated;
    tp.node.cache = mem::CacheParams{cacheBytes, 8, 128};
    tp.seed = seed;
    bed.testbed = std::make_unique<sys::Testbed>(*bed.eq, tp);
    return bed;
}

/**
 * Everything one scenario run produces. Scenarios add headline
 * metrics and register component stats; the harness serialises the
 * lot plus run metadata.
 */
class ScenarioContext
{
  public:
    ScenarioContext(std::string scenario, std::uint64_t seed,
                    bool smoke);

    const std::string &scenario() const { return _scenario; }
    std::uint64_t seed() const { return _seed; }
    /** True = CI-sized run (short ticks); false = full figure. */
    bool smoke() const { return _smoke; }

    /** Worker-thread budget (--jobs); 1 = fully serial. */
    unsigned jobs() const { return _jobs; }
    void setJobs(unsigned jobs) { _jobs = jobs ? jobs : 1; }

    /** Directory scenario output files belong under (--out). */
    const std::string &outDir() const { return _outDir; }
    void setOutDir(std::string dir) { _outDir = std::move(dir); }

    /** The shared stats registry scenarios register beds into. */
    sim::StatsRegistry &registry() { return _registry; }

    /**
     * Full span tracing requested (--trace). Scenarios that support
     * it switch their queues' TraceBuffers to full mode and hand the
     * filled buffers back via collectTrace(); scenarios that don't
     * simply produce an empty trace.
     */
    bool traceEnabled() const { return _traceEnabled; }
    void setTraceEnabled(bool on) { _traceEnabled = on; }

    /**
     * Response-framing override (--cut-through on|off). Unset means
     * the FlowParams default; scenarios that build datapaths apply it
     * so the same binary can A/B the framing modes without a rebuild.
     */
    std::optional<bool> cutThroughOverride() const
    {
        return _cutThrough;
    }
    void setCutThroughOverride(std::optional<bool> v)
    {
        _cutThrough = v;
    }
    /** Apply the override (if any) to a FlowParams in place. */
    void applyFlowOverrides(flow::FlowParams &fp) const
    {
        if (_cutThrough)
            fp.cutThrough = *_cutThrough;
    }

    /**
     * Timeline window width (--timeline-window), microseconds.
     * 0 = not forced: topology runs fall back to the spec's choice
     * (on iff it declares monitors), other scenarios stay off.
     */
    double timelineWindowUs() const { return _timelineUs; }
    void setTimelineWindowUs(double us) { _timelineUs = us; }

    /**
     * The merged windowed timeline (tf-bench-v2 `timeline` section
     * + Perfetto counter tracks). Scenarios adopt their finished
     * recorders/instance timelines into it; point sub-contexts merge
     * into the parent on commit, so probes registered inside
     * runPoints() must carry a per-point prefix ("p<i>.").
     */
    sim::timeline::Timeline &timeline() { return _timeline; }
    const sim::timeline::Timeline &timeline() const
    {
        return _timeline;
    }

    /** Snapshot a queue's trace buffer under a node label. */
    void collectTrace(const sim::EventQueue &eq, std::string node);

    /** The collected spans (merged across points in index order). */
    const sim::trace::TraceCollector &collector() const
    {
        return _collector;
    }

    /**
     * Append trace.attr.<stage>.{count,p50Ns,p95Ns,p99Ns} metrics
     * (plus trace.attr.total.*) from the collected spans. Called by
     * the harness after the scenario ran, before serialisation, so
     * the attribution table lands in the same BENCH JSON.
     */
    void appendTraceMetrics();

    /** Write the collected spans (and, when the timeline is live,
     * its counter tracks + fault marks) as trace-event JSON. */
    bool writeTrace(const std::string &path);

    /** Record one headline metric (insertion order preserved). */
    void metric(const std::string &name, double value,
                const std::string &unit = "");

    /** Record mean/p50/p95/p99 of a latency sample, in micro-sec. */
    void latencyUs(const std::string &prefix,
                   const sim::SampleStat &s);

    /** Fold a drained event queue into the simTicks/events meta. */
    void addRun(const sim::EventQueue &eq);

    /**
     * Run @p count independent data points, possibly concurrently on
     * jobs() threads. Each point gets a private sub-context (same
     * scenario/seed/smoke, jobs = 1); @p fn must confine itself to
     * that sub-context and its own beds, and freeze any registered
     * stats before its components die — exactly the discipline the
     * serial scenarios already follow. Results are committed in
     * point-index order (metrics append, registries merge under
     * their sorted paths), so the output document is byte-identical
     * to a --jobs 1 run regardless of thread count or schedule.
     */
    void runPoints(
        std::size_t count,
        const std::function<void(ScenarioContext &, std::size_t)>
            &fn);

    /**
     * Serialise the full result document. @p wallMs < 0 omits the
     * wall-clock fields (wallMs and the eventsPerSec derived from
     * it), which makes same-seed runs byte-identical (the
     * determinism tests rely on this).
     */
    std::string toJson(double wallMs = -1) const;

    /** One-line human summary of the headline metrics. */
    void printSummary(std::FILE *out) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    void commit(ScenarioContext &&point);

    std::string _scenario;
    std::uint64_t _seed;
    bool _smoke;
    bool _traceEnabled = false;
    std::optional<bool> _cutThrough;
    unsigned _jobs = 1;
    double _timelineUs = 0.0;
    std::string _outDir = ".";
    sim::StatsRegistry _registry;
    sim::timeline::Timeline _timeline;
    sim::trace::TraceCollector _collector;
    std::vector<Metric> _metrics;
    std::uint64_t _simTicks = 0;
    std::uint64_t _events = 0;
};

/** A named, deterministic benchmark scenario. */
struct Scenario
{
    const char *name;
    const char *description;
    /** Part of the CI --smoke subset? */
    bool inSmokeSet;
    void (*run)(ScenarioContext &ctx);
};

/** Every registered scenario, in fixed order. */
const std::vector<Scenario> &scenarios();

} // namespace tf::bench

#endif // TF_BENCH_HARNESS_HH
