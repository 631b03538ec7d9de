/**
 * @file
 * Benchmark driver for the ThymesisFlow simulator.
 *
 * Runs one workload through the simulator libraries' public API
 * (sys::Testbed, apps::*Benchmark, topo::parseSpec + topo::Instance),
 * repeats it with the same seed until --seconds have passed, checks
 * every repeat's outputs, and prints the end-to-end metrics (host
 * wall time, set-up time and memory; simulated throughput and
 * latency) or, with --trace 1, the per-layer metrics. The last line
 * of standard output is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ...,
 *    "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}
 *
 * Counters are read from the StatsRegistry by path pattern, never
 * through a component's type, so layers can be merged or replaced
 * without touching this file. README.md lists the workloads, the
 * metrics and which layer each metric should move.
 */

#include <fnmatch.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/memcached.hh"
#include "apps/stream.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/trace/export.hh"
#include "system/testbed.hh"
#include "tflow/datapath.hh"
#include "topo/builder.hh"
#include "topo/spec.hh"

#include "ring_spec.hh"

namespace tf::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------------
// Workload sizes. Each repeat takes about a second of host time on a
// 4-core x86 box, so a 10 s run holds enough repeats for a stable
// median. The seed changes the inputs, never their size.
// ------------------------------------------------------------------

/** memcached_etc: the Fig. 8 ETC load, 10:15 cache:key space. */
constexpr std::uint64_t kMcCacheItems = 24000;
constexpr std::uint64_t kMcKeySpaceItems = 36000;
constexpr int kMcClients = 64;
constexpr std::uint64_t kMcRequestsPerClient = 300;

/** stream_triad: three arrays of 16 MiB against a 4 MiB cache. */
constexpr std::uint64_t kStreamElements = 2 * 1024 * 1024;
constexpr int kStreamThreads = 8;
constexpr std::uint64_t kStreamCacheBytes = 4ULL * 1024 * 1024;

/**
 * rack_fabric: a ring of host/donor pairs. The end-to-end set runs the
 * engine on one worker; the traced set also runs it on two for
 * par.speedup. On 2 workers the per-run median wall time spread by
 * 14-22% across seeds on a shared 4-core box, against about 2% on one.
 */
constexpr unsigned kRingPairs = 16;
constexpr std::uint64_t kRingMemOps = 20000;
constexpr std::uint64_t kRingRpcOps = 5000;
constexpr unsigned kRingWorkers = 1;
constexpr unsigned kRingParallelWorkers = 2;

/** Repeats per run: at least this many, however long they take. */
constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 200;
/** Set-ups per run (repeats plus set-up-only builds) for setup_s. */
constexpr int kSetupSamples = 21;
/**
 * The traced repeat runs this share of the workload's operations:
 * full in-sim span recording keeps every span in memory, and at full
 * size that is gigabytes on stream_triad.
 */
constexpr double kTracedScale = 1.0 / 16;
/** Scaled-down untraced/traced pairs, and 1-worker rack repeats. */
constexpr int kOverheadPairs = 3;

/** Fig. 8 paper numbers for the bonding-disaggregated setup. */
constexpr double kPaperGetMeanUs = 650.0;
constexpr double kPaperHitLo = 0.80;
constexpr double kPaperHitHi = 0.82;

// ------------------------------------------------------------------
// Driver spans: host time around each call into a layer.
// ------------------------------------------------------------------

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;
    };

    SpanLog(std::string label, Clock::time_point origin)
        : _label(std::move(label)), _origin(origin)
    {}

    /** Time @p fn as span @p name, nested under the open span. */
    template <typename Fn>
    void
    time(const std::string &name, Fn &&fn)
    {
        int idx = static_cast<int>(_spans.size());
        _spans.push_back(Span{name, Clock::now(), {}, _open});
        int saved = _open;
        _open = idx;
        fn();
        _open = saved;
        _spans[static_cast<std::size_t>(idx)].end = Clock::now();
    }

    /** Summed duration of every span called @p name, in seconds. */
    double
    seconds(const std::string &name) const
    {
        double s = 0;
        for (const auto &sp : _spans)
            if (sp.name == name)
                s += secondsBetween(sp.start, sp.end);
        return s;
    }

    /**
     * Append this log as Chrome trace-event "X" events on thread
     * @p tid (loadable in Perfetto); each names its parent span.
     */
    void
    writeEvents(std::ostream &os, int tid, bool &first) const
    {
        os << (first ? "\n" : ",\n") << "{\"name\": \"thread_name\", "
           << "\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
           << ", \"args\": {\"name\": \"" << _label << "\"}}";
        first = false;
        for (const Span &sp : _spans) {
            os << ",\n{\"name\": \"" << sp.name
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
               << ", \"ts\": "
               << secondsBetween(_origin, sp.start) * 1e6
               << ", \"dur\": " << secondsBetween(sp.start, sp.end) * 1e6
               << ", \"args\": {\"parent\": \""
               << (sp.parent < 0
                       ? std::string()
                       : _spans[static_cast<std::size_t>(sp.parent)]
                             .name)
               << "\"}}";
        }
    }

  private:
    std::string _label;
    Clock::time_point _origin;
    std::vector<Span> _spans;
    int _open = -1;
};

// ------------------------------------------------------------------
// Registry harvest: counters by path pattern.
// ------------------------------------------------------------------

class Harvest
{
  public:
    explicit Harvest(const sim::StatsRegistry &reg)
    {
        for (const auto &path : reg.paths())
            for (const auto &e : reg.find(path)->snapshot())
                _rows[path + "." + e.name] = e.value;
    }

    /** Sum of every row whose key matches the glob @p pattern. */
    double
    sum(const char *pattern) const
    {
        double s = 0;
        for (const auto &kv : _rows)
            if (fnmatch(pattern, kv.first.c_str(), 0) == 0)
                s += kv.second;
        return s;
    }

    /** Largest row matching @p pattern (0 when none). */
    double
    max(const char *pattern) const
    {
        double m = 0;
        for (const auto &kv : _rows)
            if (fnmatch(pattern, kv.first.c_str(), 0) == 0)
                m = std::max(m, kv.second);
        return m;
    }

  private:
    std::map<std::string, double> _rows;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Conservation checks shared by every workload: each remote
 * transaction completes once, and at quiescence every LLC-sent
 * transaction was delivered.
 */
void
checkDatapaths(const Harvest &h, std::vector<std::string> &violations)
{
    double issued = h.sum("*tflow.compute.issued");
    double completed = h.sum("*tflow.compute.completed");
    if (issued != completed)
        violations.push_back("tflow compute.issued " +
                             std::to_string(issued) +
                             " != compute.completed " +
                             std::to_string(completed));
    double sent = h.sum("*tflow.llc.ch*.tx?.txnsSent");
    double delivered = h.sum("*tflow.llc.ch*.rx?.txnsDelivered");
    if (sent != delivered)
        violations.push_back("llc txnsSent " + std::to_string(sent) +
                             " != txnsDelivered " +
                             std::to_string(delivered));
}

// ------------------------------------------------------------------
// One repeat of a workload.
// ------------------------------------------------------------------

/** Metrics of one repeat. */
struct Repeat
{
    double setupS = 0;
    double wallS = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> violations;
    /** Simulated results: identical for every repeat of a seed. */
    std::map<std::string, double> sim;
    /** Host-timed per-layer numbers. */
    std::map<std::string, double> host;
};

/** Everything a repeat needs besides the workload. */
struct RunContext
{
    std::uint64_t seed = 42;
    /** Share of the workload's operations to run. */
    double scale = 1.0;
    /** Stop after set-up (setup_s samples). */
    bool setupOnly = false;
    /** rack_fabric only: engine worker threads. */
    unsigned workers = kRingWorkers;
    SpanLog *spans = nullptr;
    /** Non-null: record in-sim spans and collect them here. */
    sim::trace::TraceCollector *collector = nullptr;
};

std::uint64_t
scaled(std::uint64_t n, double scale)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(n) * scale));
}

/** Per-layer counters common to the testbed workloads. */
void
harvestTestbedLayers(const Harvest &h, sys::Testbed &bed,
                     const sim::EventQueue &eq, Repeat &r)
{
    auto &s = r.sim;
    s["sim.events"] = static_cast<double>(eq.executed());
    s["sim.heap_high_water"] = static_cast<double>(eq.heapHighWater());
    s["sim.cancelled"] = static_cast<double>(eq.cancelled());

    mem::Cache &cache = bed.serverA().cache();
    double accesses =
        static_cast<double>(cache.hits() + cache.misses());
    s["mem.cache_accesses"] = accesses;
    s["mem.cache_hit_ratio"] =
        ratio(static_cast<double>(cache.hits()), accesses);
    s["mem.backing_pages"] =
        static_cast<double>(bed.serverA().store().touchedPages() +
                            bed.serverB().store().touchedPages() +
                            bed.client().store().touchedPages());
    s["net.eth_messages"] = h.sum("net.*.messages");
}

/** Per-layer counters read purely from registry paths. */
void
harvestRegistryLayers(const Harvest &h, Repeat &r)
{
    auto &s = r.sim;
    s["mem.dram_reads"] = h.sum("*dram.reads");
    s["mem.dram_writes"] = h.sum("*dram.writes");
    double rowHits = h.sum("*dram.rowHits");
    s["mem.dram_row_hit_ratio"] =
        ratio(rowHits, rowHits + h.sum("*dram.rowMisses"));

    s["ocapi.c1_txns"] = h.sum("*tflow.c1.txns");
    s["ocapi.c1_service_p50_ns"] = h.max("*tflow.c1.serviceNs.p50");
    s["ocapi.crossings"] = h.sum("*tflow.*.xing.*.items");

    s["tflow.txns"] = h.sum("*tflow.compute.issued");
    double frames = h.sum("*tflow.llc.ch*.tx?.framesSent");
    s["tflow.txns_per_frame"] =
        ratio(h.sum("*tflow.llc.ch*.tx?.txnsSent"), frames);
    double wireFlits = h.sum("*tflow.llc.ch*.wire??.wireBytes") /
                       flow::FlowParams{}.flitBytes;
    s["tflow.pad_flit_ratio"] =
        ratio(h.sum("*tflow.llc.ch*.tx?.padFlits"), wireFlits);
    s["tflow.credit_stalls"] = h.sum("*tflow.llc.ch*.tx?.creditStalls");
    s["tflow.tag_stalls"] = h.sum("*tflow.compute.tagStalls");
    s["tflow.replayed_frames"] =
        h.sum("*tflow.llc.ch*.tx?.replayedFrames");
    double rmmuMiss = h.sum("*tflow.compute.rmmu.misses");
    s["tflow.rmmu_miss_ratio"] =
        ratio(rmmuMiss, rmmuMiss + h.sum("*tflow.compute.rmmu.hits"));

    double pcHits = h.sum("*cache.hits");
    s["os.pagecache_hit_ratio"] =
        ratio(pcHits, pcHits + h.sum("*cache.misses"));
    s["os.pagecache_fills"] = h.sum("*cache.fills");
    s["os.pagecache_writebacks"] = h.sum("*cache.writebacks");

    s["fabric.relayed_msgs"] = h.sum("fabric.*.relayedMsgs");
    s["fabric.queue_max_ns"] = h.max("fabric.*.queueNs.max");
    s["fabric.queue_high_water"] = h.max("fabric.*.queueHighWater");
}

sys::TestbedParams
bondingBed(std::uint64_t seed, std::uint64_t donated,
           std::uint64_t cacheBytes)
{
    sys::TestbedParams tp;
    tp.setup = sys::Setup::BondingDisaggregated;
    tp.donatedBytes = donated;
    tp.node.cache = mem::CacheParams{cacheBytes, 8, 128};
    tp.seed = seed;
    return tp;
}

/** Record @p eq's in-sim spans when the repeat is traced. */
void
traceQueue(const RunContext &ctx, sim::EventQueue &eq,
           std::uint32_t tag, const std::string &name)
{
    if (!ctx.collector)
        return;
    eq.trace().setFull(true);
    eq.trace().setIdTag(tag);
    eq.trace().setName(name);
}

/** Close a repeat: its set-up and run time come from its spans. */
Repeat &
finish(const RunContext &ctx, Repeat &r)
{
    r.setupS = ctx.spans->seconds("setup");
    r.wallS = ctx.spans->seconds("run");
    r.host["driver.harvest_ms"] = ctx.spans->seconds("harvest") * 1e3;
    return r;
}

Repeat
runMemcached(const RunContext &ctx)
{
    SpanLog &spans = *ctx.spans;
    Repeat r;
    sim::EventQueue eq;
    sim::StatsRegistry reg;
    std::unique_ptr<sys::Testbed> bed;
    std::unique_ptr<apps::MemcachedBenchmark> bench;
    apps::MemcachedParams mp;
    mp.cacheItems = kMcCacheItems;
    mp.keySpaceItems = kMcKeySpaceItems;
    mp.zipfTheta = 1.0;
    mp.clientThreads = kMcClients;
    mp.requestsPerThread = scaled(kMcRequestsPerClient, ctx.scale);
    mp.seed = ctx.seed;

    spans.time("setup", [&] {
        spans.time("system.testbed_build", [&] {
            bed = std::make_unique<sys::Testbed>(
                eq, bondingBed(ctx.seed, 512ULL << 20, 8ULL << 20));
            bed->registerStats(reg);
        });
        spans.time("apps.build", [&] {
            bench = std::make_unique<apps::MemcachedBenchmark>(*bed, mp);
        });
    });
    r.host["system.testbed_build_ms"] =
        spans.seconds("system.testbed_build") * 1e3;
    if (ctx.setupOnly)
        return finish(ctx, r);
    traceQueue(ctx, eq, 1, "testbed");
    apps::MemcachedResult res;
    spans.time("run", [&] { res = bench->run(); });

    spans.time("harvest", [&] {
        Harvest h(reg);
        r.attempted = mp.requestsPerThread *
                      static_cast<std::uint64_t>(mp.clientThreads);
        std::uint64_t completed =
            res.getLatencyUs.count() + res.setLatencyUs.count();
        r.failed = r.attempted - std::min(r.attempted, completed);
        if (completed != r.attempted)
            r.violations.push_back(
                "requests issued " + std::to_string(r.attempted) +
                " != completed " + std::to_string(completed));
        checkDatapaths(h, r.violations);

        auto &s = r.sim;
        s["ops_per_s"] = res.throughputOps;
        s["lat_p50_us"] = res.getLatencyUs.quantile(0.50);
        s["lat_p99_us"] = res.getLatencyUs.quantile(0.99);
        s["mem_mean_ns"] = h.max("tflow.compute.rttNs.mean");
        s["mem_p99_ns"] = h.max("tflow.compute.rttNs.p99");
        s["remote_p50_ns"] = h.max("tflow.compute.rttNs.p50");
        s["get_mean_us"] = res.getLatencyUs.mean();
        s["apps.mc_hit_ratio"] = res.hitRatio;
        harvestTestbedLayers(h, *bed, eq, r);
        harvestRegistryLayers(h, r);
        if (ctx.collector)
            ctx.collector->addBuffer(eq.trace(), "testbed");
    });
    return finish(ctx, r);
}

Repeat
runStream(const RunContext &ctx)
{
    SpanLog &spans = *ctx.spans;
    Repeat r;
    sim::EventQueue eq;
    sim::StatsRegistry reg;
    std::unique_ptr<sys::Testbed> bed;
    std::unique_ptr<apps::StreamBenchmark> bench;
    // The seed shortens each thread's slice by 0-12 lines. (Slightly
    // longer slices, 2053 lines at full size, hit a layout that costs
    // a tenth of the bandwidth, which would make one seed in ten an
    // outlier.)
    sim::Rng rng(ctx.seed);
    const std::uint64_t nominal = scaled(
        kStreamElements * 8 / mem::cachelineBytes / kStreamThreads,
        ctx.scale);
    const std::uint64_t lines =
        (nominal - rng.below(13)) * kStreamThreads;
    apps::StreamParams sp;
    sp.elements = lines * mem::cachelineBytes / 8;
    sp.threads = kStreamThreads;
    sp.iterations = 1;

    spans.time("setup", [&] {
        spans.time("system.testbed_build", [&] {
            bed = std::make_unique<sys::Testbed>(
                eq,
                bondingBed(ctx.seed, 256ULL << 20, kStreamCacheBytes));
            bed->registerStats(reg);
        });
        spans.time("apps.build", [&] {
            bench = std::make_unique<apps::StreamBenchmark>(*bed, sp);
        });
    });
    r.host["system.testbed_build_ms"] =
        spans.seconds("system.testbed_build") * 1e3;
    if (ctx.setupOnly)
        return finish(ctx, r);
    traceQueue(ctx, eq, 1, "testbed");
    apps::StreamResult res;
    spans.time("run",
               [&] { res = bench->run(apps::StreamKernel::Triad); });

    spans.time("harvest", [&] {
        Harvest h(reg);
        r.attempted = lines;
        // A line is lost when one of its transactions error-completes.
        double lost = h.sum("*tflow.compute.abortedTxns") +
                      h.sum("*tflow.compute.deadlineExpired");
        r.failed = std::min<std::uint64_t>(
            lines, static_cast<std::uint64_t>(lost));
        if (lost > 0)
            r.violations.push_back("remote transactions lost: " +
                                   std::to_string(lost));
        checkDatapaths(h, r.violations);
        // Triad reads b and c and streams a: the donor must have
        // served every byte of all three arrays.
        double arrayBytes = static_cast<double>(sp.elements) * 8 * 3;
        double donorBytes = h.sum("serverB.dram.bytes");
        if (donorBytes < arrayBytes)
            r.violations.push_back(
                "donor DRAM bytes " + std::to_string(donorBytes) +
                " < array bytes " + std::to_string(arrayBytes));

        auto &s = r.sim;
        s["ops_per_s"] =
            static_cast<double>(lines) / sim::toSec(res.elapsed);
        // STREAM has no request latency of its own: every line is
        // served by remote transactions, so lat_* is their round trip.
        s["mem_mean_ns"] = h.max("tflow.compute.rttNs.mean");
        s["mem_p99_ns"] = h.max("tflow.compute.rttNs.p99");
        s["remote_p50_ns"] = h.max("tflow.compute.rttNs.p50");
        s["lat_p50_us"] = s["remote_p50_ns"] / 1000;
        s["lat_p99_us"] = s["mem_p99_ns"] / 1000;
        s["stream_gib_s"] = res.bestGiBs;
        harvestTestbedLayers(h, *bed, eq, r);
        harvestRegistryLayers(h, r);
        if (ctx.collector)
            ctx.collector->addBuffer(eq.trace(), "testbed");
    });
    return finish(ctx, r);
}

/** Pooled latency samples of the stanzas of one kind. */
sim::SampleStat
pooledLatency(const topo::Instance &inst, const std::string &kind)
{
    sim::SampleStat pooled;
    for (std::size_t i = 0; i < inst.trafficCount(); ++i) {
        if (inst.spec().traffic[i].kind != kind)
            continue;
        for (double v : inst.traffic(i).latUs.samples())
            pooled.add(v);
    }
    return pooled;
}

Repeat
runRackFabric(const RunContext &ctx)
{
    SpanLog &spans = *ctx.spans;
    Repeat r;
    RingParams rp;
    rp.pairs = kRingPairs;
    rp.seed = ctx.seed;
    rp.memOps = scaled(kRingMemOps, ctx.scale);
    rp.rpcOps = scaled(kRingRpcOps, ctx.scale);
    const std::string text = ringSpec(rp);

    std::optional<topo::Spec> spec;
    std::unique_ptr<topo::Instance> inst;
    spans.time("setup", [&] {
        spans.time("topo.parse",
                   [&] { spec = topo::parseSpec(text, "rack_fabric"); });
        spans.time("topo.build", [&] {
            topo::BuildOptions opt;
            opt.seed = ctx.seed;
            opt.jobs = ctx.workers;
            inst = std::make_unique<topo::Instance>(*spec, opt);
        });
    });
    r.host["topo.parse_ms"] = spans.seconds("topo.parse") * 1e3;
    r.host["topo.build_ms"] = spans.seconds("topo.build") * 1e3;
    r.host["topo.build_us_per_node"] =
        spans.seconds("topo.build") * 1e6 /
        static_cast<double>(spec->nodes.size() + spec->switches.size());
    if (ctx.setupOnly)
        return finish(ctx, r);
    for (std::size_t i = 0; i < inst->lpCount(); ++i)
        traceQueue(ctx, inst->lp(i).queue(),
                   static_cast<std::uint32_t>(i + 1), inst->lp(i).name());
    spans.time("run", [&] { inst->run(); });

    spans.time("harvest", [&] {
        sim::StatsRegistry reg;
        inst->registerStats(reg);
        Harvest h(reg);
        std::uint64_t completed = 0;
        for (std::size_t i = 0; i < inst->trafficCount(); ++i) {
            const auto &t = inst->traffic(i);
            r.attempted += t.target;
            completed += std::min(t.target, t.completed.value());
            if (t.completed.value() != t.target)
                r.violations.push_back(
                    t.name + ": target " + std::to_string(t.target) +
                    " != completed " +
                    std::to_string(t.completed.value()));
        }
        r.failed = r.attempted - completed;
        checkDatapaths(h, r.violations);

        auto &s = r.sim;
        s["ops_per_s"] = static_cast<double>(completed) /
                         sim::toSec(inst->lastCompletion());
        sim::SampleStat rpc = pooledLatency(*inst, "rpc");
        sim::SampleStat memOps = pooledLatency(*inst, "memory");
        s["lat_p50_us"] = rpc.quantile(0.50);
        s["lat_p99_us"] = rpc.quantile(0.99);
        s["mem_mean_ns"] = memOps.mean() * 1000;
        s["mem_p99_ns"] = memOps.quantile(0.99) * 1000;

        double events = 0, cancelled = 0, highWater = 0;
        double barrierNs = 0;
        for (std::size_t i = 0; i < inst->lpCount(); ++i) {
            const sim::EventQueue &q = inst->lp(i).queue();
            events += static_cast<double>(q.executed());
            cancelled += static_cast<double>(q.cancelled());
            highWater = std::max(
                highWater, static_cast<double>(q.heapHighWater()));
            barrierNs +=
                static_cast<double>(inst->lp(i).barrierWaitNs());
            if (ctx.collector)
                ctx.collector->addBuffer(q.trace(), inst->lp(i).name());
        }
        s["sim.events"] = events;
        s["sim.heap_high_water"] = highWater;
        s["sim.cancelled"] = cancelled;
        double windows = h.sum("sim.par.windows");
        s["par.windows"] = windows;
        s["par.events_per_window"] = ratio(events, windows);
        s["par.merged"] = h.sum("sim.par.merged");
        r.host["par.barrier_wait_s"] = barrierNs / 1e9;
        harvestRegistryLayers(h, r);
    });
    return finish(ctx, r);
}

// ------------------------------------------------------------------
// Per-layer microbenchmarks: one layer timed directly, outside any
// workload, at the size the workload drove it.
// ------------------------------------------------------------------

/** ns per schedule+run pair with @p depth live events queued. */
double
kernelNsPerEvent(std::size_t depth, std::uint64_t seed)
{
    struct Chains
    {
        sim::EventQueue eq;
        sim::Rng rng;
        std::uint64_t left;
        void
        step()
        {
            if (left == 0)
                return;
            --left;
            eq.scheduleIn(1 + rng.below(1000), [this] { step(); });
        }
    };
    Chains c{{}, sim::Rng(seed), 2'000'000};
    depth = std::max<std::size_t>(depth, 1);
    for (std::size_t i = 0; i < depth; ++i)
        c.eq.scheduleIn(1 + c.rng.below(1000), [&c] { c.step(); });
    auto t0 = Clock::now();
    c.eq.run();
    double s = secondsBetween(t0, Clock::now());
    return s * 1e9 / static_cast<double>(c.eq.executed());
}

/** Line addresses shaped like the workload's memory traffic. */
std::vector<mem::Addr>
workloadLines(const std::string &workload, std::uint64_t seed)
{
    constexpr std::size_t kLines = 2'000'000;
    std::vector<mem::Addr> out;
    out.reserve(kLines);
    if (workload == "memcached_etc") {
        // Zipf-popular 1 KiB value slots, as the server touches them.
        sim::Rng rng(seed);
        sim::ZipfGenerator zipf(kMcKeySpaceItems, 1.0);
        while (out.size() < kLines) {
            mem::Addr slot = zipf(rng) * 1024;
            for (mem::Addr off = 0; off < 1024 && out.size() < kLines;
                 off += mem::cachelineBytes)
                out.push_back(slot + off);
        }
    } else {
        // Triad's three streams, line by line.
        const mem::Addr arr = kStreamElements * 8;
        for (mem::Addr line = 0; out.size() < kLines; ++line)
            for (int a = 0; a < 3; ++a)
                out.push_back(static_cast<mem::Addr>(a) * arr +
                              (line * mem::cachelineBytes) % arr);
    }
    return out;
}

double
cacheNsPerAccess(const std::vector<mem::Addr> &lines,
                 std::uint64_t cacheBytes)
{
    mem::Cache cache(mem::CacheParams{cacheBytes, 8, 128});
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < lines.size(); ++i)
        cache.access(lines[i], i % 3 == 2);
    double s = secondsBetween(t0, Clock::now());
    if (cache.hits() + cache.misses() != lines.size())
        throw std::logic_error("cache access count mismatch");
    return s * 1e9 / static_cast<double>(lines.size());
}

double
storeNsPerLine(const std::vector<mem::Addr> &lines)
{
    mem::BackingStore store;
    std::uint8_t buf[mem::cachelineBytes] = {};
    std::uint64_t sum = 0;
    auto t0 = Clock::now();
    for (mem::Addr a : lines) {
        store.read(a, buf, sizeof buf);
        sum += buf[0];
    }
    double s = secondsBetween(t0, Clock::now());
    if (sum != 0)
        throw std::logic_error("backing store returned non-zero data");
    return s * 1e9 / static_cast<double>(lines.size());
}

/**
 * Host ns per remote read through a bare datapath whose donor DRAM
 * has zero latency and unbounded bandwidth: the cost of simulating
 * the tflow/opencapi stack alone.
 */
double
tflowHostNsPerTxn(std::uint64_t seed)
{
    constexpr mem::Addr kWindowBase = 0x2000000000ULL;
    constexpr std::uint64_t kWindowSize = 1ULL << 30;
    constexpr std::uint64_t kSection = 1ULL << 24;
    constexpr mem::Addr kDonorBase = 0x100000000ULL;
    constexpr std::uint64_t kTxns = 200'000;
    constexpr int kWindow = 64;

    sim::EventQueue eq;
    sim::Rng rng(seed);
    mem::BackingStore store;
    mem::DramParams dp;
    dp.accessLatency = 0;
    dp.bandwidthBps = 1e15;
    mem::Dram dram("donorDram", eq, dp, &store);
    ocapi::PasidRegistry pasids;
    flow::Datapath path("dp", eq, flow::FlowParams{},
                        ocapi::M1Window{kWindowBase, kWindowSize},
                        pasids, dram, rng, kSection);
    ocapi::Pasid pasid = pasids.allocate();
    pasids.registerRegion(pasid, kDonorBase, kWindowSize);
    path.stealing().setPasid(pasid);
    path.attach(0, kDonorBase, 1, {0});

    std::uint64_t issued = 0, completed = 0;
    std::function<void()> one = [&] {
        if (issued == kTxns)
            return;
        auto txn = mem::makeTxn(
            mem::TxnType::ReadReq,
            kWindowBase + (issued * mem::cachelineBytes) % kSection);
        ++issued;
        txn->onComplete = [&](mem::MemTxn &) {
            ++completed;
            one();
        };
        path.issue(txn);
    };
    auto t0 = Clock::now();
    for (int i = 0; i < kWindow; ++i)
        one();
    eq.run();
    double s = secondsBetween(t0, Clock::now());
    if (completed != kTxns)
        throw std::logic_error("datapath rig lost transactions");
    return s * 1e9 / static_cast<double>(kTxns);
}

// ------------------------------------------------------------------
// Metric tables.
// ------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, in BENCHMARK.json order. */
const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},         {"setup_s", "s"},
    {"peak_rss_mb", "MB"},   {"ops_per_s", "1/s"},
    {"lat_p50_us", "us"},    {"lat_p99_us", "us"},
    {"mem_mean_ns", "ns"},   {"mem_p99_ns", "ns"},
};

/** Per-layer metrics, in BENCHMARK.json order. */
const std::vector<MetricDef> kPerLayer = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.heap_high_water", "count"},
    {"sim.cancelled", "count"},
    {"sim.ns_per_event", "ns"},
    {"par.windows", "count"},
    {"par.events_per_window", "count"},
    {"par.merged", "count"},
    {"par.barrier_wait_s", "s"},
    {"par.speedup", "ratio"},
    {"mem.cache_accesses", "count"},
    {"mem.cache_hit_ratio", "ratio"},
    {"mem.backing_pages", "count"},
    {"mem.cache_ns_per_access", "ns"},
    {"mem.store_ns_per_line", "ns"},
    {"mem.dram_reads", "count"},
    {"mem.dram_writes", "count"},
    {"mem.dram_row_hit_ratio", "ratio"},
    {"ocapi.c1_txns", "count"},
    {"ocapi.c1_service_p50_ns", "ns"},
    {"ocapi.crossings", "count"},
    {"tflow.txns", "count"},
    {"tflow.host_ns_per_txn", "ns"},
    {"tflow.txns_per_frame", "ratio"},
    {"tflow.pad_flit_ratio", "ratio"},
    {"tflow.credit_stalls", "count"},
    {"tflow.tag_stalls", "count"},
    {"tflow.replayed_frames", "count"},
    {"tflow.rmmu_miss_ratio", "ratio"},
    {"trace.attr.rmmu.p99Ns", "ns"},
    {"trace.attr.route.p99Ns", "ns"},
    {"trace.attr.llcReq.p99Ns", "ns"},
    {"trace.attr.llcResp.p99Ns", "ns"},
    {"trace.attr.c1.p99Ns", "ns"},
    {"trace.attr.crossings.p99Ns", "ns"},
    {"trace.attr.switchHop.p99Ns", "ns"},
    {"os.pagecache_hit_ratio", "ratio"},
    {"os.pagecache_fills", "count"},
    {"os.pagecache_writebacks", "count"},
    {"net.eth_messages", "count"},
    {"fabric.relayed_msgs", "count"},
    {"fabric.queue_max_ns", "ns"},
    {"fabric.queue_high_water", "count"},
    {"topo.parse_ms", "ms"},
    {"topo.build_ms", "ms"},
    {"topo.build_us_per_node", "us"},
    {"system.testbed_build_ms", "ms"},
    {"apps.mc_hit_ratio", "ratio"},
    {"driver.harvest_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

/** Workload-specific names printed beside the JSON ones. */
struct Alias
{
    const char *name;
    const char *source;
    double scale;
    const char *unit;
};

const std::map<std::string, std::vector<Alias>> kAliases = {
    {"memcached_etc",
     {{"get_p50_us", "lat_p50_us", 1, "us"},
      {"get_p99_us", "lat_p99_us", 1, "us"},
      {"mc_ops_per_s", "ops_per_s", 1, "1/s"},
      {"remote_p50_ns", "remote_p50_ns", 1, "ns"},
      {"remote_p99_ns", "mem_p99_ns", 1, "ns"}}},
    {"stream_triad",
     {{"stream_gib_s", "stream_gib_s", 1, "GiB/s"},
      {"remote_p50_ns", "remote_p50_ns", 1, "ns"},
      {"remote_p99_ns", "mem_p99_ns", 1, "ns"}}},
    {"rack_fabric",
     {{"fabric_ops_per_s", "ops_per_s", 1, "1/s"},
      {"mem_p99_us", "mem_p99_ns", 1e-3, "us"},
      {"rpc_p99_us", "lat_p99_us", 1, "us"}}},
};

// ------------------------------------------------------------------
// Driver.
// ------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".bench_out";
};

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "error: " << msg << "\n"
              << "usage: perfbench_driver --workload "
                 "memcached_etc|stream_triad|rack_fabric\n"
              << "         [--seed N] [--seconds S] [--trace 0|1] "
                 "[--out DIR]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--out")
                o.outDir = v;
            else
                usage(("unknown flag " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (!kAliases.count(o.workload))
        usage("unknown or missing --workload");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

using WorkloadFn = Repeat (*)(const RunContext &);

WorkloadFn
workloadFn(const std::string &name)
{
    if (name == "memcached_etc")
        return runMemcached;
    if (name == "stream_triad")
        return runStream;
    return runRackFabric;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

/** Exact comparison of two repeats' simulated results. */
void
checkSameSimulation(const Repeat &first, Repeat &other)
{
    for (const auto &kv : first.sim) {
        auto it = other.sim.find(kv.first);
        if (it == other.sim.end() || it->second != kv.second) {
            other.violations.push_back(
                "simulated metric " + kv.first +
                " differs between repeats of one seed");
            return;
        }
    }
}

struct Outcome
{
    Clock::time_point origin = Clock::now();
    /** Repeats that ran the workload (set-up-only ones excluded). */
    std::vector<Repeat> repeats;
    /** One driver-span log per repeat, set-up-only ones included. */
    std::vector<SpanLog> logs;
    std::map<std::string, double> metrics;
    sim::trace::TraceCollector collector;

    /** Run one repeat under @p ctx with a fresh span log. */
    Repeat
    repeat(WorkloadFn fn, RunContext ctx, std::string label)
    {
        logs.emplace_back(std::move(label), origin);
        ctx.spans = &logs.back();
        return fn(ctx);
    }
};

/**
 * Untraced set: repeat the workload until the time budget is spent,
 * then build it set-up-only until setup_s has kSetupSamples samples.
 */
void
runUntraced(const Options &o, Outcome &out)
{
    WorkloadFn fn = workloadFn(o.workload);
    RunContext ctx;
    ctx.seed = o.seed;
    std::vector<double> wall, setup;
    while (static_cast<int>(out.repeats.size()) < kMinRepeats ||
           (secondsBetween(out.origin, Clock::now()) < o.seconds &&
            static_cast<int>(out.repeats.size()) < kMaxRepeats)) {
        out.repeats.push_back(out.repeat(fn, ctx, "repeat"));
        wall.push_back(out.repeats.back().wallS);
        setup.push_back(out.repeats.back().setupS);
    }
    ctx.setupOnly = true;
    while (static_cast<int>(setup.size()) < kSetupSamples)
        setup.push_back(out.repeat(fn, ctx, "setup only").setupS);

    for (auto &r : out.repeats)
        checkSameSimulation(out.repeats.front(), r);
    auto &m = out.metrics;
    m["wall_s"] = median(wall);
    m["setup_s"] = median(setup);
    m["peak_rss_mb"] = peakRssMb();
    for (const auto &kv : out.repeats.front().sim)
        m[kv.first] = kv.second;
}

/**
 * Traced set. Full-size untraced repeats fill half the time budget and
 * give the layer counters and the simulator's speed; scaled-down
 * pairs of untraced and traced repeats give the tracing overhead, and
 * the first traced one's spans the stage attribution; then each layer
 * is timed directly.
 */
void
runTraced(const Options &o, Outcome &out)
{
    WorkloadFn fn = workloadFn(o.workload);
    RunContext full;
    full.seed = o.seed;
    std::vector<double> wall;
    do {
        out.repeats.push_back(out.repeat(fn, full, "untraced"));
        wall.push_back(out.repeats.back().wallS);
    } while (secondsBetween(out.origin, Clock::now()) < o.seconds / 2 &&
             static_cast<int>(wall.size()) < kMaxRepeats);
    for (auto &r : out.repeats)
        checkSameSimulation(out.repeats.front(), r);
    const Repeat base = out.repeats.front();

    auto &m = out.metrics;
    for (const auto &kv : base.sim)
        m[kv.first] = kv.second;
    // Host timings as medians: the first repeat also pays cold caches
    // and fresh pages.
    for (const auto &kv : base.host) {
        std::vector<double> v;
        for (const auto &r : out.repeats)
            v.push_back(r.host.at(kv.first));
        m[kv.first] = median(v);
    }
    m["sim.events_per_s"] = m["sim.events"] / median(wall);

    RunContext small = full;
    small.scale = kTracedScale;
    std::vector<double> plainWall, tracedWall;
    for (int i = 0; i < kOverheadPairs; ++i) {
        Repeat plain = out.repeat(fn, small, "untraced, scaled");
        sim::trace::TraceCollector discard;
        RunContext t = small;
        t.collector = i == 0 ? &out.collector : &discard;
        Repeat traced = out.repeat(fn, t, "traced, scaled");
        // Recording spans must not perturb the simulation.
        checkSameSimulation(plain, traced);
        plainWall.push_back(plain.wallS);
        tracedWall.push_back(traced.wallS);
        out.repeats.push_back(std::move(plain));
        out.repeats.push_back(std::move(traced));
    }
    m["trace.overhead_frac"] = median(tracedWall) / median(plainWall) - 1;

    sim::trace::Attribution attr = out.collector.attribution();
    auto stage = [&attr](sim::trace::Stage s) -> sim::QuantileSketch & {
        return attr.stageNs[static_cast<std::size_t>(s)];
    };
    using sim::trace::Stage;
    for (Stage s : {Stage::Rmmu, Stage::Route, Stage::LlcReq,
                    Stage::LlcResp, Stage::C1, Stage::SwitchHop})
        m[std::string("trace.attr.") + sim::trace::stageName(s) +
          ".p99Ns"] = stage(s).quantile(0.99);
    sim::QuantileSketch crossings;
    for (Stage s : {Stage::HostSerdesDown, Stage::StackDown,
                    Stage::DonorStackDown, Stage::DonorSerdesDown,
                    Stage::DonorSerdesUp, Stage::DonorStackUp,
                    Stage::StackUp, Stage::HostSerdesUp})
        crossings.merge(stage(s));
    m["trace.attr.crossings.p99Ns"] = crossings.quantile(0.99);

    m["sim.ns_per_event"] = kernelNsPerEvent(
        static_cast<std::size_t>(m["sim.heap_high_water"]), o.seed);
    if (m["mem.cache_accesses"] > 0) {
        auto lines = workloadLines(o.workload, o.seed);
        std::uint64_t cacheBytes = o.workload == "stream_triad"
                                       ? kStreamCacheBytes
                                       : 8ULL << 20;
        m["mem.cache_ns_per_access"] = cacheNsPerAccess(lines, cacheBytes);
        m["mem.store_ns_per_line"] = storeNsPerLine(lines);
    }
    if (m["tflow.txns"] > 0)
        m["tflow.host_ns_per_txn"] = tflowHostNsPerTxn(o.seed);
    if (o.workload == "rack_fabric") {
        RunContext parallel = full;
        parallel.workers = kRingParallelWorkers;
        std::vector<double> parallelWall, barrierS;
        for (int i = 0; i < kOverheadPairs; ++i) {
            out.repeats.push_back(out.repeat(fn, parallel, "2 workers"));
            // Any worker count must give the same simulation.
            checkSameSimulation(base, out.repeats.back());
            parallelWall.push_back(out.repeats.back().wallS);
            barrierS.push_back(
                out.repeats.back().host.at("par.barrier_wait_s"));
        }
        m["par.speedup"] = median(wall) / median(parallelWall);
        m["par.barrier_wait_s"] = median(barrierS);
    }
}

/** Cap on in-sim span events written to the Perfetto file. */
constexpr std::size_t kMaxExportedSpanEvents = 100'000;

void
writeTraces(const Options &o, const Outcome &out)
{
    std::filesystem::create_directories(o.outDir);
    const std::string stem = o.outDir + "/" + o.workload;
    {
        std::ofstream f(stem + ".driver_spans.json");
        f << "{\"traceEvents\": [";
        bool first = true;
        for (std::size_t i = 0; i < out.logs.size(); ++i)
            out.logs[i].writeEvents(f, static_cast<int>(i + 1), first);
        f << "\n], \"displayTimeUnit\": \"ms\"}\n";
    }
    // The earliest spans of every node, so the file stays loadable.
    std::vector<sim::trace::NodeTrace> nodes = out.collector.nodes();
    std::size_t perNode =
        kMaxExportedSpanEvents / std::max<std::size_t>(nodes.size(), 1);
    for (auto &n : nodes)
        if (n.events.size() > perNode)
            n.events.resize(perNode);
    std::ofstream f(stem + ".sim_spans.json");
    sim::trace::writeTraceEventsJson(f, nodes, nullptr);
    std::cout << "spans: " << stem << ".driver_spans.json (driver), "
              << stem << ".sim_spans.json (in-sim)\n";
}

void
printReport(const Options &o, const Outcome &out)
{
    const auto &m = out.metrics;
    auto get = [&m](const std::string &k) {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    std::cout << "perfbench " << o.workload << " seed=" << o.seed
              << " repeats=" << out.repeats.size()
              << (o.trace ? " (traced)" : "") << "\n";
    const auto &table = o.trace ? kPerLayer : kEndToEnd;
    for (const auto &d : table)
        std::printf("  %-30s %16.6g %s\n", d.name, get(d.name), d.unit);
    if (o.trace)
        return;

    std::cout << "  wall_s of each repeat:";
    for (const auto &r : out.repeats)
        std::printf(" %.4f", r.wallS);
    std::cout << "\nworkload metrics:\n";
    for (const auto &a : kAliases.at(o.workload))
        std::printf("  %-30s %16.6g %s\n", a.name,
                    get(a.source) * a.scale, a.unit);
    std::cout << "accuracy:\n";
    if (o.workload == "memcached_etc") {
        double mean = get("get_mean_us");
        std::printf("  get_mean_us %.1f us vs paper %.0f us "
                    "(Fig. 8 bonding): error %+.1f%%\n",
                    mean, kPaperGetMeanUs,
                    (mean / kPaperGetMeanUs - 1) * 100);
        double hit = get("apps.mc_hit_ratio");
        double off = hit < kPaperHitLo   ? hit / kPaperHitLo - 1
                     : hit > kPaperHitHi ? hit / kPaperHitHi - 1
                                         : 0.0;
        std::printf("  mc_hit_ratio %.3f vs paper %.2f-%.2f: "
                    "error %+.1f%%\n",
                    hit, kPaperHitLo, kPaperHitHi, off * 100);
        std::cout << "  every other simulated metric: unvalidated\n";
    } else {
        std::cout << "  every simulated metric: unvalidated\n";
    }
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printJson(const Options &o, const Outcome &out, bool correct,
          std::uint64_t attempted, std::uint64_t failed)
{
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &d : o.trace ? kPerLayer : kEndToEnd) {
        js << sep << "\"" << d.name << "\": {\"value\": "
           << jsonNumber(out.metrics.at(d.name)) << ", \"unit\": \""
           << d.unit << "\"}";
        sep = ", ";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
}

int
run(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    Outcome out;
    if (o.trace)
        runTraced(o, out);
    else
        runUntraced(o, out);

    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    for (const auto &r : out.repeats) {
        attempted += r.attempted;
        // A violated invariant discredits the whole repeat.
        failed += r.violations.empty() ? r.failed : r.attempted;
        for (const auto &v : r.violations) {
            std::cout << "CHECK FAILED: " << v << "\n";
            correct = false;
        }
    }
    // Metrics a workload does not exercise read 0 in the per-layer
    // table; every end-to-end metric must be measured.
    for (const auto &d : o.trace ? kPerLayer : kEndToEnd) {
        double &v = out.metrics[d.name];
        if (!std::isfinite(v) || (!o.trace && v <= 0)) {
            std::cout << "CHECK FAILED: metric " << d.name << " = " << v
                      << " is not a positive number\n";
            correct = false;
        }
    }
    if (o.trace)
        writeTraces(o, out);
    printReport(o, out);
    printJson(o, out, correct && failed == 0, attempted, failed);
    return 0;
}

} // namespace
} // namespace tf::perfbench

int
main(int argc, char **argv)
{
    try {
        return tf::perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
