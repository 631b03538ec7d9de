#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "topo/builder.hh"
#include "topo_scenario.hh"

#ifndef TF_GIT_SHA
#define TF_GIT_SHA "unknown"
#endif

namespace tf::bench {

namespace {

std::string
gitSha()
{
    // The environment wins over the compile-time stamp so CI can
    // inject the exact checkout SHA without a rebuild.
    if (const char *env = std::getenv("TF_GIT_SHA"))
        return env;
    return TF_GIT_SHA;
}

} // namespace

ScenarioContext::ScenarioContext(std::string scenario,
                                 std::uint64_t seed, bool smoke)
    : _scenario(std::move(scenario)), _seed(seed), _smoke(smoke)
{
}

void
ScenarioContext::metric(const std::string &name, double value,
                        const std::string &unit)
{
    _metrics.push_back(Metric{name, value, unit});
}

void
ScenarioContext::latencyUs(const std::string &prefix,
                           const sim::SampleStat &s)
{
    metric(prefix + "MeanUs", s.mean(), "us");
    metric(prefix + "P50Us", s.quantile(0.50), "us");
    metric(prefix + "P95Us", s.quantile(0.95), "us");
    metric(prefix + "P99Us", s.quantile(0.99), "us");
}

void
ScenarioContext::addRun(const sim::EventQueue &eq)
{
    _simTicks += eq.now();
    _events += eq.executed();
}

void
ScenarioContext::collectTrace(const sim::EventQueue &eq,
                              std::string node)
{
    _collector.addBuffer(eq.trace(), std::move(node));
}

void
ScenarioContext::appendTraceMetrics()
{
    if (_collector.empty())
        return;
    sim::trace::Attribution attr = _collector.attribution();
    auto emit = [this](const std::string &prefix,
                       const sim::QuantileSketch &q) {
        if (q.count() == 0)
            return;
        metric(prefix + ".count", static_cast<double>(q.count()),
               "spans");
        metric(prefix + ".p50Ns", q.quantile(0.50), "ns");
        metric(prefix + ".p95Ns", q.quantile(0.95), "ns");
        metric(prefix + ".p99Ns", q.quantile(0.99), "ns");
    };
    for (int s = 0; s < sim::trace::kStageCount; ++s)
        emit(std::string("trace.attr.") +
                 sim::trace::stageName(
                     static_cast<sim::trace::Stage>(s)),
             attr.stageNs[static_cast<std::size_t>(s)]);
    emit("trace.attr.total", attr.totalNs);
}

bool
ScenarioContext::writeTrace(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    _collector.setTimeline(_timeline.empty() ? nullptr : &_timeline);
    _collector.writeJson(out);
    return static_cast<bool>(out);
}

void
ScenarioContext::commit(ScenarioContext &&point)
{
    for (auto &m : point._metrics)
        _metrics.push_back(std::move(m));
    _simTicks += point._simTicks;
    _events += point._events;
    _registry.adopt(std::move(point._registry));
    _timeline.adopt(point._timeline);
    _collector.adopt(std::move(point._collector));
}

void
ScenarioContext::runPoints(
    std::size_t count,
    const std::function<void(ScenarioContext &, std::size_t)> &fn)
{
    auto makePoint = [this] {
        auto sub = std::make_unique<ScenarioContext>(_scenario, _seed,
                                                     _smoke);
        sub->setOutDir(_outDir);
        sub->setTraceEnabled(_traceEnabled);
        sub->setCutThroughOverride(_cutThrough);
        sub->setTimelineWindowUs(_timelineUs);
        return sub;
    };

    unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(_jobs, count));
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i) {
            auto sub = makePoint();
            fn(*sub, i);
            commit(std::move(*sub));
        }
        return;
    }

    // Points are embarrassingly parallel: every one builds its own
    // beds against its own queue and registry. Workers pull indices
    // from a shared counter; the main thread commits finished points
    // strictly in index order, so the merged document cannot depend
    // on which thread ran what.
    std::vector<std::unique_ptr<ScenarioContext>> done(count);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            while (true) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= count)
                    return;
                auto sub = makePoint();
                fn(*sub, i);
                done[i] = std::move(sub);
            }
        });
    }
    for (auto &t : pool)
        t.join();
    for (std::size_t i = 0; i < count; ++i) {
        TF_ASSERT(done[i] != nullptr, "point %zu produced no result",
                  i);
        commit(std::move(*done[i]));
    }
}

std::string
ScenarioContext::toJson(double wallMs) const
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "tf-bench-v2");
    w.field("scenario", _scenario);

    w.name("meta");
    w.beginObject();
    w.field("seed", _seed);
    w.field("gitSha", gitSha());
    w.field("config", _smoke ? "smoke" : "full");
    w.field("simTicks", _simTicks);
    w.field("events", _events);
    if (wallMs >= 0) {
        w.field("wallMs", wallMs);
        if (wallMs > 0)
            w.field("eventsPerSec",
                    static_cast<double>(_events) * 1e3 / wallMs);
    }
    w.endObject();

    w.name("metrics");
    w.beginObject();
    for (const auto &m : _metrics)
        w.field(m.name, m.value);
    w.endObject();

    w.name("units");
    w.beginObject();
    for (const auto &m : _metrics) {
        if (!m.unit.empty())
            w.field(m.name, m.unit);
    }
    w.endObject();

    if (!_timeline.empty()) {
        w.name("timeline");
        _timeline.writeJson(w);
    }

    w.name("stats");
    _registry.writeJson(w);

    w.endObject();
    return os.str();
}

void
ScenarioContext::printSummary(std::FILE *out) const
{
    std::fprintf(out, "%s (%s, seed %llu):\n", _scenario.c_str(),
                 _smoke ? "smoke" : "full",
                 static_cast<unsigned long long>(_seed));
    for (const auto &m : _metrics)
        std::fprintf(out, "  %-32s %14.3f %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());
}

namespace {

const Scenario *
findScenario(const std::string &name)
{
    for (const auto &s : scenarios())
        if (name == s.name)
            return &s;
    return nullptr;
}

void
listScenarios()
{
    std::printf("%-20s %-6s %s\n", "scenario", "smoke",
                "description");
    for (const auto &s : scenarios())
        std::printf("%-20s %-6s %s\n", s.name,
                    s.inSmokeSet ? "yes" : "no", s.description);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--list] [--smoke] [--scenario NAME]...\n"
                 "          [--topo FILE]... [--validate]\n"
                 "          [--seed N] [--out DIR] [--jobs N]\n"
                 "          [--no-wall] [--trace FILE]\n"
                 "          [--timeline-window US]\n"
                 "          [--cut-through on|off]\n"
                 "  --list           list scenarios and exit\n"
                 "  --smoke          CI-sized runs, smoke subset only\n"
                 "  --scenario NAME  run NAME (repeatable); default:\n"
                 "                   every scenario (or smoke subset)\n"
                 "  --topo FILE      run a declarative topology file\n"
                 "                   (repeatable); the file's \"name\"\n"
                 "                   names the BENCH JSON. With no\n"
                 "                   --scenario flags, only the topo\n"
                 "                   files run\n"
                 "  --validate       parse and build every --topo file,\n"
                 "                   run nothing; exit 2 on the first\n"
                 "                   config error\n"
                 "  --seed N         simulation seed (default 42)\n"
                 "  --out DIR        existing directory for\n"
                 "                   BENCH_<name>.json (default .)\n"
                 "  --jobs N         worker threads (default 1); the\n"
                 "                   result document is identical for\n"
                 "                   any N under the same seed\n"
                 "  --no-wall        omit wall-clock meta so same-seed\n"
                 "                   runs are byte-identical\n"
                 "  --trace FILE     record causal spans: write a\n"
                 "                   Perfetto-loadable trace-event\n"
                 "                   file (byte-identical for any\n"
                 "                   --jobs) and add trace.attr.*\n"
                 "                   latency attribution to the BENCH\n"
                 "                   JSON; with several scenarios the\n"
                 "                   file is FILE.<scenario>\n"
                 "  --timeline-window US\n"
                 "                   force the windowed timeline on\n"
                 "                   with US-microsecond windows: a\n"
                 "                   `timeline` section in the BENCH\n"
                 "                   JSON and Perfetto counter tracks\n"
                 "                   under --trace. Topology files\n"
                 "                   default it on (spec timelineUs)\n"
                 "                   whenever they declare monitors\n"
                 "  --cut-through on|off\n"
                 "                   override the response-framing\n"
                 "                   mode for scenarios that honour\n"
                 "                   it (default: FlowParams default,\n"
                 "                   i.e. cut-through on)\n",
                 argv0);
    return 2;
}

struct Options
{
    bool list = false;
    bool smoke = false;
    bool noWall = false;
    bool validate = false;
    unsigned jobs = 1;
    std::uint64_t seed = 42;
    std::string outDir = ".";
    std::string traceFile;
    double timelineUs = 0.0;
    std::optional<bool> cutThrough;
    std::vector<std::string> names;
    std::vector<std::string> topoFiles;
};

/**
 * Shared emit tail for named scenarios and topology files: trace
 * attribution + optional trace file + BENCH JSON + summary.
 * @p soleOutput names the trace file verbatim instead of suffixing
 * the scenario name.
 */
int
emitResult(ScenarioContext &ctx, const Options &opt, double wallMs,
           bool soleOutput)
{
    // Scenarios with always-on span points (proto_datapath's RTT
    // and single-flow quantile rigs) carry an attribution table on
    // every run, so the trace.attr.*.p99Ns gates work in plain
    // smoke CI; for everything else the collector is empty and
    // this is a no-op unless --trace widened the collection.
    ctx.appendTraceMetrics();
    if (!opt.traceFile.empty()) {
        std::string tracePath =
            soleOutput ? opt.traceFile
                       : opt.traceFile + "." + ctx.scenario();
        if (!ctx.writeTrace(tracePath)) {
            std::fprintf(stderr, "tf_bench: cannot write %s\n",
                         tracePath.c_str());
            return 1;
        }
        std::printf("  -> %s (%zu trace node(s))\n",
                    tracePath.c_str(),
                    ctx.collector().nodeCount());
    }

    std::string path =
        opt.outDir + "/BENCH_" + ctx.scenario() + ".json";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "tf_bench: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    out << ctx.toJson(opt.noWall ? -1 : wallMs) << "\n";
    ctx.printSummary(stdout);
    std::printf("  -> %s (%.0f ms)\n", path.c_str(), wallMs);
    return 0;
}

ScenarioContext
makeContext(const std::string &name, const Options &opt)
{
    ScenarioContext ctx(name, opt.seed, opt.smoke);
    ctx.setJobs(opt.jobs);
    ctx.setOutDir(opt.outDir);
    ctx.setTraceEnabled(!opt.traceFile.empty());
    ctx.setCutThroughOverride(opt.cutThrough);
    ctx.setTimelineWindowUs(opt.timelineUs);
    return ctx;
}

int
runScenarios(const Options &opt)
{
    if (opt.validate) {
        // Parse + build (no run) every topology file; first config
        // error wins. Exercises the full builder path, so compose
        // failures surface here too, not in CI's smoke run.
        for (const auto &file : opt.topoFiles) {
            try {
                topo::Spec spec = topo::loadSpecFile(file);
                topo::BuildOptions bo;
                bo.seed = opt.seed;
                bo.smoke = true;
                topo::Instance inst(spec, bo);
                std::printf("tf_bench: %s OK (\"%s\": %zu LPs)\n",
                            file.c_str(), spec.name.c_str(),
                            inst.lpCount());
            } catch (const topo::SpecError &e) {
                std::fprintf(stderr, "tf_bench: %s\n", e.what());
                return 2;
            }
        }
        return 0;
    }

    std::vector<const Scenario *> selected;
    if (!opt.names.empty()) {
        for (const auto &n : opt.names) {
            const Scenario *s = findScenario(n);
            if (!s) {
                std::fprintf(stderr,
                             "tf_bench: unknown scenario '%s' "
                             "(try --list)\n",
                             n.c_str());
                return 2;
            }
            selected.push_back(s);
        }
    } else if (opt.topoFiles.empty()) {
        for (const auto &s : scenarios())
            if (!opt.smoke || s.inSmokeSet)
                selected.push_back(&s);
    }

    bool soleOutput = selected.size() + opt.topoFiles.size() == 1;
    for (const Scenario *s : selected) {
        ScenarioContext ctx = makeContext(s->name, opt);
        auto start = std::chrono::steady_clock::now();
        s->run(ctx);
        double wallMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (int rc = emitResult(ctx, opt, wallMs, soleOutput))
            return rc;
    }

    for (const auto &file : opt.topoFiles) {
        try {
            topo::Spec spec = topo::loadSpecFile(file);
            ScenarioContext ctx = makeContext(spec.name, opt);
            auto start = std::chrono::steady_clock::now();
            runTopoScenario(ctx, spec);
            double wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (int rc = emitResult(ctx, opt, wallMs, soleOutput))
                return rc;
        } catch (const topo::SpecError &e) {
            std::fprintf(stderr, "tf_bench: %s\n", e.what());
            return 2;
        }
    }
    return 0;
}

/**
 * Parse the whole of @p text as an unsigned integer no larger than
 * @p max (decimal, 0x-hex or 0-octal, as strtoull). Empty input, a
 * sign, trailing characters and out-of-range values print a diagnostic
 * naming @p flag and return false.
 */
bool
parseUnsigned(const char *flag, const char *text, std::uint64_t max,
              std::uint64_t &out)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 0);
    if (std::isdigit(static_cast<unsigned char>(text[0])) &&
        *end == '\0' && errno != ERANGE && v <= max) {
        out = v;
        return true;
    }
    std::fprintf(stderr,
                 "tf_bench: %s '%s': expected an integer in [0, %llu]\n",
                 flag, text, static_cast<unsigned long long>(max));
    return false;
}

/**
 * As parseUnsigned() for a finite, strictly positive decimal number
 * (no sign, no unit suffix).
 */
bool
parsePositive(const char *flag, const char *text, double &out)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    bool digitFirst = std::isdigit(static_cast<unsigned char>(text[0])) ||
                      text[0] == '.';
    if (digitFirst && *end == '\0' && errno != ERANGE && std::isfinite(v) &&
        v > 0) {
        out = v;
        return true;
    }
    std::fprintf(stderr,
                 "tf_bench: %s '%s': expected a positive number\n", flag,
                 text);
    return false;
}

/** Upper bound for --jobs (worker threads). */
constexpr std::uint64_t maxJobs = 1024;

} // namespace
} // namespace tf::bench

/**
 * tf_bench, the only bench entry point: parses the flags usage()
 * lists and runs the selected scenarios and topology files, writing
 * one BENCH_<name>.json each (and, under --trace, a Perfetto-loadable
 * trace-event file).
 */
int
main(int argc, char **argv)
{
    using namespace tf::bench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--scenario" && i + 1 < argc) {
            opt.names.push_back(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            if (!parseUnsigned("--seed", argv[++i], UINT64_MAX, opt.seed))
                return 2;
        } else if (arg == "--out" && i + 1 < argc) {
            opt.outDir = argv[++i];
            // Refuse up front: a missing directory would otherwise
            // only surface after the first scenario has run.
            if (!std::filesystem::is_directory(opt.outDir)) {
                std::fprintf(stderr,
                             "tf_bench: --out %s: no such directory\n",
                             opt.outDir.c_str());
                return 2;
            }
        } else if (arg == "--jobs" && i + 1 < argc) {
            std::uint64_t jobs = 0;
            if (!parseUnsigned("--jobs", argv[++i], maxJobs, jobs))
                return 2;
            opt.jobs = std::max<unsigned>(1, static_cast<unsigned>(jobs));
        } else if (arg == "--topo" && i + 1 < argc) {
            opt.topoFiles.push_back(argv[++i]);
        } else if (arg == "--validate") {
            opt.validate = true;
        } else if (arg == "--no-wall") {
            opt.noWall = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            opt.traceFile = argv[++i];
        } else if (arg == "--timeline-window" && i + 1 < argc) {
            if (!parsePositive("--timeline-window", argv[++i],
                               opt.timelineUs))
                return 2;
        } else if (arg == "--cut-through" && i + 1 < argc) {
            std::string v = argv[++i];
            if (v == "on")
                opt.cutThrough = true;
            else if (v == "off")
                opt.cutThrough = false;
            else
                return usage(argv[0]);
        } else {
            return usage(argv[0]);
        }
    }
    if (opt.list) {
        listScenarios();
        return 0;
    }
    return runScenarios(opt);
}
