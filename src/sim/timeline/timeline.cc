#include "sim/timeline/timeline.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/trace/buffer.hh"
#include "sim/trace/export.hh"

namespace tf::sim::timeline {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const char *
kindName(SeriesKind k)
{
    switch (k) {
    case SeriesKind::Delta:
        return "delta";
    case SeriesKind::Gauge:
        return "gauge";
    case SeriesKind::Quantile:
        return "quantile";
    }
    return "?";
}

bool
compare(double v, SloRule::Op op, double threshold)
{
    switch (op) {
    case SloRule::Op::Gt:
        return v > threshold;
    case SloRule::Op::Lt:
        return v < threshold;
    case SloRule::Op::Ge:
        return v >= threshold;
    case SloRule::Op::Le:
        return v <= threshold;
    }
    return false;
}

/** Higher values are worse for Gt/Ge rules, lower for Lt/Le. */
bool
worseThan(double a, double b, SloRule::Op op)
{
    return (op == SloRule::Op::Gt || op == SloRule::Op::Ge) ? a > b
                                                            : a < b;
}

} // namespace

const char *
opName(SloRule::Op op)
{
    switch (op) {
    case SloRule::Op::Gt:
        return ">";
    case SloRule::Op::Lt:
        return "<";
    case SloRule::Op::Ge:
        return ">=";
    case SloRule::Op::Le:
        return "<=";
    }
    return "?";
}

bool
parseOp(const std::string &s, SloRule::Op &out)
{
    if (s == ">")
        out = SloRule::Op::Gt;
    else if (s == "<")
        out = SloRule::Op::Lt;
    else if (s == ">=")
        out = SloRule::Op::Ge;
    else if (s == "<=")
        out = SloRule::Op::Le;
    else
        return false;
    return true;
}

// -------------------------------------------------------- Recorder

Recorder::Recorder(EventQueue &eq, Tick window) : _eq(eq), _window(window)
{
    TF_ASSERT(window > 0, "timeline window must be positive");
}

Recorder::~Recorder()
{
    if (_armedId != EventQueue::invalidEvent)
        _eq.deschedule(_armedId);
}

void
Recorder::addCounter(const std::string &name, const Counter &c,
                     const std::string &unit)
{
    TF_ASSERT(!_started, "register probes before start()");
    _counters.push_back(CounterProbe{name, unit, &c, c.value(), {}});
}

void
Recorder::addGauge(const std::string &name, std::function<double()> fn,
                   const std::string &unit)
{
    TF_ASSERT(!_started, "register probes before start()");
    _gauges.push_back(GaugeProbe{name, unit, std::move(fn), {}});
}

void
Recorder::addSketch(const std::string &prefix, const QuantileSketch &q,
                    const std::string &suffix, const std::string &unit)
{
    TF_ASSERT(!_started, "register probes before start()");
    _sketches.push_back(
        SketchProbe{prefix, suffix, unit, &q, q, {}, {}, {}});
}

std::vector<std::string>
Recorder::seriesNames() const
{
    std::vector<std::string> out;
    for (const auto &p : _counters)
        out.push_back(p.name);
    for (const auto &g : _gauges)
        out.push_back(g.name);
    for (const auto &s : _sketches) {
        out.push_back(s.prefix + "P50" + s.suffix);
        out.push_back(s.prefix + "P95" + s.suffix);
        out.push_back(s.prefix + "P99" + s.suffix);
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
Recorder::hasSeries(const std::string &name) const
{
    for (const auto &p : _counters)
        if (p.name == name)
            return true;
    for (const auto &g : _gauges)
        if (g.name == name)
            return true;
    for (const auto &s : _sketches)
        for (const char *q : {"P50", "P95", "P99"})
            if (s.prefix + q + s.suffix == name)
                return true;
    return false;
}

void
Recorder::addRule(const SloRule &rule)
{
    TF_ASSERT(!_started, "register rules before start()");
    RuleState rs;
    rs.rule = rule;
    rs.result.name = rule.name;
    rs.result.metric = rule.metric;
    bool resolved = false;
    for (std::size_t i = 0; i < _counters.size() && !resolved; ++i) {
        if (_counters[i].name == rule.metric) {
            rs.probeKind = 0;
            rs.probe = i;
            resolved = true;
        }
    }
    for (std::size_t i = 0; i < _gauges.size() && !resolved; ++i) {
        if (_gauges[i].name == rule.metric) {
            rs.probeKind = 1;
            rs.probe = i;
            resolved = true;
        }
    }
    for (std::size_t i = 0; i < _sketches.size() && !resolved; ++i) {
        const auto &s = _sketches[i];
        const char *qs[] = {"P50", "P95", "P99"};
        for (int q = 0; q < 3 && !resolved; ++q) {
            if (s.prefix + qs[q] + s.suffix == rule.metric) {
                rs.probeKind = 2;
                rs.probe = i;
                rs.quantile = q;
                resolved = true;
            }
        }
    }
    TF_ASSERT(resolved,
              "SLO rule '%s' references unknown metric '%s'",
              rule.name.c_str(), rule.metric.c_str());
    TF_ASSERT(rule.forWindows >= 1, "forWindows must be >= 1");
    _rules.push_back(std::move(rs));
}

void
Recorder::noteFault(const std::string &label, Tick begin, Tick end)
{
    _faults.push_back(FaultWindow{label, begin, std::max(begin, end)});
}

void
Recorder::start()
{
    TF_ASSERT(!_started && !_finished, "start() called twice");
    _started = true;
    ensureArmed();
}

void
Recorder::arm(Tick target)
{
    _armedId = _eq.schedule(
        target, [this] { onBoundary(); }, EventPriority::ClockEdge);
    _armedAt = target;
}

void
Recorder::armFromQueue()
{
    Tick next = _eq.nextEventTick();
    if (next == maxTick)
        return; // queue drained: disarm, wake hook re-arms on merge
    Tick target = (next / _window + 1) * _window;
    if (target < _closedUpTo + _window)
        target = _closedUpTo + _window;
    arm(target);
}

void
Recorder::ensureArmed()
{
    if (!_started || _finished)
        return;
    Tick next = _eq.nextEventTick();
    if (next == maxTick)
        return;
    Tick target = (next / _window + 1) * _window;
    if (target < _closedUpTo + _window)
        target = _closedUpTo + _window;
    if (_armedId != EventQueue::invalidEvent) {
        // Already sampling at or before the needed boundary; the
        // firing handler re-arms forward on its own.
        if (_armedAt <= target)
            return;
        _eq.deschedule(_armedId);
        _armedId = EventQueue::invalidEvent;
    }
    arm(target);
}

void
Recorder::onBoundary()
{
    _armedId = EventQueue::invalidEvent;
    closeTo(_eq.now());
    armFromQueue();
}

void
Recorder::closeTo(Tick boundary)
{
    TF_ASSERT(boundary > _closedUpTo && boundary % _window == 0,
              "timeline window boundary out of order");
    // The sampler is armed at the boundary of the window holding the
    // queue's next pending event whenever the queue is non-empty, so
    // all activity since the last close lies in the batch's *final*
    // window; intermediate windows (idle gaps) are genuinely empty.
    std::size_t gap = static_cast<std::size_t>(
        (boundary - _closedUpTo) / _window);
    for (auto &p : _counters) {
        for (std::size_t i = 1; i < gap; ++i)
            p.values.push_back(0.0);
        std::uint64_t cur = p.counter->value();
        p.values.push_back(static_cast<double>(cur - p.last));
        p.last = cur;
    }
    for (auto &g : _gauges) {
        // No events ran during a gap window, so the gauge held its
        // value across it: one sample is exact for the whole batch.
        double v = g.fn ? g.fn() : kNaN;
        for (std::size_t i = 0; i < gap; ++i)
            g.values.push_back(v);
    }
    for (auto &s : _sketches) {
        for (std::size_t i = 1; i < gap; ++i) {
            s.p50.push_back(kNaN);
            s.p95.push_back(kNaN);
            s.p99.push_back(kNaN);
        }
        QuantileSketch d = s.sketch->delta(s.last);
        if (d.count() == 0) {
            s.p50.push_back(kNaN);
            s.p95.push_back(kNaN);
            s.p99.push_back(kNaN);
        } else {
            s.p50.push_back(d.quantile(0.50));
            s.p95.push_back(d.quantile(0.95));
            s.p99.push_back(d.quantile(0.99));
        }
        s.last = *s.sketch;
    }
    for (std::size_t i = 0; i < gap; ++i) {
        Tick wStart = _closedUpTo + static_cast<Tick>(i) * _window;
        evalRules(_windows + i, wStart, wStart + _window);
    }
    _windows += gap;
    _closedUpTo = boundary;
}

double
Recorder::ruleValue(const RuleState &rs, std::size_t w) const
{
    switch (rs.probeKind) {
    case 0:
        return _counters[rs.probe].values[w];
    case 1:
        return _gauges[rs.probe].values[w];
    default: {
        const auto &s = _sketches[rs.probe];
        const std::vector<double> &v =
            rs.quantile == 0 ? s.p50 : (rs.quantile == 1 ? s.p95 : s.p99);
        return v[w];
    }
    }
}

void
Recorder::evalRules(std::size_t w, Tick wStart, Tick wEnd)
{
    for (auto &rs : _rules) {
        if (wStart < rs.rule.from || wEnd > rs.rule.until) {
            rs.streak = 0;
            continue;
        }
        double v = ruleValue(rs, w);
        if (!std::isfinite(v)) {
            rs.streak = 0; // empty window: no data, no verdict
            continue;
        }
        auto &res = rs.result;
        if (res.evaluated == 0 || worseThan(v, res.worstValue, rs.rule.op))
            res.worstValue = v;
        ++res.evaluated;
        if (!compare(v, rs.rule.op, rs.rule.threshold)) {
            rs.streak = 0;
            continue;
        }
        if (++rs.streak < rs.rule.forWindows)
            continue;
        ++res.violations;
        if (res.firstViolationTick == maxTick) {
            res.firstViolationTick = wStart;
            if (rs.rule.dumpFlight && !rs.dumped) {
                rs.dumped = true;
                dumpBreach(rs);
            }
        }
    }
}

void
Recorder::dumpBreach(const RuleState &rs)
{
    // Only this LP's own buffer: it is single-writer on the calling
    // thread, so the dump is race-free even mid-run under --jobs
    // (the global dumpFlightRecorder() is reserved for a dying
    // process -- see buffer.hh).
    trace::NodeTrace node;
    node.name = _eq.trace().name().empty() ? "lp" : _eq.trace().name();
    node.events = _eq.trace().snapshot();
    if (node.events.empty())
        return;
    std::string path = trace::dumpPath("tf_slo_" + rs.rule.name + ".json");
    std::ofstream out(path);
    if (!out)
        return;
    std::string reason = "slo breach: " + rs.rule.name + ": " +
                         rs.rule.metric + " " + opName(rs.rule.op) + " " +
                         JsonWriter::formatDouble(rs.rule.threshold);
    std::vector<trace::NodeTrace> nodes;
    nodes.push_back(std::move(node));
    trace::writeTraceEventsJson(out, nodes, reason.c_str());
    std::fprintf(stderr, "timeline: %s; flight ring dumped to %s\n",
                 reason.c_str(), path.c_str());
}

void
Recorder::finish()
{
    if (_finished)
        return;
    _finished = true;
    if (_armedId != EventQueue::invalidEvent) {
        _eq.deschedule(_armedId);
        _armedId = EventQueue::invalidEvent;
    }
    if (!_started)
        return;
    Tick now = _eq.now();
    bool residual = now > _closedUpTo;
    for (const auto &p : _counters)
        residual = residual || p.counter->value() != p.last;
    for (const auto &s : _sketches)
        residual = residual || s.sketch->count() != s.last.count();
    if (residual)
        closeTo((now / _window + 1) * _window);
    _sloResults.clear();
    for (const auto &rs : _rules) {
        SloResult res = rs.result;
        if (res.evaluated == 0)
            res.worstValue = kNaN;
        _sloResults.push_back(std::move(res));
    }
}

// -------------------------------------------------------- Timeline

double
Timeline::padValue(const Series &s)
{
    switch (s.kind) {
    case SeriesKind::Delta:
        return 0.0;
    case SeriesKind::Gauge:
        return s.values.empty() ? kNaN : s.values.back();
    case SeriesKind::Quantile:
        return kNaN;
    }
    return kNaN;
}

void
Timeline::mergeSeries(const std::string &name, SeriesKind kind,
                      const std::string &unit,
                      const std::vector<double> &values)
{
    auto it = _series.find(name);
    if (it == _series.end()) {
        _series.emplace(name, Series{kind, unit, values});
        return;
    }
    // Two recorders producing one series name is only meaningful for
    // deltas (shards of one logical counter); anything else is a
    // wiring bug.
    TF_ASSERT(it->second.kind == kind && kind == SeriesKind::Delta,
              "timeline series collision: %s", name.c_str());
    auto &dst = it->second.values;
    if (values.size() > dst.size())
        dst.resize(values.size(), 0.0);
    for (std::size_t i = 0; i < values.size(); ++i)
        dst[i] += values[i];
}

void
Timeline::adopt(const Recorder &rec, const std::string &prefix)
{
    TF_ASSERT(rec._finished, "finish() the recorder before adopt()");
    TF_ASSERT(_window == 0 || _window == rec.window(),
              "timeline window width mismatch");
    _window = rec.window();
    for (const auto &p : rec._counters)
        mergeSeries(prefix + p.name, SeriesKind::Delta, p.unit, p.values);
    for (const auto &g : rec._gauges)
        mergeSeries(prefix + g.name, SeriesKind::Gauge, g.unit, g.values);
    for (const auto &s : rec._sketches) {
        mergeSeries(prefix + s.prefix + "P50" + s.suffix,
                    SeriesKind::Quantile, s.unit, s.p50);
        mergeSeries(prefix + s.prefix + "P95" + s.suffix,
                    SeriesKind::Quantile, s.unit, s.p95);
        mergeSeries(prefix + s.prefix + "P99" + s.suffix,
                    SeriesKind::Quantile, s.unit, s.p99);
    }
    _windows = std::max(_windows, rec.windows());
    for (const auto &f : rec.faults())
        _faults.push_back(FaultWindow{prefix + f.label, f.begin, f.end});
    for (const auto &r : rec.sloResults()) {
        SloResult res = r;
        res.name = prefix + res.name;
        _slo.push_back(std::move(res));
    }
}

void
Timeline::adopt(const Timeline &other, const std::string &prefix)
{
    if (other.empty() && other._series.empty())
        return;
    TF_ASSERT(_window == 0 || other._window == 0 ||
                  _window == other._window,
              "timeline window width mismatch");
    if (_window == 0)
        _window = other._window;
    for (const auto &[name, s] : other._series)
        mergeSeries(prefix + name, s.kind, s.unit, s.values);
    _windows = std::max(_windows, other._windows);
    for (const auto &f : other._faults)
        _faults.push_back(FaultWindow{prefix + f.label, f.begin, f.end});
    for (const auto &r : other._slo) {
        SloResult res = r;
        res.name = prefix + res.name;
        _slo.push_back(std::move(res));
    }
}

double
Timeline::at(const std::string &name, std::size_t w) const
{
    auto it = _series.find(name);
    TF_ASSERT(it != _series.end(), "unknown timeline series: %s",
              name.c_str());
    if (w < it->second.values.size())
        return it->second.values[w];
    return padValue(it->second);
}

void
Timeline::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("windowNs",
            static_cast<std::uint64_t>(_window / ticksPerNs));
    w.field("windows", static_cast<std::uint64_t>(_windows));
    w.name("series");
    w.beginObject();
    for (const auto &[name, s] : _series) {
        w.name(name);
        w.beginObject();
        w.field("kind", kindName(s.kind));
        w.field("unit", s.unit);
        w.name("values");
        w.beginArray();
        for (std::size_t i = 0; i < _windows; ++i)
            w.value(i < s.values.size() ? s.values[i] : padValue(s));
        w.endArray();
        w.endObject();
    }
    w.endObject();
    if (!_faults.empty()) {
        auto sorted = _faults;
        std::sort(sorted.begin(), sorted.end(),
                  [](const FaultWindow &a, const FaultWindow &b) {
                      if (a.begin != b.begin)
                          return a.begin < b.begin;
                      if (a.label != b.label)
                          return a.label < b.label;
                      return a.end < b.end;
                  });
        w.name("faults");
        w.beginArray();
        for (const auto &f : sorted) {
            w.beginObject();
            w.field("label", f.label);
            w.field("beginNs", toNs(f.begin));
            w.field("endNs", toNs(f.end));
            w.endObject();
        }
        w.endArray();
    }
    if (!_slo.empty()) {
        auto sorted = _slo;
        std::sort(sorted.begin(), sorted.end(),
                  [](const SloResult &a, const SloResult &b) {
                      return a.name < b.name;
                  });
        w.name("slo");
        w.beginArray();
        for (const auto &r : sorted) {
            w.beginObject();
            w.field("name", r.name);
            w.field("metric", r.metric);
            w.field("evaluated", r.evaluated);
            w.field("violations", r.violations);
            w.field("worstValue", r.worstValue);
            w.name("firstViolationNs");
            if (r.firstViolationTick == maxTick)
                w.valueNull();
            else
                w.value(toNs(r.firstViolationTick));
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
}

} // namespace tf::sim::timeline
