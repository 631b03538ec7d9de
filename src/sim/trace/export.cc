#include "sim/trace/export.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "sim/json.hh"
#include "sim/timeline/timeline.hh"

namespace tf::sim::trace {

namespace {

/**
 * Ticks are picoseconds and trace-event timestamps are microseconds:
 * emit "<us>.<frac>" from the integer tick so the output is exact
 * and byte-deterministic (no double formatting involved).
 */
void
writeTs(std::ostream &os, Tick tick)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 ".%06" PRIu64,
                  tick / ticksPerUs, tick % ticksPerUs);
    os << buf;
}

void
writeEvent(std::ostream &os, const SpanEvent &ev, std::size_t pid)
{
    const char *ph =
        ev.kind == SpanEvent::Kind::Begin ? "b" : "e";
    os << "{\"ph\":\"" << ph << "\",\"cat\":\"span\",\"name\":\""
       << stageName(ev.stage) << "\",\"id2\":{\"local\":\"0x"
       << std::hex << ev.id << std::dec << "\"},\"pid\":" << pid
       << ",\"tid\":" << static_cast<int>(ev.stage) << ",\"ts\":";
    writeTs(os, ev.tick);
    if (ev.kind == SpanEvent::Kind::Begin)
        os << ",\"args\":{\"depth\":" << ev.depth << "}";
    os << "}";
}

/**
 * The timeline rides in the same document as the spans: counter
 * tracks under a synthetic pid 0 so Perfetto stacks them above the
 * per-node span processes, and fault windows as complete events on
 * one "faults" thread. Emission order (series name, window index;
 * then faults as the Timeline sorted them) is deterministic because
 * the merged timeline itself is.
 */
void
writeTimelineEvents(std::ostream &os, const timeline::Timeline &tl,
                    const std::function<void()> &sep)
{
    constexpr std::size_t kTimelinePid = 0;
    constexpr int kFaultTid = 1;
    if (tl.series().empty() && tl.faults().empty())
        return;
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << kTimelinePid
       << ",\"name\":\"process_name\",\"args\":{\"name\":\"timeline\"}}";
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << kTimelinePid
       << ",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":-1}}";
    for (const auto &[name, series] : tl.series()) {
        for (std::size_t w = 0; w < tl.windows(); ++w) {
            double v = w < series.values.size()
                           ? series.values[w]
                           : timeline::Timeline::padValue(series);
            if (!std::isfinite(v))
                continue; // empty window: no point, not a zero
            sep();
            os << "{\"ph\":\"C\",\"cat\":\"timeline\",\"name\":\""
               << JsonEscaped{name} << "\",\"pid\":" << kTimelinePid
               << ",\"ts\":";
            writeTs(os, static_cast<Tick>(w) * tl.window());
            os << ",\"args\":{\"value\":"
               << JsonWriter::formatDouble(v) << "}}";
        }
    }
    if (tl.faults().empty())
        return;
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << kTimelinePid
       << ",\"tid\":" << kFaultTid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"faults\"}}";
    auto faults = tl.faults();
    std::sort(faults.begin(), faults.end(),
              [](const timeline::FaultWindow &a,
                 const timeline::FaultWindow &b) {
                  if (a.begin != b.begin)
                      return a.begin < b.begin;
                  if (a.label != b.label)
                      return a.label < b.label;
                  return a.end < b.end;
              });
    for (const auto &f : faults) {
        sep();
        os << "{\"ph\":\"X\",\"cat\":\"fault\",\"name\":\""
           << JsonEscaped{f.label} << "\",\"pid\":" << kTimelinePid
           << ",\"tid\":" << kFaultTid << ",\"ts\":";
        writeTs(os, f.begin);
        os << ",\"dur\":";
        writeTs(os, f.end - f.begin);
        os << "}";
    }
}

} // namespace

void
writeTraceEventsJson(std::ostream &os,
                     const std::vector<NodeTrace> &nodes,
                     const char *reason,
                     const timeline::Timeline *tl)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",\n";
        first = false;
    };

    // Metadata: one process per node, one thread per stage seen.
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        std::size_t pid = n + 1;
        sep();
        os << "{\"ph\":\"M\",\"pid\":" << pid
           << ",\"name\":\"process_name\",\"args\":{\"name\":\""
           << JsonEscaped{nodes[n].name} << "\"}}";
        bool seen[kStageCount] = {};
        for (const SpanEvent &ev : nodes[n].events)
            seen[static_cast<int>(ev.stage)] = true;
        for (int s = 0; s < kStageCount; ++s) {
            if (!seen[s])
                continue;
            sep();
            os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << s
               << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
               << stageName(static_cast<Stage>(s)) << "\"}}"
               << "";
            sep();
            os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << s
               << ",\"name\":\"thread_sort_index\",\"args\":"
               << "{\"sort_index\":" << s << "}}";
        }
    }

    // Span events, globally ordered by (tick, node, append order) —
    // a total order independent of how the buffers were filled.
    struct Ref
    {
        Tick tick;
        std::uint32_t node;
        std::uint32_t idx;
    };
    std::vector<Ref> refs;
    std::size_t total = 0;
    for (const NodeTrace &node : nodes)
        total += node.events.size();
    refs.reserve(total);
    for (std::size_t n = 0; n < nodes.size(); ++n)
        for (std::size_t i = 0; i < nodes[n].events.size(); ++i)
            refs.push_back(Ref{nodes[n].events[i].tick,
                               static_cast<std::uint32_t>(n),
                               static_cast<std::uint32_t>(i)});
    std::sort(refs.begin(), refs.end(),
              [](const Ref &a, const Ref &b) {
                  if (a.tick != b.tick)
                      return a.tick < b.tick;
                  if (a.node != b.node)
                      return a.node < b.node;
                  return a.idx < b.idx;
              });
    for (const Ref &r : refs) {
        sep();
        writeEvent(os, nodes[r.node].events[r.idx], r.node + 1);
    }

    if (tl != nullptr)
        writeTimelineEvents(os, *tl, sep);

    os << "],\n\"displayTimeUnit\":\"ns\"";
    if (reason != nullptr)
        os << ",\n\"otherData\":{\"reason\":\""
           << JsonEscaped{reason} << "\"}";
    os << "}\n";
}

void
TraceCollector::addBuffer(const TraceBuffer &buffer, std::string node)
{
    NodeTrace nt;
    nt.name = std::move(node);
    nt.events = buffer.snapshot();
    _nodes.push_back(std::move(nt));
}

void
TraceCollector::adopt(TraceCollector &&other)
{
    for (NodeTrace &node : other._nodes)
        _nodes.push_back(std::move(node));
    other._nodes.clear();
}

void
TraceCollector::writeJson(std::ostream &os) const
{
    writeTraceEventsJson(os, _nodes, nullptr, _timeline);
}

Attribution
TraceCollector::attribution() const
{
    Attribution attr;
    // One transaction's spans spread over several buffers (host eq,
    // channel eq, donor eq), so per-trace totals accumulate across
    // nodes. Only round trips that closed the final host stage feed
    // totalNs: in-flight tails and control-plane-only ids (Eth) would
    // otherwise drag the end-to-end distribution down. Ordered maps
    // keep iteration deterministic.
    std::map<TraceId, double> totals;
    std::set<TraceId> started;
    std::set<TraceId> complete;
    for (const NodeTrace &node : _nodes) {
        // Begin/end edges of one span always land in the same buffer.
        std::map<std::pair<TraceId, int>, Tick> open;
        for (const SpanEvent &ev : node.events) {
            int stage = static_cast<int>(ev.stage);
            auto key = std::make_pair(ev.id, stage);
            if (ev.kind == SpanEvent::Kind::Begin) {
                if (ev.stage == Stage::TagQueue)
                    started.insert(ev.id);
                open[key] = ev.tick;
                continue;
            }
            auto it = open.find(key);
            if (it == open.end())
                continue; // orphan end (begin predates collection)
            double ns = toNs(ev.tick - it->second);
            open.erase(it);
            attr.stageNs[static_cast<std::size_t>(stage)].add(ns);
            totals[ev.id] += ns;
            if (ev.stage == Stage::HostSerdesUp)
                complete.insert(ev.id);
        }
    }
    // A round trip feeds totalNs only when both edges of its life are
    // inside the collection window: it entered the tag queue after
    // the last clear() AND closed the final host stage. Trips already
    // in flight when a measured phase starts would otherwise
    // contribute truncated totals and drag the distribution down.
    for (const auto &[id, ns] : totals)
        if (complete.count(id) && started.count(id))
            attr.totalNs.add(ns);
    return attr;
}

} // namespace tf::sim::trace
