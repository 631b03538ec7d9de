#include "sim/trace/buffer.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>

#include "sim/logging.hh"
#include "sim/trace/export.hh"

namespace tf::sim::trace {

namespace {

/**
 * Registry of live buffers for the flight dump. Ordered by pointer
 * so the dump is stable within a run; the mutex guards only
 * registration — event writes stay lock-free on each buffer's own
 * thread.
 */
std::mutex g_registryMutex;
std::set<TraceBuffer *> &
registry()
{
    static std::set<TraceBuffer *> buffers;
    return buffers;
}

std::string g_dumpDir;

} // namespace

TraceBuffer::TraceBuffer()
{
    std::lock_guard<std::mutex> lock(g_registryMutex);
    registry().insert(this);
}

TraceBuffer::~TraceBuffer()
{
    std::lock_guard<std::mutex> lock(g_registryMutex);
    registry().erase(this);
}

void
TraceBuffer::shareRing(TraceBuffer &owner)
{
    if (!owner._ring)
        owner._ring = std::make_shared<Ring>();
    TF_ASSERT(owner._ring->sources < 0xFFFF,
              "trace: a flight ring holds fewer than 65,536 buffers");
    clear();
    _ring = owner._ring;
    _source = static_cast<std::uint16_t>(_ring->sources++);
}

void
TraceBuffer::setFull(bool full)
{
    _full = full;
    clear();
    _issueCount = 0;
}

void
TraceBuffer::clear()
{
    _events.clear();
    _events.shrink_to_fit();
    if (!_ring)
        return;
    // Keep the other buffers' events, oldest first from slot 0.
    std::vector<SpanEvent> &ring = _ring->events;
    std::rotate(ring.begin(), ring.begin() + _ring->head, ring.end());
    _ring->head = 0;
    ring.erase(std::remove_if(ring.begin(), ring.end(),
                              [this](const SpanEvent &ev) {
                                  return ev.source == _source;
                              }),
               ring.end());
    if (ring.empty())
        ring.shrink_to_fit();
}

TraceId
TraceBuffer::newTrace()
{
    if (_full)
        return _idTag | ++_nextId;
    // Flight mode: sample the first issue and every
    // kSampleInterval-th after it, so short runs still leave spans
    // behind for the recorder.
    bool sampled = _issueCount % kSampleInterval == 0;
    ++_issueCount;
    if (!sampled)
        return noTrace;
    return _idTag | ++_nextId;
}

void
TraceBuffer::append(const SpanEvent &ev)
{
    if (_full) {
        _events.push_back(ev);
        return;
    }
    if (!_ring)
        _ring = std::make_shared<Ring>();
    Ring &r = *_ring;
    if (r.events.size() < kFlightCap) {
        r.events.push_back(ev);
        return;
    }
    r.events[r.head] = ev;
    r.head = (r.head + 1) % kFlightCap;
}

template <typename Fn>
void
TraceBuffer::forOwnFlight(Fn &&fn) const
{
    if (!_ring)
        return;
    const std::vector<SpanEvent> &ring = _ring->events;
    // head is the oldest event of a full ring and 0 before it fills.
    for (std::size_t i = 0; i < ring.size(); ++i) {
        const SpanEvent &ev = ring[(_ring->head + i) % ring.size()];
        if (ev.source == _source)
            fn(ev);
    }
}

std::size_t
TraceBuffer::size() const
{
    if (_full)
        return _events.size();
    std::size_t n = 0;
    forOwnFlight([&n](const SpanEvent &) { ++n; });
    return n;
}

std::vector<SpanEvent>
TraceBuffer::snapshot() const
{
    if (_full)
        return _events;
    std::vector<SpanEvent> out;
    forOwnFlight([&out](const SpanEvent &ev) { out.push_back(ev); });
    return out;
}

void
setDumpDir(std::string dir)
{
    g_dumpDir = std::move(dir);
}

std::string
dumpPath(const std::string &file)
{
    return g_dumpDir.empty() ? file : g_dumpDir + "/" + file;
}

void
dumpFlightRecorder(const char *reason)
{
    // A panic inside the dump (or concurrent panics) must not
    // recurse or interleave; first caller wins, the rest abort as
    // they would have without a recorder.
    static std::atomic<bool> dumping{false};
    if (dumping.exchange(true))
        return;

    std::vector<NodeTrace> nodes;
    {
        std::lock_guard<std::mutex> lock(g_registryMutex);
        std::size_t index = 0;
        for (TraceBuffer *buf : registry()) {
            if (buf->size() == 0) {
                ++index;
                continue;
            }
            NodeTrace node;
            node.name = buf->name().empty()
                            ? "eq" + std::to_string(index)
                            : buf->name();
            node.events = buf->snapshot();
            nodes.push_back(std::move(node));
            ++index;
        }
    }
    if (nodes.empty()) {
        dumping.store(false);
        return;
    }

    std::string path =
        dumpPath("tf_flight_" + std::to_string(::getpid()) + ".json");
    std::ofstream out(path);
    if (!out) {
        dumping.store(false);
        return;
    }
    writeTraceEventsJson(out, nodes, reason);
    out.flush();
    std::fprintf(stderr,
                 "flight recorder: %zu buffer(s) dumped to %s\n",
                 nodes.size(), path.c_str());
    dumping.store(false);
}

} // namespace tf::sim::trace
