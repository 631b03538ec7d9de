#include "sim/trace/buffer.hh"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>

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
    _head = 0;
    _wrapped = false;
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
    if (_events.size() < kFlightCap) {
        _events.push_back(ev);
        _head = _events.size() % kFlightCap;
        return;
    }
    _events[_head] = ev;
    _head = (_head + 1) % kFlightCap;
    if (_head == 0 || _events.size() == kFlightCap)
        _wrapped = true;
}

std::size_t
TraceBuffer::size() const
{
    return _events.size();
}

std::vector<SpanEvent>
TraceBuffer::snapshot() const
{
    if (_full || _events.size() < kFlightCap)
        return _events;
    // Unroll the ring oldest-first: _head is the next write slot,
    // hence the oldest retained event.
    std::vector<SpanEvent> out;
    out.reserve(_events.size());
    for (std::size_t i = 0; i < _events.size(); ++i)
        out.push_back(_events[(_head + i) % _events.size()]);
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
