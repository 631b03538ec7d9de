/**
 * @file
 * Per-event-queue span recording.
 *
 * Every EventQueue owns one TraceBuffer; components reach it through
 * eventQueue().trace(). All writes come from the thread running that
 * queue, so recording is lock-free: a plain append into preallocated
 * storage.
 *
 * Two modes share the same storage:
 *
 *  - Flight mode (default): a fixed ring keeps the last kFlightCap
 *    span events, and newTrace() samples one transaction in
 *    kSampleInterval so the steady-state overhead is a branch per
 *    hook plus a handful of ring stores per sampled transaction.
 *    panic() / TF_ASSERT dump every live ring to
 *    tf_flight_<pid>.json in the dump directory before aborting, so
 *    a CI failure always ships the final in-flight microseconds.
 *
 *  - Full mode (--trace): every transaction gets an id and events
 *    append unbounded, for Perfetto export and latency attribution.
 *
 * Trace ids are allocated from a buffer-local counter, never a global
 * one: a process-wide atomic would leak the interleaving of tf_bench's
 * point-sharding threads into the exported ids and break the --jobs
 * byte-identity guarantee.
 */

#ifndef TF_SIM_TRACE_BUFFER_HH
#define TF_SIM_TRACE_BUFFER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/trace/span.hh"

namespace tf::sim::trace {

class TraceBuffer
{
  public:
    /** Flight-recorder ring capacity, in span events. */
    static constexpr std::size_t kFlightCap = 4096;
    /** Flight mode records one transaction in this many. */
    static constexpr std::uint64_t kSampleInterval = 64;

    TraceBuffer();
    ~TraceBuffer();

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Node label used by the flight dump ("" until named). */
    void setName(std::string name) { _name = std::move(name); }
    const std::string &name() const { return _name; }

    /**
     * Disambiguate ids across buffers: the tag occupies the id's high
     * bits, so two buffers with distinct tags can never collide when
     * their traces merge into one collection. Assign tags from stable
     * topology indices (node number, LP index), never from thread
     * identity, to keep exports --jobs-independent. Tag 0 (default)
     * is fine for single-buffer rigs.
     */
    void setIdTag(std::uint32_t tag)
    {
        _idTag = static_cast<std::uint64_t>(tag) << kIdTagShift;
    }

    /**
     * Switch between full recording (true) and the flight ring
     * (false). Switching clears recorded events and restarts the
     * sampling counter, so a bench's traced phase starts clean.
     */
    void setFull(bool full);
    bool full() const { return _full; }

    /** Drop recorded events; ids already handed out stay valid. */
    void clear();

    /**
     * Allocate a trace id for a new transaction. In full mode every
     * call returns a fresh id; in flight mode only every
     * kSampleInterval-th call does (noTrace otherwise), which bounds
     * the always-on overhead. Hooks no-op on noTrace.
     */
    TraceId newTrace();

    /** Record a span-begin edge. No-op when @p id is noTrace. */
    void
    begin(Tick tick, TraceId id, Stage stage, std::uint32_t depth = 0)
    {
        if (id == noTrace)
            return;
        append(SpanEvent{tick, id, depth, stage,
                         SpanEvent::Kind::Begin});
    }

    /** Record a span-end edge. No-op when @p id is noTrace. */
    void
    end(Tick tick, TraceId id, Stage stage)
    {
        if (id == noTrace)
            return;
        append(SpanEvent{tick, id, 0, stage, SpanEvent::Kind::End});
    }

    /** Events recorded (ring occupancy in flight mode). */
    std::size_t size() const;

    /** Recorded events in append order (ring unrolled oldest-first). */
    std::vector<SpanEvent> snapshot() const;

  private:
    static constexpr unsigned kIdTagShift = 40;

    void append(const SpanEvent &ev);

    std::string _name;
    bool _full = false;
    std::vector<SpanEvent> _events;
    std::size_t _head = 0;    ///< ring write index (flight mode)
    bool _wrapped = false;    ///< ring has lapped at least once
    std::uint64_t _idTag = 0; ///< high bits of every issued id
    std::uint64_t _nextId = 0;
    std::uint64_t _issueCount = 0;
};

/**
 * Directory the flight dump and the timeline's SLO breach dumps are
 * written into; "" (the default) is the working directory. One
 * setting for the whole process: set it before any queue runs.
 */
void setDumpDir(std::string dir);

/** Path of @p file inside the dump directory. */
std::string dumpPath(const std::string &file);

/**
 * Write every live TraceBuffer's events to tf_flight_<pid>.json in
 * the dump directory (trace-event JSON plus the failure reason).
 * Called by panic() before aborting; safe to call with buffers
 * mid-write — the process is dying and a torn ring still beats no
 * data. Re-entry is ignored.
 */
void dumpFlightRecorder(const char *reason);

} // namespace tf::sim::trace

#endif // TF_SIM_TRACE_BUFFER_HH
