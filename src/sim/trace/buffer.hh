/**
 * @file
 * Per-event-queue span recording.
 *
 * Every EventQueue owns one TraceBuffer; components reach it through
 * eventQueue().trace(). All writes come from the thread running that
 * queue, so recording is lock-free: a plain append into preallocated
 * storage.
 *
 * Two modes:
 *
 *  - Flight mode (default): a fixed ring keeps the last kFlightCap
 *    span events, and newTrace() samples one transaction in
 *    kSampleInterval so the steady-state overhead is a branch per
 *    hook plus a handful of ring stores per sampled transaction.
 *    Buffers that run on one thread may share one ring (shareRing();
 *    every LP of a ParallelEngine records into LP 0's): each event
 *    carries its buffer's source index, and every read of a buffer
 *    sees only its own events. The ring then holds the newest
 *    kFlightCap events of all its buffers together. panic() /
 *    TF_ASSERT dump every live buffer to tf_flight_<pid>.json in the
 *    dump directory before aborting, so a CI failure always ships
 *    the final in-flight microseconds.
 *
 *  - Full mode (--trace): every transaction gets an id and events
 *    append unbounded to the buffer's own vector, for Perfetto
 *    export and latency attribution.
 *
 * Trace ids are allocated from a buffer-local counter, never a global
 * one: a process-wide atomic would leak the interleaving of tf_bench's
 * point-sharding threads into the exported ids and break the --jobs
 * byte-identity guarantee.
 */

#ifndef TF_SIM_TRACE_BUFFER_HH
#define TF_SIM_TRACE_BUFFER_HH

#include <cstddef>
#include <memory>
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
     * Record flight events into @p owner's ring from now on, instead
     * of into a ring of this buffer's own, under the ring's next
     * source index; what this buffer recorded so far is dropped.
     * Both buffers must be written from one thread. A ring holds
     * fewer than 65,536 buffers (TF_ASSERT).
     */
    void shareRing(TraceBuffer &owner);

    /**
     * Switch between full recording (true) and the flight ring
     * (false). Switching clears recorded events and restarts the
     * sampling counter, so a bench's traced phase starts clean.
     */
    void setFull(bool full);
    bool full() const { return _full; }

    /**
     * Drop this buffer's recorded events; ids already handed out
     * stay valid, and the other events of a shared ring stay.
     */
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
                         SpanEvent::Kind::Begin, _source});
    }

    /** Record a span-end edge. No-op when @p id is noTrace. */
    void
    end(Tick tick, TraceId id, Stage stage)
    {
        if (id == noTrace)
            return;
        append(SpanEvent{tick, id, 0, stage, SpanEvent::Kind::End,
                         _source});
    }

    /** This buffer's events held (its share of the ring in flight mode). */
    std::size_t size() const;

    /** This buffer's events in append order, oldest first. */
    std::vector<SpanEvent> snapshot() const;

  private:
    static constexpr unsigned kIdTagShift = 40;

    /** The flight ring: newest kFlightCap events of its buffers. */
    struct Ring
    {
        std::vector<SpanEvent> events;
        std::size_t head = 0; ///< oldest event once full, else 0
        std::size_t sources = 1; ///< buffers recording into it
    };

    void append(const SpanEvent &ev);
    /** Visit this buffer's ring events oldest first. */
    template <typename Fn> void forOwnFlight(Fn &&fn) const;

    std::string _name;
    bool _full = false;
    std::uint16_t _source = 0; ///< index in the ring's buffers
    std::vector<SpanEvent> _events; ///< full mode
    /** Flight ring; made at the first flight event or shareRing(). */
    std::shared_ptr<Ring> _ring;
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
