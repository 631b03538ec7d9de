/**
 * @file
 * Logical process: one partition of a partitioned simulation.
 *
 * A LogicalProcess (LP) owns a private EventQueue holding the events
 * of one simulated node (or node group). All state of the components
 * built against that queue belongs to the LP and is touched only by
 * the LP's own events; all cross-LP traffic crosses through a
 * LinkChannel and is merged in at a window's end.
 *
 * See engine.hh for the window protocol and DESIGN.md §11 for the
 * ordering argument.
 */

#ifndef TF_SIM_PARALLEL_LP_HH
#define TF_SIM_PARALLEL_LP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace tf::sim::par {

using LpId = std::uint32_t;

class LogicalProcess
{
  public:
    LogicalProcess(LpId id, std::string name)
        : _id(id), _name(std::move(name))
    {}

    LogicalProcess(const LogicalProcess &) = delete;
    LogicalProcess &operator=(const LogicalProcess &) = delete;

    LpId id() const { return _id; }
    const std::string &name() const { return _name; }

    /** The LP's private event kernel. Build your components on it. */
    EventQueue &queue() { return _eq; }
    const EventQueue &queue() const { return _eq; }

    /**
     * Always 0: the engine runs every LP on one thread, so nothing
     * waits at a window's end. Kept only for perfbench, whose code
     * changes only together with the benchmark and still sums this
     * into par.barrier_wait_s.
     */
    std::uint64_t barrierWaitNs() const { return 0; }

    /**
     * Invoked by the engine after cross-LP messages are merged into
     * this LP's queue at a window's end. Observers that disarm
     * themselves when the queue drains (the timeline sampler) use it
     * to re-arm on newly delivered work.
     */
    void setWakeHook(std::function<void()> fn) { _wakeHook = std::move(fn); }

  private:
    friend class ParallelEngine;

    std::function<void()> _wakeHook;

    LpId _id;
    std::string _name;
    EventQueue _eq;
    /** Windows in which this LP executed at least one event. */
    Counter _activeWindows;
    /** Cross-LP messages merged into this LP at window ends. */
    Counter _merged;
};

} // namespace tf::sim::par

#endif // TF_SIM_PARALLEL_LP_HH
