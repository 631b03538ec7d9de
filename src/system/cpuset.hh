/**
 * @file
 * Hardware-thread occupancy model.
 *
 * Workload models execute CPU work by acquiring a hardware thread for
 * a given duration; excess tasks queue FIFO. Busy-time accounting
 * gives the "utilised CPU cores" (UCC) metric of the paper's VoltDB
 * profiling (Fig. 6), equivalent to perf's task-clock.
 */

#ifndef TF_SYS_CPUSET_HH
#define TF_SYS_CPUSET_HH

#include <deque>
#include <functional>

#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tf::sys {

class CpuSet : public sim::SimObject
{
  public:
    CpuSet(std::string name, sim::EventQueue &eq, int hwThreads);

    int hwThreads() const { return _hwThreads; }

    /**
     * Occupy one hardware thread for @p cpuTime, then run @p done.
     * Queued when all threads are busy.
     */
    void exec(sim::Tick cpuTime, std::function<void()> done);

    /** Total busy thread-time accumulated. */
    sim::Tick busyTime() const { return _busyTime; }

    std::uint64_t tasksRun() const { return _tasks.value(); }

  private:
    int _hwThreads;
    int _busy = 0;
    sim::Tick _busyTime = 0;
    std::deque<std::pair<sim::Tick, std::function<void()>>> _queue;
    sim::Counter _tasks;

    void start(sim::Tick cpuTime, std::function<void()> done);
};

} // namespace tf::sys

#endif // TF_SYS_CPUSET_HH
