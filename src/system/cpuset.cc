#include "system/cpuset.hh"

#include "sim/logging.hh"

namespace tf::sys {

CpuSet::CpuSet(std::string name, sim::EventQueue &eq, int hwThreads)
    : SimObject(std::move(name), eq), _hwThreads(hwThreads)
{
    TF_ASSERT(hwThreads > 0, "need at least one hardware thread");
}

void
CpuSet::exec(sim::Tick cpuTime, std::function<void()> done)
{
    if (_busy >= _hwThreads) {
        _queue.emplace_back(cpuTime, std::move(done));
        return;
    }
    start(cpuTime, std::move(done));
}

void
CpuSet::start(sim::Tick cpuTime, std::function<void()> done)
{
    ++_busy;
    _tasks.inc();
    after(cpuTime, [this, cpuTime, done = std::move(done)]() mutable {
        _busyTime += cpuTime;
        --_busy;
        if (!_queue.empty()) {
            auto [next_time, next_done] = std::move(_queue.front());
            _queue.pop_front();
            start(next_time, std::move(next_done));
        }
        done();
    });
}

} // namespace tf::sys
