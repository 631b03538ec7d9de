/**
 * @file
 * Base class for named simulation components.
 */

#ifndef TF_SIM_SIM_OBJECT_HH
#define TF_SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "sim/event_queue.hh"

namespace tf::sim {

/**
 * A named component attached to an EventQueue. Components schedule
 * their own events and expose statistics; the queue owns time.
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue &eq)
        : _name(std::move(name)), _eq(eq)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    EventQueue &eventQueue() const { return _eq; }
    Tick now() const { return _eq.now(); }

  protected:
    /** Schedule a member callback @p delay ticks from now. */
    template <typename F>
    EventQueue::EventId
    after(Tick delay, F &&cb, EventPriority prio = EventPriority::Default)
    {
        return _eq.scheduleIn(delay, std::forward<F>(cb), prio);
    }

  private:
    std::string _name;
    EventQueue &_eq;
};

} // namespace tf::sim

#endif // TF_SIM_SIM_OBJECT_HH
