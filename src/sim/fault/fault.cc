#include "sim/fault/fault.hh"

#include <algorithm>

#include "sim/rng.hh"

namespace tf::sim::fault {

Plan &
Plan::add(Event ev)
{
    auto pos = std::upper_bound(
        _events.begin(), _events.end(), ev,
        [](const Event &a, const Event &b) { return a.at < b.at; });
    _events.insert(pos, std::move(ev));
    return *this;
}

Plan &
Plan::flap(Tick at, const std::string &point, Tick downFor)
{
    Event ev;
    ev.at = at;
    ev.kind = Kind::ChannelFlap;
    ev.point = point;
    ev.duration = downFor;
    return add(std::move(ev));
}

Plan &
Plan::burst(Tick at, const std::string &point, Tick duration,
            const GilbertElliott &ge)
{
    Event ev;
    ev.at = at;
    ev.kind = Kind::BurstLoss;
    ev.point = point;
    ev.duration = duration;
    ev.ge = ge;
    return add(std::move(ev));
}

Plan &
Plan::spike(Tick at, const std::string &point, Tick duration,
            Tick extraLatency)
{
    Event ev;
    ev.at = at;
    ev.kind = Kind::LatencySpike;
    ev.point = point;
    ev.duration = duration;
    ev.extraLatency = extraLatency;
    return add(std::move(ev));
}

Plan &
Plan::stall(Tick at, const std::string &point, Tick duration)
{
    Event ev;
    ev.at = at;
    ev.kind = Kind::DramStall;
    ev.point = point;
    ev.duration = duration;
    return add(std::move(ev));
}

Plan &
Plan::starve(Tick at, const std::string &point, Tick duration)
{
    Event ev;
    ev.at = at;
    ev.kind = Kind::CreditStarve;
    ev.point = point;
    ev.duration = duration;
    return add(std::move(ev));
}

Plan &
Plan::outage(Tick at, const std::string &point, Tick duration)
{
    Event ev;
    ev.at = at;
    ev.kind = Kind::ControlOutage;
    ev.point = point;
    ev.duration = duration;
    return add(std::move(ev));
}

Plan
Plan::randomized(std::uint64_t seed, Tick horizon, const Registry &reg,
                 std::size_t count)
{
    // Transient kinds only: a random soak must keep the bed alive so
    // the invariants (all bytes readable back) stay checkable.
    // CachePoison qualifies: the cache refetches a poisoned frame from
    // the donor, so data stays correct.
    static constexpr Kind kDrawable[] = {
        Kind::ChannelFlap, Kind::BurstLoss,  Kind::LatencySpike,
        Kind::DramStall,   Kind::CreditStarve, Kind::ControlOutage,
        Kind::CachePoison,
    };

    Rng rng(seed);
    Plan plan;

    std::vector<Kind> kinds;
    for (Kind k : kDrawable) {
        if (!reg.pointsSupporting(k).empty())
            kinds.push_back(k);
    }
    if (kinds.empty() || horizon < 100)
        return plan;

    for (std::size_t i = 0; i < count; ++i) {
        Kind kind = kinds[rng.below(kinds.size())];
        auto points = reg.pointsSupporting(kind);
        Event ev;
        ev.kind = kind;
        ev.point = points[rng.below(points.size())];
        // Fire inside (5%, 85%) of the horizon so the tail of the run
        // always has quiet time to drain and recover.
        ev.at = horizon / 20 + rng.below(horizon * 4 / 5);
        ev.duration = horizon / 200 + rng.below(horizon / 20);
        switch (kind) {
          case Kind::LatencySpike:
            ev.extraLatency =
                nanoseconds(500) + rng.below(microseconds(5));
            break;
          case Kind::BurstLoss:
            ev.ge.pGoodBad = rng.uniform(0.02, 0.2);
            ev.ge.pBadGood = rng.uniform(0.2, 0.6);
            ev.ge.errGood = rng.uniform(0.0, 0.005);
            ev.ge.errBad = rng.uniform(0.3, 0.8);
            break;
          default:
            break;
        }
        plan.add(std::move(ev));
    }
    return plan;
}

void
Registry::add(const std::string &name, std::uint32_t kinds,
              Handler handler)
{
    _points[name] = Point{kinds, std::move(handler)};
}

bool
Registry::has(const std::string &name) const
{
    return _points.count(name) != 0;
}

bool
Registry::supports(const std::string &name, Kind kind) const
{
    auto it = _points.find(name);
    return it != _points.end() && (it->second.kinds & kindBit(kind));
}

std::vector<std::string>
Registry::pointsSupporting(Kind kind) const
{
    std::vector<std::string> out;
    for (const auto &[name, point] : _points) {
        if (point.kinds & kindBit(kind))
            out.push_back(name);
    }
    return out;
}

std::vector<std::string>
Registry::names() const
{
    std::vector<std::string> out;
    for (const auto &[name, point] : _points)
        out.push_back(name);
    return out;
}

bool
Registry::dispatch(const Event &ev) const
{
    auto it = _points.find(ev.point);
    if (it == _points.end() || !(it->second.kinds & kindBit(ev.kind)))
        return false;
    it->second.handler(ev);
    return true;
}

void
Engine::arm(const Plan &plan)
{
    for (const Event &ev : plan.events()) {
        _armed.inc();
        Event copy = ev;
        _eq.schedule(ev.at,
                     [this, copy = std::move(copy)] { fire(copy); });
    }
}

void
Engine::fire(const Event &ev)
{
    // The fault window shows up in Perfetto as a Stage::Fault span
    // beside the datapath spans it perturbs.
    auto &tb = _eq.trace();
    trace::TraceId id = tb.newTrace();
    tb.begin(_eq.now(), id, trace::Stage::Fault,
             static_cast<std::uint32_t>(ev.kind));
    if (id != trace::noTrace) {
        if (ev.duration > 0) {
            _eq.scheduleIn(ev.duration, [this, id] {
                _eq.trace().end(_eq.now(), id, trace::Stage::Fault);
            });
        } else {
            tb.end(_eq.now(), id, trace::Stage::Fault);
        }
    }

    if (_reg.dispatch(ev)) {
        _fired.inc();
        _firedByKind[static_cast<std::size_t>(ev.kind)].inc();
        if (_observer)
            _observer(ev);
    } else {
        _unmatched.inc();
    }
}

void
Engine::attachStats(StatSet &set)
{
    set.attach("armed", _armed, "events", "fault events scheduled");
    set.attach("fired", _fired, "events",
               "fault events dispatched to a registered point");
    set.attach("unmatched", _unmatched, "events",
               "fault events with no matching point (dropped)");
    for (int k = 0; k < kKindCount; ++k) {
        set.attach(std::string("fired.") + kindName(static_cast<Kind>(k)),
                   _firedByKind[k], "events");
    }
}

} // namespace tf::sim::fault
