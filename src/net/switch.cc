#include "net/switch.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tf::net {

FabricLink::FabricLink(std::string name, sim::EventQueue &eq,
                       FabricLinkParams params)
    : SimObject(std::move(name), eq), _params(params)
{
    TF_ASSERT(_params.bandwidthBps > 0,
              "%s: fabric link bandwidth must be positive",
              this->name().c_str());
    TF_ASSERT(_params.latency > 0,
              "%s: fabric link latency must be positive (it is the "
              "conservative engine's lookahead floor)",
              this->name().c_str());
}

void
FabricLink::send(std::uint64_t bytes, sim::Tick extraDelay,
                 sim::EventQueue::Callback delivered)
{
    sim::Tick ser = sim::seconds(static_cast<double>(bytes) /
                                 _params.bandwidthBps) +
                    _params.perMessageOverhead;
    sim::Tick ready = now() + extraDelay;
    sim::Tick start = std::max(ready, _nextFree);
    _nextFree = start + ser;
    _messages.inc();
    _bytes.inc(bytes);
    _queueNs.add(sim::toNs(start - ready));
    // Occupancy bookkeeping: a message owns a queue slot from the
    // tick it becomes ready until the port finishes serialising it.
    // High-water is the deepest the port backlog ever got — the
    // timeline surfaces it so trunk oversubscription shows up as a
    // filling queue, not just a worse p99.
    while (!_queued.empty() && _queued.front() <= ready)
        _queued.pop_front();
    _queued.push_back(start + ser);
    if (_queued.size() > _queueHighWater.value())
        _queueHighWater.inc(_queued.size() - _queueHighWater.value());
    _occupancyNs.inc((start - ready) / sim::ticksPerNs);
    sim::Tick deliver = start + ser + _params.latency + spikeNow();
    // Every hop is its own span on the source element's LP: crossing
    // + egress queue + serialisation + wire, begin at ingress.
    auto &tb = eventQueue().trace();
    if (sim::trace::TraceId id = tb.newTrace();
        id != sim::trace::noTrace) {
        tb.begin(now(), id, sim::trace::Stage::SwitchHop);
        tb.end(deliver, id, sim::trace::Stage::SwitchHop);
    }
    if (_channel != nullptr)
        _channel->send(deliver, std::move(delivered));
    else
        after(deliver - now(), std::move(delivered));
}

void
FabricLink::bindChannel(sim::par::LinkChannel *channel)
{
    TF_ASSERT(channel == nullptr ||
                  channel->minLatency() <= _params.latency,
              "%s: channel lookahead %llu exceeds link latency %llu",
              name().c_str(),
              (unsigned long long)channel->minLatency(),
              (unsigned long long)_params.latency);
    _channel = channel;
}

void
FabricLink::spike(sim::Tick extra, sim::Tick duration)
{
    _spikeExtra = std::max(_spikeExtra, extra);
    _spikeUntil = std::max(_spikeUntil, now() + duration);
    _spikes.inc();
    after(duration, [this]() {
        if (now() >= _spikeUntil)
            _spikeExtra = 0;
    });
}

std::size_t
FabricLink::queueDepth(sim::Tick at)
{
    while (!_queued.empty() && _queued.front() <= at)
        _queued.pop_front();
    return _queued.size();
}

void
FabricLink::attachStats(sim::StatSet &set)
{
    set.attach("messages", _messages, "msgs");
    set.attach("bytes", _bytes, "bytes");
    set.attach("queueNs", _queueNs, "ns",
               "egress output-queue delay per message");
    set.attach("queueHighWater", _queueHighWater, "msgs",
               "deepest egress backlog (queued + serialising)");
    set.attach("queueOccupancyNs", _occupancyNs, "ns",
               "summed time messages waited for the port");
    set.attach("latencySpikes", _spikes, "events",
               "injected latency-spike windows");
}

struct Fabric::Msg
{
    /** The destination's next-hop row. */
    const std::uint32_t *next;
    const Element *dst;
    std::uint64_t bytes;
    sim::EventQueue::Callback delivered;
};

Fabric::Fabric(std::string name, sim::EventQueue &eq)
    : _name(std::move(name)), _eq(eq)
{
}

Fabric::Element &
Fabric::element(const std::string &name)
{
    auto it = _elements.find(name);
    TF_ASSERT(it != _elements.end(), "%s: unknown element '%s'",
              _name.c_str(), name.c_str());
    return it->second;
}

sim::EventQueue &
Fabric::queueOf(const Element &e)
{
    return e.home != nullptr ? e.home->queue() : _eq;
}

void
Fabric::addEndpoint(const std::string &name)
{
    TF_ASSERT(_elements.count(name) == 0,
              "%s: duplicate element '%s'", _name.c_str(),
              name.c_str());
    _elements[name] = Element{};
}

void
Fabric::addSwitch(const std::string &name, SwitchParams params)
{
    TF_ASSERT(_elements.count(name) == 0,
              "%s: duplicate element '%s'", _name.c_str(),
              name.c_str());
    Element e;
    e.isSwitch = true;
    e.sw = params;
    _elements[name] = std::move(e);
}

void
Fabric::assign(const std::string &name, sim::par::LogicalProcess &lp)
{
    TF_ASSERT(_links.empty(),
              "%s: assign('%s') after connect() — links are built on "
              "their source element's queue, so homes must be known "
              "first",
              _name.c_str(), name.c_str());
    element(name).home = &lp;
}

void
Fabric::connect(const std::string &a, const std::string &b,
                FabricLinkParams params)
{
    TF_ASSERT(!_finalized, "%s: connect('%s','%s') after finalize()",
              _name.c_str(), a.c_str(), b.c_str());
    TF_ASSERT(a != b, "%s: self-link on '%s'", _name.c_str(),
              a.c_str());
    const std::string ab = a + "->" + b;
    const std::string ba = b + "->" + a;
    TF_ASSERT(_links.count(ab) == 0, "%s: duplicate link %s <-> %s",
              _name.c_str(), a.c_str(), b.c_str());
    Element &ea = element(a);
    Element &eb = element(b);
    for (const Element *e : {&ea, &eb})
        TF_ASSERT(!e->isSwitch || e->ports.size() < e->sw.radix,
                  "%s: switch '%s' exceeds radix %u", _name.c_str(),
                  (e == &ea ? a : b).c_str(), e->sw.radix);
    Link &lab = _links[ab];
    lab = Link{std::make_unique<FabricLink>(_name + "." + ab,
                                            queueOf(ea), params),
               &ea, &eb};
    Link &lba = _links[ba];
    lba = Link{std::make_unique<FabricLink>(_name + "." + ba,
                                            queueOf(eb), params),
               &eb, &ea};
    ea.ports.push_back(Port{&eb, lab.link.get()});
    eb.ports.push_back(Port{&ea, lba.link.get()});
}

void
Fabric::finalize()
{
    TF_ASSERT(!_finalized, "%s: finalize() twice", _name.c_str());
    _finalized = true;
    std::uint32_t endpoints = 0;
    _byId.reserve(_elements.size());
    for (auto &[name, e] : _elements) {
        e.id = static_cast<std::uint32_t>(_byId.size());
        _byId.push_back(&e);
        if (!e.isSwitch)
            e.endpoint = endpoints++;
    }
    for (Element *e : _byId)
        std::sort(e->ports.begin(), e->ports.end(),
                  [](const Port &x, const Port &y) {
                      return x.to->id < y.to->id;
                  });

    // One BFS per destination over the undirected graph gives every
    // element's hop count to it. The next hop is then the lowest-id
    // (first by name) neighbour one hop closer, so every route is a
    // pure function of the topology.
    _nextHop.resize(endpoints);
    std::vector<std::uint32_t> dist(_byId.size());
    std::vector<Element *> order;
    order.reserve(_byId.size());
    for (Element *dst : _byId) {
        if (dst->isSwitch || dst->ports.empty())
            continue;
        std::fill(dist.begin(), dist.end(), kNoRoute);
        dist[dst->id] = 0;
        order.assign(1, dst);
        for (std::size_t head = 0; head < order.size(); ++head) {
            const Element *at = order[head];
            for (const Port &p : at->ports) {
                if (dist[p.to->id] != kNoRoute)
                    continue;
                dist[p.to->id] = dist[at->id] + 1;
                order.push_back(p.to);
            }
        }
        std::vector<std::uint32_t> &next = _nextHop[dst->endpoint];
        next.assign(_byId.size(), kNoRoute);
        for (std::size_t k = 1; k < order.size(); ++k) {
            const Element *at = order[k];
            std::uint32_t port = 0;
            while (dist[at->ports[port].to->id] + 1 != dist[at->id])
                ++port;
            next[at->id] = port;
        }
    }
}

void
Fabric::partition(sim::par::ParallelEngine &engine)
{
    // Key order makes channel indices (and the engine's merge
    // tiebreak) independent of connect() order.
    for (auto &[key, l] : _links) {
        sim::par::LogicalProcess *src = l.src->home;
        sim::par::LogicalProcess *dst = l.dst->home;
        if (src == nullptr || dst == nullptr || src == dst)
            continue;
        l.link->bindChannel(&engine.connect(
            *src, *dst, l.link->params().latency, _name + "." + key));
    }
}

std::pair<Fabric::Element *, Fabric::Element *>
Fabric::routeEnds(const std::string &src, const std::string &dst) const
{
    if (!_finalized)
        return {};
    auto s = _elements.find(src);
    auto d = _elements.find(dst);
    if (s == _elements.end() || d == _elements.end() ||
        s->second.isSwitch || d->second.isSwitch)
        return {};
    const std::vector<std::uint32_t> &next =
        _nextHop[d->second.endpoint];
    if (next.empty() || next[s->second.id] == kNoRoute)
        return {};
    return {_byId[s->second.id], _byId[d->second.id]};
}

bool
Fabric::reachable(const std::string &src,
                  const std::string &dst) const
{
    return routeEnds(src, dst).first != nullptr;
}

std::size_t
Fabric::hopCount(const std::string &src, const std::string &dst) const
{
    auto [at, to] = routeEnds(src, dst);
    if (at == nullptr)
        return 0;
    const std::vector<std::uint32_t> &next = _nextHop[to->endpoint];
    std::size_t hops = 0;
    for (; at != to; at = at->ports[next[at->id]].to)
        ++hops;
    return hops;
}

void
Fabric::send(const std::string &src, const std::string &dst,
             std::uint64_t bytes, sim::EventQueue::Callback delivered)
{
    auto [from, to] = routeEnds(src, dst);
    TF_ASSERT(from != nullptr, "%s: no route %s -> %s", _name.c_str(),
              src.c_str(), dst.c_str());
    step(std::make_unique<Msg>(Msg{_nextHop[to->endpoint].data(), to,
                                   bytes, std::move(delivered)}),
         from);
}

void
Fabric::step(std::unique_ptr<Msg> msg, Element *at)
{
    if (at == msg->dst) {
        auto cb = std::move(msg->delivered);
        cb();
        return;
    }
    const Port &port = at->ports[msg->next[at->id]];
    sim::Tick crossing = 0;
    if (at->isSwitch) {
        crossing = at->sw.crossingLatency;
        at->relayed.inc();
        at->relayedBytes.inc(msg->bytes);
    }
    std::uint64_t bytes = msg->bytes;
    port.link->send(bytes, crossing,
                    [this, msg = std::move(msg), to = port.to]() mutable {
                        step(std::move(msg), to);
                    });
}

std::uint64_t
Fabric::relayedMessages() const
{
    std::uint64_t total = 0;
    for (const auto &kv : _elements)
        if (kv.second.isSwitch)
            total += kv.second.relayed.value();
    return total;
}

double
Fabric::maxQueueDelayNs() const
{
    double worst = 0.0;
    for (const auto &kv : _links)
        worst = std::max(worst, kv.second.link->queueDelayNs().max());
    return worst;
}

std::uint64_t
Fabric::maxQueueHighWater() const
{
    std::uint64_t worst = 0;
    for (const auto &kv : _links)
        worst = std::max(worst, kv.second.link->queueHighWater());
    return worst;
}

void
Fabric::forEachLink(
    const std::function<void(const std::string &, FabricLink &,
                             sim::par::LogicalProcess *)> &fn)
{
    for (auto &[key, l] : _links)
        fn(key, *l.link, l.src->home);
}

void
Fabric::registerStats(sim::StatsRegistry &reg,
                      const std::string &prefix)
{
    for (auto &[key, l] : _links)
        l.link->attachStats(reg.at(prefix + "." + key));
    for (auto &kv : _elements) {
        if (!kv.second.isSwitch)
            continue;
        sim::StatSet &set = reg.at(prefix + ".sw." + kv.first);
        set.attach("relayedMsgs", kv.second.relayed, "msgs",
                   "messages forwarded through this switch");
        set.attach("relayedBytes", kv.second.relayedBytes, "bytes");
    }
}

void
Fabric::registerFaultPoints(
    const std::string &prefix,
    const std::function<sim::fault::Registry *(
        const sim::par::LogicalProcess *)> &registryOf)
{
    using sim::fault::Event;
    using sim::fault::Kind;
    using sim::fault::kindBit;
    for (auto &[key, link] : _links) {
        FabricLink *l = link.link.get();
        registryOf(link.src->home)
            ->add(prefix + "." + key, kindBit(Kind::LatencySpike),
                  [l](const Event &ev) {
                      l->spike(ev.extraLatency, ev.duration);
                  });
    }
}

} // namespace tf::net
