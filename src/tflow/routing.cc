#include "tflow/routing.hh"

#include "sim/logging.hh"

namespace tf::flow {

void
RoutingLayer::setRoute(mem::NetworkId id, std::vector<int> channels)
{
    TF_ASSERT(id != mem::invalidNetworkId, "invalid network id");
    TF_ASSERT(!channels.empty(), "route needs at least one channel");
    Route route;
    route.channels = std::move(channels);
    _routes[id] = std::move(route);
}

void
RoutingLayer::setWeightedRoute(mem::NetworkId id,
                               std::vector<int> channels,
                               std::vector<std::uint32_t> weights)
{
    TF_ASSERT(id != mem::invalidNetworkId, "invalid network id");
    TF_ASSERT(!channels.empty(), "route needs at least one channel");
    TF_ASSERT(channels.size() == weights.size(),
              "one weight per channel");
    for (std::uint32_t w : weights)
        TF_ASSERT(w > 0, "weights must be positive");
    Route route;
    route.channels = std::move(channels);
    route.weights = std::move(weights);
    route.wrrCredit.assign(route.channels.size(), 0);
    _routes[id] = std::move(route);
}

void
RoutingLayer::markChannelDown(int channel)
{
    TF_ASSERT(channel >= 0, "invalid channel");
    auto idx = static_cast<std::size_t>(channel);
    if (idx >= _channelDown.size())
        _channelDown.resize(idx + 1, false);
    if (_channelDown[idx])
        return;
    _channelDown[idx] = true;
    ++_downGen;
    _failovers.inc();
}

void
RoutingLayer::markChannelUp(int channel)
{
    TF_ASSERT(channel >= 0, "invalid channel");
    auto idx = static_cast<std::size_t>(channel);
    if (idx >= _channelDown.size() || !_channelDown[idx])
        return;
    _channelDown[idx] = false;
    ++_downGen;
}

bool
RoutingLayer::channelDown(int channel) const
{
    auto idx = static_cast<std::size_t>(channel);
    return idx < _channelDown.size() && _channelDown[idx];
}

void
RoutingLayer::refreshAlive(Route &route)
{
    route.aliveIdx.clear();
    for (std::size_t i = 0; i < route.channels.size(); ++i)
        if (!channelDown(route.channels[i]))
            route.aliveIdx.push_back(i);
    // Restart the spreading state: stale WRR credit earned against the
    // old channel set would skew the new distribution.
    route.rr = 0;
    for (auto &credit : route.wrrCredit)
        credit = 0;
    route.seenDownGen = _downGen;
}

int
RoutingLayer::weightedPick(Route &route)
{
    // Smooth weighted round-robin (nginx-style) over the alive subset:
    // add each weight to its credit, pick the highest, subtract total.
    std::int64_t total = 0;
    std::size_t best = route.aliveIdx.front();
    for (std::size_t i : route.aliveIdx) {
        route.wrrCredit[i] += static_cast<std::int64_t>(route.weights[i]);
        total += route.weights[i];
        if (route.wrrCredit[i] > route.wrrCredit[best])
            best = i;
    }
    route.wrrCredit[best] -= total;
    return route.channels[best];
}

void
RoutingLayer::clearRoute(mem::NetworkId id)
{
    _routes.erase(id);
}

void
RoutingLayer::ensureChannels(std::size_t n)
{
    while (_chRouted.size() < n)
        _chRouted.emplace_back();
}

std::uint64_t
RoutingLayer::routedOnChannel(std::size_t channel) const
{
    return channel < _chRouted.size() ? _chRouted[channel].value() : 0;
}

void
RoutingLayer::noteRouted(int channel)
{
    _routed.inc();
    if (channel < 0)
        return;
    ensureChannels(static_cast<std::size_t>(channel) + 1);
    _chRouted[static_cast<std::size_t>(channel)].inc();
}

void
RoutingLayer::attachStats(sim::StatSet &set)
{
    set.attach("routed", _routed, "txns");
    set.attach("droppedNoRoute", _dropped, "txns",
               "flows with no route installed");
    set.attach("droppedUnroutable", _unroutable, "txns",
               "known flows whose every channel is down");
    set.attach("degradedTxns", _degradedTxns, "txns",
               "routed while the flow was missing >=1 channel");
    set.attach("failoverEvents", _failovers, "events");
    for (std::size_t i = 0; i < _chRouted.size(); ++i)
        set.attach("routed.ch" + std::to_string(i), _chRouted[i],
                   "txns", "per-channel occupancy");
}

int
RoutingLayer::route(const mem::MemTxn &txn)
{
    auto it = _routes.find(txn.networkId);
    if (it == _routes.end()) {
        _dropped.inc();
        return -1;
    }
    Route &r = it->second;
    if (r.seenDownGen != _downGen)
        refreshAlive(r);

    if (r.aliveIdx.empty()) {
        _unroutable.inc();
        return -1;
    }

    bool degraded = r.aliveIdx.size() < r.channels.size();
    if (!txn.bonded || r.channels.size() == 1) {
        // Non-bonded flows are pinned to their first channel; they
        // cannot spread, so a down first channel makes them unroutable
        // until the control plane pushes a repaired route.
        if (channelDown(r.channels.front())) {
            _unroutable.inc();
            return -1;
        }
        noteRouted(r.channels.front());
        return r.channels.front();
    }

    if (degraded)
        _degradedTxns.inc();
    int picked;
    if (!r.weights.empty()) {
        picked = weightedPick(r);
    } else {
        std::size_t idx = r.aliveIdx[r.rr % r.aliveIdx.size()];
        ++r.rr;
        picked = r.channels[idx];
    }
    noteRouted(picked);
    return picked;
}

} // namespace tf::flow
