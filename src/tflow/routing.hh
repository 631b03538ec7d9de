/**
 * @file
 * Routing layer (Section IV-A3).
 *
 * Forwards translated transactions towards remote endpoints based on
 * the network identifier in the transaction header. Any number of
 * endpoints can be connected concurrently; each active thymesisflow
 * (network id) is assigned a set of physical channels, and when the
 * flow is in bonding mode its transactions are spread over the
 * channels round-robin. A channel may be shared by many flows,
 * bonded or not.
 *
 * Failover: physical channels can be masked down. Bonded flows
 * degrade onto the surviving channels (rebalancing their WRR credits
 * so weights stay proportional within the alive subset); flows whose
 * every channel is down are reported unroutable, distinct from flows
 * that were never routed at all.
 */

#ifndef TF_FLOW_ROUTING_HH
#define TF_FLOW_ROUTING_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "mem/transaction.hh"
#include "sim/stats.hh"

namespace tf::flow {

class RoutingLayer
{
  public:
    /**
     * Install or replace the route for a flow.
     * @param channels indices of the physical channels the flow may
     *        use; a bonded flow round-robins over all of them, a
     *        non-bonded flow uses only the first.
     */
    void setRoute(mem::NetworkId id, std::vector<int> channels);

    /**
     * Weighted variant — the "more sophisticated channel sharing"
     * extension of Section IV-A3: a bonded flow spreads transactions
     * across its channels proportionally to @p weights (smooth
     * weighted round-robin), enabling bandwidth allocation / QoS
     * between flows sharing the physical channels.
     * @pre channels.size() == weights.size(), weights > 0.
     */
    void setWeightedRoute(mem::NetworkId id, std::vector<int> channels,
                          std::vector<std::uint32_t> weights);

    /** Remove a flow's route. */
    void clearRoute(mem::NetworkId id);

    /**
     * Mask a physical channel out of every route. Bonded flows fail
     * over to their surviving channels on the next transaction.
     */
    void markChannelDown(int channel);

    /** Clear the mask: flows spread back over the channel. */
    void markChannelUp(int channel);

    /** True if the channel is currently masked down. */
    bool channelDown(int channel) const;

    /**
     * Pick the physical channel for a transaction.
     * @return channel index, or -1 if the flow has no route or every
     *         channel it may use is down.
     */
    int route(const mem::MemTxn &txn);

    std::uint64_t routed() const { return _routed.value(); }
    /** Transactions for flows with no route installed at all. */
    std::uint64_t dropped() const { return _dropped.value(); }
    /** Transactions for known flows whose every channel is down. */
    std::uint64_t unroutableDropped() const { return _unroutable.value(); }
    /** Transactions routed while the flow was missing >=1 channel. */
    std::uint64_t degradedTxns() const { return _degradedTxns.value(); }
    /** Route alive-set rebuilds triggered by channel state changes. */
    std::uint64_t failoverEvents() const { return _failovers.value(); }
    std::size_t flows() const { return _routes.size(); }

    /**
     * Pre-create per-channel occupancy counters for channels
     * [0, n). route() grows the set on demand; calling this up front
     * makes the telemetry schema stable before any traffic flows.
     */
    void ensureChannels(std::size_t n);

    /** Transactions steered onto physical channel @p channel. */
    std::uint64_t routedOnChannel(std::size_t channel) const;

    /** Attach routed/drop-taxonomy/per-channel counters. */
    void attachStats(sim::StatSet &set);

  private:
    struct Route
    {
        std::vector<int> channels;
        std::size_t rr = 0; ///< round-robin cursor for bonded flows
        /** Per-channel weights; empty = plain round-robin. */
        std::vector<std::uint32_t> weights;
        /** Smooth-WRR current credit per channel. */
        std::vector<std::int64_t> wrrCredit;
        /** Indices into channels[] that are currently up. */
        std::vector<std::size_t> aliveIdx;
        /** Channel-mask generation this alive set was built against. */
        std::uint64_t seenDownGen = ~0ull;
    };

    int weightedPick(Route &route);
    void refreshAlive(Route &route);

    std::unordered_map<mem::NetworkId, Route> _routes;
    std::vector<bool> _channelDown;
    /** Bumped on every markChannelDown/Up; lazily invalidates routes. */
    std::uint64_t _downGen = 0;
    sim::Counter _routed;
    sim::Counter _dropped;
    sim::Counter _unroutable;
    sim::Counter _degradedTxns;
    sim::Counter _failovers;
    /** Per-channel occupancy; deque keeps addresses stable so the
     *  counters stay attachable while the set grows. */
    std::deque<sim::Counter> _chRouted;

    void noteRouted(int channel);
};

} // namespace tf::flow

#endif // TF_FLOW_ROUTING_HH
