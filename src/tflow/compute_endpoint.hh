/**
 * @file
 * ThymesisFlow compute endpoint (Section IV-A1).
 *
 * The compute endpoint introduces remote memory into the host's real
 * address space: the firmware assigns it an M1-mode window, and every
 * cacheline transaction landing in the window crosses the host serDES
 * and the FPGA stack, is translated by the RMMU into a donor effective
 * address plus network id, and is forwarded by the routing layer onto
 * one of the network channels. Responses retrace the FPGA stack and
 * complete the host transaction.
 *
 * The endpoint supports a bounded number of outstanding transactions
 * (OpenCAPI tags); excess requests queue at the host interface. Each
 * admitted request holds one slot of the tag table, and its response
 * completes the host transaction only if that slot still holds the
 * very same object: anything else is a duplicate.
 */

#ifndef TF_FLOW_COMPUTE_ENDPOINT_HH
#define TF_FLOW_COMPUTE_ENDPOINT_HH

#include <deque>
#include <vector>

#include "opencapi/crossing.hh"
#include "opencapi/m1_window.hh"
#include "sim/stats.hh"
#include "tflow/llc.hh"
#include "tflow/rmmu.hh"
#include "tflow/routing.hh"

namespace tf::flow {

class ComputeEndpoint : public sim::SimObject
{
  public:
    ComputeEndpoint(std::string name, sim::EventQueue &eq,
                    const FlowParams &params, ocapi::M1Window window,
                    SectionTable sections);

    /** Wire the per-channel transmit sides (one LlcTx per channel). */
    void connectChannels(std::vector<LlcTx *> txs);

    /**
     * Host-bus entry point: a cacheline load/store whose real address
     * falls inside the M1 window. The transaction's onComplete fires
     * when the response returns (or immediately on an RMMU fault,
     * with error set).
     */
    void issue(mem::TxnPtr txn);

    /** Response arrival from a channel's LlcRx (any channel). */
    void onNetworkResponse(mem::TxnPtr txn);

    /**
     * Re-route a request salvaged from a dead channel's LLC. The
     * transaction is already translated, so it re-enters at the
     * routing layer; if no surviving channel can carry it the request
     * fails fast with an error response. Failover is at-least-once:
     * if the original delivery actually succeeded (only its ack died
     * with the link), the duplicate response is suppressed in
     * finish().
     */
    void reroute(mem::TxnPtr txn);

    /**
     * Error-complete every outstanding transaction of a flow whose
     * last channel died, so the host never hangs on a response that
     * can no longer arrive. Also drains the tag wait queue.
     * @return number of transactions aborted.
     */
    std::size_t abortOutstanding(mem::NetworkId id);

    Rmmu &rmmu() { return _rmmu; }
    RoutingLayer &routing() { return _routing; }
    const ocapi::M1Window &window() const { return _window; }

    std::size_t outstanding() const
    {
        return _tags.size() - _freeTags.size();
    }
    std::size_t queued() const { return _waitQueue.size(); }

    std::uint64_t issued() const { return _issued.value(); }
    std::uint64_t completed() const { return _completed.value(); }
    std::uint64_t rmmuFaults() const { return _rmmu.faults(); }
    std::uint64_t tagStalls() const { return _tagStalls.value(); }
    std::uint64_t duplicateResponses() const { return _dupResponses.value(); }
    std::uint64_t reroutedRequests() const { return _rerouted.value(); }
    std::uint64_t abortedTxns() const { return _aborted.value(); }
    /** Requests error-completed by the request deadline. */
    std::uint64_t deadlineExpired() const
    {
        return _deadlineExpired.value();
    }

    /** Round-trip latency distribution (ns) seen at the host bus. */
    const sim::SampleStat &rttNs() const { return _rttNs; }

    /** Issue-to-RMMU-translation latency (host crossings + queueing). */
    const sim::QuantileSketch &xlatNs() const { return _xlatNs; }

    void reportStats(sim::StatSet &out) const;

    /**
     * Register this endpoint's stats under @p prefix: its own set at
     * @p prefix, the RMMU at "<prefix>.rmmu", the routing layer at
     * "<prefix>.routing" and the four host-side crossing stages at
     * "<prefix>.xing.*".
     */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix);

  private:
    const FlowParams &_params;
    ocapi::M1Window _window;
    Rmmu _rmmu;
    RoutingLayer _routing;

    // Host-side pipeline stages (one OpenCAPI FPGA stack instance).
    ocapi::CrossingStage _hostSerdesDown;
    ocapi::CrossingStage _stackDown;
    ocapi::CrossingStage _stackUp;
    ocapi::CrossingStage _hostSerdesUp;

    std::vector<LlcTx *> _channelTx;
    std::deque<mem::TxnPtr> _waitQueue;
    /**
     * Tag table: the in-flight request holding each OpenCAPI tag, or
     * null. The slot keeps the transaction reachable for
     * abortOutstanding() when its response path has died.
     */
    std::vector<mem::TxnPtr> _tags;
    /** Unheld tags, reused last-freed first. */
    std::vector<std::uint32_t> _freeTags;

    sim::Counter _issued;
    sim::Counter _completed;
    sim::Counter _tagStalls;
    sim::Counter _dupResponses;
    sim::Counter _rerouted;
    sim::Counter _aborted;
    sim::Counter _deadlineExpired;
    sim::SampleStat _rttNs;
    sim::QuantileSketch _xlatNs;

    /**
     * Deadline sweeper (params.requestDeadline > 0): one periodic
     * event, armed lazily while work is in flight, that error-
     * completes requests older than the deadline with
     * TxnStatus::TimedOut. Sweeping at deadline/2 granularity bounds
     * the worst-case hang at 1.5x the deadline without the per-
     * transaction timer churn an exact deadline would cost.
     */
    sim::EventQueue::EventId _deadlineSweep =
        sim::EventQueue::invalidEvent;

    void admit(mem::TxnPtr txn);
    /** Free the tags of in-flight requests matching @p doomed, and
     *  return those requests oldest (lowest id) first. */
    template <typename Pred>
    std::vector<mem::TxnPtr> takeOutstanding(Pred doomed);
    void routeAndSend(mem::TxnPtr txn);
    void finish(mem::TxnPtr txn);
    void failFast(mem::TxnPtr txn);
    void armDeadlineSweep();
    void onDeadlineSweep();
    void drainWaitQueue();
};

} // namespace tf::flow

#endif // TF_FLOW_COMPUTE_ENDPOINT_HH
