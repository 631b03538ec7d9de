/**
 * @file
 * Pipelined latency/bandwidth stages.
 *
 * The prototype's flit round trip costs ~950 ns: four FPGA-stack
 * crossings plus six serDES crossings (Section V). Each crossing is a
 * CrossingStage: fixed latency plus byte serialisation at the stage's
 * rate. Stages are pipelined -- concurrent transactions overlap their
 * latencies and only contend on serialisation -- which is what lets the
 * prototype reach wire-rate bandwidth despite the ~1 us RTT.
 */

#ifndef TF_OCAPI_CROSSING_HH
#define TF_OCAPI_CROSSING_HH

#include <functional>

#include "mem/transaction.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tf::ocapi {

struct CrossingParams
{
    /** Fixed pipeline latency per item. */
    sim::Tick latency = 0;
    /** Serialisation rate in bytes per second (0 = infinite). */
    double bandwidthBps = 0;
};

/** One pipelined crossing (serDES, FPGA-stack hop, wire). */
class CrossingStage : public sim::SimObject
{
  public:
    using OutFn = std::function<void(mem::TxnPtr)>;

    CrossingStage(std::string name, sim::EventQueue &eq,
                  CrossingParams params);

    /** Connect the downstream consumer. */
    void connect(OutFn out) { _out = std::move(out); }

    /** Accept a transaction; delivers downstream after the delay. */
    void push(mem::TxnPtr txn);

    /** Bytes this stage charges for a transaction (header + payload). */
    static constexpr std::uint32_t
    wireBytes(const mem::MemTxn &txn)
    {
        return mem::flitCount(txn) * 32;
    }

    std::uint64_t itemsForwarded() const { return _items.value(); }
    std::uint64_t bytesForwarded() const { return _bytes.value(); }
    const CrossingParams &params() const { return _params; }

    /** Per-item crossing latency (queueing + serialisation + fixed). */
    const sim::QuantileSketch &latencyNs() const { return _latencyNs; }

    /** Attach item/byte counters and the latency sketch. */
    void attachStats(sim::StatSet &set);

    /**
     * Tag the stage for causal tracing: traced transactions open a
     * span named after @p stage on push and close it at the delivery
     * tick. Both edges are recorded at push time.
     */
    void setTraceStage(sim::trace::Stage stage) { _traceStage = stage; }

  private:
    CrossingParams _params;
    OutFn _out;
    sim::trace::Stage _traceStage = sim::trace::Stage::None;
    sim::Tick _nextFree = 0;
    sim::Counter _items;
    sim::Counter _bytes;
    sim::QuantileSketch _latencyNs;
};

} // namespace tf::ocapi

#endif // TF_OCAPI_CROSSING_HH
