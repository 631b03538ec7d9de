/**
 * @file
 * OpenCAPI C1-mode master.
 *
 * In C1 (accelerator) mode the device masters cache-coherent
 * transactions into the virtual address space of the memory-stealing
 * process, without host CPU or DMA involvement (Section IV-A). The
 * paper measures the mode's ceiling at ~16 GiB/s with the 128 B
 * transactions POWER9 emits, and ~20 GiB/s with 256 B bursts that the
 * design cannot use (Section VI-C). We model the mode as a per-
 * transaction overhead plus raw byte rate calibrated to reproduce both
 * figures, in front of the donor node's DRAM.
 */

#ifndef TF_OCAPI_C1_MASTER_HH
#define TF_OCAPI_C1_MASTER_HH

#include <functional>

#include "mem/dram.hh"
#include "opencapi/pasid.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tf::ocapi {

struct C1Params
{
    /**
     * Per-transaction command overhead and raw payload rate. With
     * o = 3 ns and raw = 28.6 GB/s:
     *   128 B: 128/(3n + 128/28.6G) ~= 17 GiB/s  (paper: ~16 GiB/s)
     *   256 B: 256/(3n + 256/28.6G) ~= 21 GiB/s  (paper: ~20 GiB/s)
     */
    sim::Tick perTxnOverhead = sim::nanoseconds(3.5);
    double rawBandwidthBps = 28.6e9;
};

class C1Master : public sim::SimObject
{
  public:
    using OutFn = std::function<void(mem::TxnPtr)>;

    C1Master(std::string name, sim::EventQueue &eq, C1Params params,
             PasidRegistry &pasids, mem::Dram &hostDram);

    /** Connect the consumer of every completed (response) transaction. */
    void connect(OutFn out) { _out = std::move(out); }

    /**
     * Master a transaction into host memory under @p pasid; its
     * response goes to the connected consumer. The transaction's
     * address is a host effective address; it must fall inside a
     * region registered for the pasid, otherwise the access faults
     * (response flagged with no data and the fault counter bumped).
     */
    void master(Pasid pasid, mem::TxnPtr txn);

    std::uint64_t faults() const { return _faults.value(); }
    std::uint64_t transactions() const { return _txns.value(); }

    /** Command-to-completion service latency (incl. DRAM). */
    const sim::QuantileSketch &serviceNs() const { return _serviceNs; }

    /** Attach transaction/fault/byte counters + service latency. */
    void attachStats(sim::StatSet &set);

  private:
    C1Params _params;
    PasidRegistry &_pasids;
    mem::Dram &_dram;
    OutFn _out;
    sim::Tick _nextFree = 0;
    sim::Counter _txns;
    sim::Counter _faults;
    sim::Counter _bytes;
    sim::QuantileSketch _serviceNs;
};

} // namespace tf::ocapi

#endif // TF_OCAPI_C1_MASTER_HH
