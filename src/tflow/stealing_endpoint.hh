/**
 * @file
 * ThymesisFlow memory-stealing endpoint (Section IV-A2).
 *
 * The passive side of the datapath: requests arriving from the network
 * cross the donor's FPGA stack and serDES, and are mastered into donor
 * memory through the OpenCAPI C1 mode under the stealing process's
 * PASID. The endpoint performs no translation and holds no routing
 * state -- responses are sent back on the channel each request arrived
 * on, reusing the network id already in the header.
 */

#ifndef TF_FLOW_STEALING_ENDPOINT_HH
#define TF_FLOW_STEALING_ENDPOINT_HH

#include <unordered_map>
#include <vector>

#include "opencapi/c1_master.hh"
#include "opencapi/crossing.hh"
#include "tflow/llc.hh"

namespace tf::flow {

class StealingEndpoint : public sim::SimObject
{
  public:
    /** Takes over @p c1's output: its responses flow back through here. */
    StealingEndpoint(std::string name, sim::EventQueue &eq,
                     const FlowParams &params, ocapi::C1Master &c1);

    /** Wire the per-channel transmit sides used for responses. */
    void connectChannels(std::vector<LlcTx *> txs);

    /** Set the default PASID of the memory-stealing process. */
    void setPasid(ocapi::Pasid pasid) { _pasid = pasid; }
    ocapi::Pasid pasid() const { return _pasid; }

    /**
     * Register the stealing process serving one active thymesisflow:
     * incoming transactions carry the flow's network id, and the C1
     * master runs under that flow's PASID. Multiple concurrent
     * donations (different stealing processes) thus coexist.
     */
    void registerFlow(mem::NetworkId id, ocapi::Pasid pasid);
    void unregisterFlow(mem::NetworkId id);
    ocapi::Pasid pasidFor(mem::NetworkId id) const;

    /**
     * Request arrival from channel @p channel's LlcRx.
     * Records the arrival channel so the response retraces it.
     */
    void onNetworkRequest(int channel, mem::TxnPtr txn);

    /**
     * Requeue a response salvaged from a dead channel's LLC onto a
     * surviving channel. Overrides the recorded arrival channel: the
     * original one can no longer carry the response home.
     */
    void resend(int channel, mem::TxnPtr txn);

    std::uint64_t served() const { return _served.value(); }
    std::uint64_t resent() const { return _resent.value(); }

    /**
     * Register this endpoint's stats under @p prefix: its own set at
     * @p prefix and the donor-side crossing stages at
     * "<prefix>.xing.*".
     */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix);

  private:
    const FlowParams &_params;
    ocapi::C1Master &_c1;
    ocapi::Pasid _pasid = ocapi::invalidPasid;
    std::unordered_map<mem::NetworkId, ocapi::Pasid> _flowPasids;

    // Donor-side pipeline stages.
    ocapi::CrossingStage _stackDown;
    ocapi::CrossingStage _serdesDown;
    ocapi::CrossingStage _serdesUp;
    ocapi::CrossingStage _stackUp;

    std::vector<LlcTx *> _channelTx;
    sim::Counter _served;
    sim::Counter _resent;

    void master(mem::TxnPtr txn);
    void sendResponse(mem::TxnPtr txn);
};

} // namespace tf::flow

#endif // TF_FLOW_STEALING_ENDPOINT_HH
