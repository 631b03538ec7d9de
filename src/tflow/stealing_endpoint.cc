#include "tflow/stealing_endpoint.hh"

#include "sim/logging.hh"

namespace tf::flow {

StealingEndpoint::StealingEndpoint(std::string name, sim::EventQueue &eq,
                                   const FlowParams &params,
                                   ocapi::C1Master &c1)
    : SimObject(std::move(name), eq), _params(params), _c1(c1),
      _stackDown(this->name() + ".stackDown", eq,
                 {params.fpgaStackLatency, 0}),
      _serdesDown(this->name() + ".serdesDown", eq,
                  {params.serdesLatency, params.hostLinkBps}),
      _serdesUp(this->name() + ".serdesUp", eq,
                {params.serdesLatency, params.hostLinkBps}),
      _stackUp(this->name() + ".stackUp", eq,
               {params.fpgaStackLatency, 0})
{
    _stackDown.setTraceStage(sim::trace::Stage::DonorStackDown);
    _serdesDown.setTraceStage(sim::trace::Stage::DonorSerdesDown);
    _serdesUp.setTraceStage(sim::trace::Stage::DonorSerdesUp);
    _stackUp.setTraceStage(sim::trace::Stage::DonorStackUp);

    _stackDown.connect(
        [this](mem::TxnPtr txn) { _serdesDown.push(std::move(txn)); });
    _serdesDown.connect(
        [this](mem::TxnPtr txn) { master(std::move(txn)); });
    _serdesUp.connect(
        [this](mem::TxnPtr txn) { _stackUp.push(std::move(txn)); });
    _stackUp.connect(
        [this](mem::TxnPtr txn) { sendResponse(std::move(txn)); });
    _c1.connect(
        [this](mem::TxnPtr resp) { _serdesUp.push(std::move(resp)); });
}

void
StealingEndpoint::connectChannels(std::vector<LlcTx *> txs)
{
    TF_ASSERT(!txs.empty(), "stealing endpoint needs >= 1 channel");
    _channelTx = std::move(txs);
}

void
StealingEndpoint::onNetworkRequest(int channel, mem::TxnPtr txn)
{
    TF_ASSERT(mem::isRequest(txn->type),
              "stealing endpoint got a response");
    txn->arrivalChannel = channel;
    _stackDown.push(std::move(txn));
}

void
StealingEndpoint::registerFlow(mem::NetworkId id, ocapi::Pasid pasid)
{
    _flowPasids[id] = pasid;
}

void
StealingEndpoint::unregisterFlow(mem::NetworkId id)
{
    _flowPasids.erase(id);
}

ocapi::Pasid
StealingEndpoint::pasidFor(mem::NetworkId id) const
{
    auto it = _flowPasids.find(id);
    return it == _flowPasids.end() ? _pasid : it->second;
}

void
StealingEndpoint::master(mem::TxnPtr txn)
{
    _served.inc();
    ocapi::Pasid pasid = pasidFor(txn->networkId);
    _c1.master(pasid, std::move(txn));
}

void
StealingEndpoint::resend(int channel, mem::TxnPtr txn)
{
    TF_ASSERT(channel >= 0 &&
                  static_cast<std::size_t>(channel) < _channelTx.size(),
              "resend on unknown channel %d", channel);
    _resent.inc();
    txn->arrivalChannel = channel;
    _channelTx[static_cast<std::size_t>(channel)]->enqueue(std::move(txn));
}

void
StealingEndpoint::sendResponse(mem::TxnPtr txn)
{
    int ch = txn->arrivalChannel;
    TF_ASSERT(ch >= 0 &&
                  static_cast<std::size_t>(ch) < _channelTx.size(),
              "response with no arrival channel");
    _channelTx[static_cast<std::size_t>(ch)]->enqueue(std::move(txn));
}

void
StealingEndpoint::registerStats(sim::StatsRegistry &reg,
                                const std::string &prefix)
{
    sim::StatSet &set = reg.at(prefix);
    set.attach("served", _served, "txns",
               "requests mastered into donor memory");
    set.attach("resent", _resent, "txns",
               "responses salvaged onto a surviving channel");
    _stackDown.attachStats(reg.at(prefix + ".xing.stackDown"));
    _serdesDown.attachStats(reg.at(prefix + ".xing.serdesDown"));
    _serdesUp.attachStats(reg.at(prefix + ".xing.serdesUp"));
    _stackUp.attachStats(reg.at(prefix + ".xing.stackUp"));
}

} // namespace tf::flow
