#include "opencapi/c1_master.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tf::ocapi {

C1Master::C1Master(std::string name, sim::EventQueue &eq, C1Params params,
                   PasidRegistry &pasids, mem::Dram &hostDram)
    : SimObject(std::move(name), eq), _params(params), _pasids(pasids),
      _dram(hostDram)
{
}

void
C1Master::master(Pasid pasid, mem::TxnPtr txn)
{
    TF_ASSERT(mem::isRequest(txn->type), "C1 master got a response");
    TF_ASSERT(_out != nullptr, "%s: C1 master not connected",
              name().c_str());

    eventQueue().trace().begin(now(), txn->traceId,
                               sim::trace::Stage::C1);
    if (!_pasids.authorised(pasid, txn->addr, txn->size)) {
        _faults.inc();
        sim::warn("%s: C1 fault: pasid %u addr %#llx size %u",
                  name().c_str(), pasid,
                  (unsigned long long)txn->addr, txn->size);
        txn->makeResponse();
        txn->data.clear();
        txn->error = true;
        eventQueue().trace().end(now(), txn->traceId,
                                 sim::trace::Stage::C1);
        _out(std::move(txn));
        return;
    }

    _txns.inc();
    _bytes.inc(txn->size);
    // C1 command pipeline: per-txn overhead + payload serialisation.
    double ser_secs =
        static_cast<double>(txn->size) / _params.rawBandwidthBps;
    sim::Tick service = _params.perTxnOverhead + sim::seconds(ser_secs);
    sim::Tick start = std::max(now(), _nextFree);
    _nextFree = start + service;

    sim::Tick accepted = now();
    after(_nextFree - now(),
          [this, txn = std::move(txn), accepted]() mutable {
              _dram.access(std::move(txn),
                           [this, accepted](mem::TxnPtr resp) {
                               _serviceNs.add(
                                   sim::toNs(now() - accepted));
                               eventQueue().trace().end(
                                   now(), resp->traceId,
                                   sim::trace::Stage::C1);
                               _out(std::move(resp));
                           });
          });
}

void
C1Master::attachStats(sim::StatSet &set)
{
    set.attach("txns", _txns, "txns");
    set.attach("faults", _faults, "txns",
               "PASID authorisation failures");
    set.attach("bytes", _bytes, "bytes");
    set.attach("serviceNs", _serviceNs, "ns",
               "C1 command accept to DRAM completion");
}

} // namespace tf::ocapi
