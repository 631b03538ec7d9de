#include "opencapi/crossing.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tf::ocapi {

CrossingStage::CrossingStage(std::string name, sim::EventQueue &eq,
                             CrossingParams params)
    : SimObject(std::move(name), eq), _params(params)
{
}

void
CrossingStage::push(mem::TxnPtr txn)
{
    TF_ASSERT(_out != nullptr, "%s: crossing stage not connected",
              name().c_str());

    std::uint32_t bytes = wireBytes(*txn);
    sim::Tick ser = _serTicks(mem::flitCount(*txn));
    sim::Tick start = std::max(now(), _nextFree);
    _nextFree = start + ser;
    sim::Tick deliver = start + ser + _params.latency;

    _items.inc();
    _bytes.inc(bytes);
    _latencyNs.add(sim::toNs(deliver - now()));
    if (_traceStage != sim::trace::Stage::None &&
        txn->traceId != sim::trace::noTrace) {
        auto &tb = eventQueue().trace();
        tb.begin(now(), txn->traceId, _traceStage);
        tb.end(deliver, txn->traceId, _traceStage);
    }
    after(deliver - now(), [this, txn = std::move(txn)]() mutable {
        _out(std::move(txn));
    });
}

void
CrossingStage::attachStats(sim::StatSet &set)
{
    set.attach("items", _items, "txns");
    set.attach("bytes", _bytes, "bytes");
    set.attach("latencyNs", _latencyNs, "ns",
               "queueing + serialisation + fixed crossing latency");
}

} // namespace tf::ocapi
