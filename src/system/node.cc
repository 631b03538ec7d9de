#include "system/node.hh"

#include <algorithm>

namespace tf::sys {

Node::Node(std::string name, sim::EventQueue &eq, NodeParams params)
    : _name(std::move(name)), _eq(eq), _params(params),
      _cache(params.cache)
{
    _localNode = _topo.addNode(_name + ".local", true);
    // A CPU-less node is pre-created for hotplugged ThymesisFlow
    // memory; its distance reflects the remote access RTT.
    _tflowNode = _topo.addNode(_name + ".tflow0", false);
    // Placeholder until a datapath attaches; attachDatapath derives
    // the real SLIT distance from measured latency estimates.
    _topo.setDistance(_localNode, _tflowNode, 80);

    _mm = std::make_unique<os::MemoryManager>(
        _topo, _params.sectionBytes, _params.pageBytes);
    for (std::uint64_t i = 0; i < _params.bootSections; ++i) {
        bool ok = _mm->onlineSection(_localNode,
                                     i * _params.sectionBytes);
        TF_ASSERT(ok, "boot memory online failed");
    }

    _dram = std::make_unique<mem::Dram>(_name + ".dram", eq,
                                        _params.dram, &_store);
    _agent = std::make_unique<agent::Agent>(
        _name + ".agent", *_mm, _pasids, _params.agentToken);
}

void
Node::attachDatapath(flow::Datapath &dp)
{
    _datapath = &dp;
    // SLIT distance of the hotplugged node, local = 10 convention:
    // scale by the measured latency ratio of one remote cacheline
    // (flit RTT budget + the local controller's banked estimate as a
    // stand-in for the donor's) to one local cacheline. The banked
    // estimatedLatency feeds both sides, so bank backlog at attach
    // time shifts placement policy the way real ACPI SLITs bake in
    // controller load assumptions.
    sim::Tick local = _dram->estimatedLatency(mem::cachelineBytes);
    const flow::FlowParams &fp = dp.params();
    sim::Tick remote = 6 * fp.serdesLatency + 4 * fp.fpgaStackLatency +
                       2 * fp.wireLatency +
                       _dram->estimatedLatency(mem::cachelineBytes);
    int distance = 10;
    if (local > 0)
        distance = static_cast<int>((10 * remote + local / 2) / local);
    _topo.setDistance(_localNode, _tflowNode,
                      std::clamp(distance, 11, 254));
}

void
Node::attachPageCache(os::PageCache &pc)
{
    TF_ASSERT(_datapath != nullptr,
              "attach the datapath before its page cache");
    _pageCache = &pc;
}

void
Node::issue(mem::TxnPtr txn)
{
    TF_ASSERT(mem::isRequest(txn->type), "host bus takes requests");
    if (_datapath != nullptr &&
        _datapath->compute().window().contains(txn->addr, txn->size)) {
        _remoteAccesses.inc();
        // The compute endpoint rewrites txn->addr on the way down, so
        // record the host-real address now: an error completion
        // (dead path, deadline) poisons the backing frame, and the
        // next touch of the page re-faults it off the dead memory.
        txn->hostAddr = txn->addr;
        txn->errorSink = this;
        if (_pageCache != nullptr)
            _pageCache->access(std::move(txn));
        else
            _datapath->issue(std::move(txn));
        return;
    }
    _localAccesses.inc();
    _dram->access(std::move(txn), [](mem::TxnPtr t) { t->complete(); });
}

void
Node::txnFailed(const mem::MemTxn &txn)
{
    _remoteErrors.inc();
    _mm->poisonPage(txn.hostAddr);
}

} // namespace tf::sys
