#include "tflow/compute_endpoint.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tf::flow {

namespace {

/**
 * Error-complete an in-flight request at the host. The original
 * object may still be live inside the LLC buffers or the donor
 * pipeline: frames carry the very same object, so flipping it to a
 * response here would corrupt in-flight mastering. A clone takes over
 * the completion instead; whatever happens to the original later is
 * swallowed by the tag check in finish().
 */
void
completeClone(mem::MemTxn &txn, mem::TxnStatus status)
{
    mem::TxnPtr resp = mem::cloneForCompletion(txn);
    if (mem::isRequest(resp->type))
        resp->makeResponse();
    resp->error = true;
    resp->status = status;
    resp->complete();
}

} // namespace

ComputeEndpoint::ComputeEndpoint(std::string name, sim::EventQueue &eq,
                                 const FlowParams &params,
                                 ocapi::M1Window window,
                                 SectionTable sections)
    : SimObject(std::move(name), eq), _params(params), _window(window),
      _rmmu(this->name() + ".rmmu", std::move(sections)),
      _hostSerdesDown(this->name() + ".hostSerdesDown", eq,
                      {params.serdesLatency, params.hostLinkBps}),
      _stackDown(this->name() + ".stackDown", eq,
                 {params.fpgaStackLatency, 0}),
      _stackUp(this->name() + ".stackUp", eq,
               {params.fpgaStackLatency, 0}),
      _hostSerdesUp(this->name() + ".hostSerdesUp", eq,
                    {params.serdesLatency, params.hostLinkBps})
{
    _hostSerdesDown.setTraceStage(sim::trace::Stage::HostSerdesDown);
    _stackDown.setTraceStage(sim::trace::Stage::StackDown);
    _stackUp.setTraceStage(sim::trace::Stage::StackUp);
    _hostSerdesUp.setTraceStage(sim::trace::Stage::HostSerdesUp);

    _hostSerdesDown.connect(
        [this](mem::TxnPtr txn) { _stackDown.push(std::move(txn)); });
    _stackDown.connect(
        [this](mem::TxnPtr txn) { routeAndSend(std::move(txn)); });
    _stackUp.connect(
        [this](mem::TxnPtr txn) { _hostSerdesUp.push(std::move(txn)); });
    _hostSerdesUp.connect(
        [this](mem::TxnPtr txn) { finish(std::move(txn)); });

    _tags.resize(params.maxTags);
    _freeTags.reserve(params.maxTags);
    for (std::uint32_t tag = params.maxTags; tag > 0; --tag)
        _freeTags.push_back(tag - 1);
}

void
ComputeEndpoint::connectChannels(std::vector<LlcTx *> txs)
{
    TF_ASSERT(!txs.empty(), "compute endpoint needs >= 1 channel");
    _channelTx = std::move(txs);
}

void
ComputeEndpoint::issue(mem::TxnPtr txn)
{
    TF_ASSERT(mem::isRequest(txn->type), "issue() takes requests");
    TF_ASSERT(_window.contains(txn->addr, txn->size),
              "address outside the endpoint's M1 window");
    txn->issued = now();
    armDeadlineSweep();
    auto &tb = eventQueue().trace();
    txn->traceId = tb.newTrace();
    tb.begin(now(), txn->traceId, sim::trace::Stage::TagQueue,
             static_cast<std::uint32_t>(_waitQueue.size()));
    if (_freeTags.empty()) {
        _tagStalls.inc();
        _waitQueue.push_back(std::move(txn));
        return;
    }
    admit(std::move(txn));
}

void
ComputeEndpoint::admit(mem::TxnPtr txn)
{
    _issued.inc();
    txn->tag = _freeTags.back();
    _freeTags.pop_back();
    _tags[txn->tag] = txn;
    eventQueue().trace().end(now(), txn->traceId,
                             sim::trace::Stage::TagQueue);
    _hostSerdesDown.push(std::move(txn));
}

void
ComputeEndpoint::routeAndSend(mem::TxnPtr txn)
{
    // Real address -> device-internal address (window starts at 0x0).
    txn->addr = _window.toInternal(txn->addr);
    txn->origAddr = txn->addr;

    auto &tb = eventQueue().trace();
    tb.begin(now(), txn->traceId, sim::trace::Stage::Rmmu);
    bool ok = _rmmu.translate(*txn);
    tb.end(now(), txn->traceId, sim::trace::Stage::Rmmu);
    _xlatNs.add(sim::toNs(now() - txn->issued));
    if (!ok) {
        failFast(std::move(txn));
        return;
    }

    tb.begin(now(), txn->traceId, sim::trace::Stage::Route);
    int ch = _routing.route(*txn);
    tb.end(now(), txn->traceId, sim::trace::Stage::Route);
    if (ch < 0) {
        failFast(std::move(txn));
        return;
    }
    TF_ASSERT(static_cast<std::size_t>(ch) < _channelTx.size(),
              "route to unknown channel %d", ch);
    _channelTx[static_cast<std::size_t>(ch)]->enqueue(std::move(txn));
}

void
ComputeEndpoint::failFast(mem::TxnPtr txn)
{
    txn->makeResponse();
    txn->error = true;
    // Fault responses still cross the stack back to the host.
    _stackUp.push(std::move(txn));
}

void
ComputeEndpoint::onNetworkResponse(mem::TxnPtr txn)
{
    TF_ASSERT(!mem::isRequest(txn->type), "request on response path");
    _stackUp.push(std::move(txn));
}

void
ComputeEndpoint::reroute(mem::TxnPtr txn)
{
    TF_ASSERT(mem::isRequest(txn->type), "reroute() takes requests");
    _rerouted.inc();
    int ch = _routing.route(*txn);
    if (ch < 0) {
        failFast(std::move(txn));
        return;
    }
    TF_ASSERT(static_cast<std::size_t>(ch) < _channelTx.size(),
              "route to unknown channel %d", ch);
    _channelTx[static_cast<std::size_t>(ch)]->enqueue(std::move(txn));
}

template <typename Pred>
std::vector<mem::TxnPtr>
ComputeEndpoint::takeOutstanding(Pred doomed)
{
    std::vector<mem::TxnPtr> out;
    for (std::uint32_t tag = 0; tag < _tags.size(); ++tag) {
        if (_tags[tag] && doomed(*_tags[tag])) {
            out.push_back(std::move(_tags[tag]));
            _freeTags.push_back(tag);
        }
    }
    // Complete oldest-first, so downstream effects (closed-loop
    // reissues) do not depend on which tags the requests held.
    std::sort(out.begin(), out.end(),
              [](const mem::TxnPtr &a, const mem::TxnPtr &b) {
                  return a->id < b->id;
              });
    return out;
}

std::size_t
ComputeEndpoint::abortOutstanding(mem::NetworkId id)
{
    std::vector<mem::TxnPtr> doomed = takeOutstanding(
        [id](const mem::MemTxn &txn) { return txn.networkId == id; });
    for (auto &txn : doomed) {
        _aborted.inc();
        _completed.inc();
        completeClone(*txn, mem::TxnStatus::Error);
    }

    drainWaitQueue();
    return doomed.size();
}

void
ComputeEndpoint::drainWaitQueue()
{
    while (!_waitQueue.empty() && !_freeTags.empty()) {
        mem::TxnPtr next = std::move(_waitQueue.front());
        _waitQueue.pop_front();
        admit(std::move(next));
    }
}

void
ComputeEndpoint::armDeadlineSweep()
{
    if (_params.requestDeadline == 0 ||
        _deadlineSweep != sim::EventQueue::invalidEvent)
        return;
    sim::Tick period = std::max<sim::Tick>(_params.requestDeadline / 2, 1);
    _deadlineSweep = after(period, [this]() { onDeadlineSweep(); });
}

void
ComputeEndpoint::onDeadlineSweep()
{
    _deadlineSweep = sim::EventQueue::invalidEvent;
    const sim::Tick deadline = _params.requestDeadline;

    // Overdue in-flight requests: their response path is dead or
    // crawling. Same clone-completion discipline as abortOutstanding —
    // the original object may still be mastering inside a frame.
    std::vector<mem::TxnPtr> doomed =
        takeOutstanding([this, deadline](const mem::MemTxn &txn) {
            return now() - txn.issued >= deadline;
        });
    for (auto &txn : doomed) {
        _deadlineExpired.inc();
        _completed.inc();
        completeClone(*txn, mem::TxnStatus::TimedOut);
    }

    // Overdue tag-queued requests never entered the pipeline, so they
    // are completed in place (no in-flight aliases to protect).
    for (auto it = _waitQueue.begin(); it != _waitQueue.end();) {
        mem::TxnPtr &txn = *it;
        if (now() - txn->issued >= deadline) {
            eventQueue().trace().end(now(), txn->traceId,
                                     sim::trace::Stage::TagQueue);
            mem::TxnPtr doomedTxn = std::move(txn);
            it = _waitQueue.erase(it);
            doomedTxn->makeResponse();
            doomedTxn->error = true;
            doomedTxn->status = mem::TxnStatus::TimedOut;
            // Not _completed: the request was never admitted, so it
            // never counted as _issued either.
            _deadlineExpired.inc();
            doomedTxn->complete();
        } else {
            ++it;
        }
    }

    drainWaitQueue();
    if (outstanding() != 0 || !_waitQueue.empty())
        armDeadlineSweep();
}

void
ComputeEndpoint::finish(mem::TxnPtr txn)
{
    std::uint32_t tag = txn->tag;
    if (tag >= _tags.size() || _tags[tag] != txn) {
        // Duplicate from at-least-once failover (the original delivery
        // succeeded but its response or ack died with a link), or a
        // late response for a transaction abortOutstanding() or the
        // deadline sweep already error-completed; its tag may already
        // serve a newer request. Either way the host saw exactly one
        // completion; drop the duplicate.
        _dupResponses.inc();
        return;
    }
    _tags[tag].reset();
    _freeTags.push_back(tag);
    _completed.inc();
    _rttNs.add(sim::toNs(now() - txn->issued));
    txn->complete();

    drainWaitQueue();
}

void
ComputeEndpoint::reportStats(sim::StatSet &out) const
{
    out.record("issued", static_cast<double>(_issued.value()), "txns");
    out.record("completed", static_cast<double>(_completed.value()),
               "txns");
    out.record("rmmuFaults", static_cast<double>(_rmmu.faults()));
    out.record("tagStalls", static_cast<double>(_tagStalls.value()));
    out.record("duplicateResponses",
               static_cast<double>(_dupResponses.value()));
    out.record("reroutedRequests", static_cast<double>(_rerouted.value()));
    out.record("abortedTxns", static_cast<double>(_aborted.value()));
    out.record("deadlineExpired",
               static_cast<double>(_deadlineExpired.value()));
    out.record("rttMeanNs", _rttNs.mean(), "ns");
    out.record("rttP99Ns", _rttNs.quantile(0.99), "ns");
}

void
ComputeEndpoint::registerStats(sim::StatsRegistry &reg,
                               const std::string &prefix)
{
    sim::StatSet &set = reg.at(prefix);
    set.attach("issued", _issued, "txns");
    set.attach("completed", _completed, "txns");
    set.attach("tagStalls", _tagStalls, "events",
               "requests queued on OpenCAPI tag exhaustion");
    set.attach("duplicateResponses", _dupResponses, "txns",
               "at-least-once failover duplicates suppressed");
    set.attach("reroutedRequests", _rerouted, "txns");
    set.attach("abortedTxns", _aborted, "txns");
    set.attach("deadlineExpired", _deadlineExpired, "txns",
               "requests error-completed by the request deadline");
    set.attach("rttNs", _rttNs, "ns",
               "host-bus round-trip latency");
    set.attach("xlatNs", _xlatNs, "ns",
               "issue to RMMU translation (host crossings)");
    _rmmu.attachStats(reg.at(prefix + ".rmmu"));
    _routing.attachStats(reg.at(prefix + ".routing"));
    _hostSerdesDown.attachStats(reg.at(prefix + ".xing.serdesDown"));
    _stackDown.attachStats(reg.at(prefix + ".xing.stackDown"));
    _stackUp.attachStats(reg.at(prefix + ".xing.stackUp"));
    _hostSerdesUp.attachStats(reg.at(prefix + ".xing.serdesUp"));
}

} // namespace tf::flow
