#include "tflow/llc.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tf::flow {

// ---------------------------------------------------------------- Wire

Wire::Wire(std::string name, sim::EventQueue &eq, const FlowParams &params,
           sim::Rng &rng)
    : SimObject(std::move(name), eq), _params(params), _rng(rng)
{
}

void
Wire::connect(FrameFn onFrame, CtrlFn onCtrl)
{
    _onFrame = std::move(onFrame);
    _onCtrl = std::move(onCtrl);
}

double
Wire::utilisation() const
{
    if (now() == 0)
        return 0.0;
    return static_cast<double>(_busy) / static_cast<double>(now());
}

void
Wire::fail()
{
    if (_failed)
        return;
    _failed = true;
    // Everything in flight is lost with the link: already-scheduled
    // deliveries carry the old epoch and are dropped on arrival.
    ++_epoch;
    _failEvents.inc();
}

void
Wire::recover()
{
    _failed = false;
    // Retrain leaves no error-model residue: a repaired wire must not
    // resume mid-burst — the outage outlives the disturbance the
    // burst window modelled.
    _burstUntil = 0;
    _burstBad = false;
}

void
Wire::startBurst(const sim::fault::GilbertElliott &ge, sim::Tick duration)
{
    _burstGe = ge;
    _burstUntil = std::max(_burstUntil, now() + duration);
    // A burst starts in the bad state: the fault models an external
    // disturbance already underway, not one waiting for a coin flip.
    _burstBad = true;
    _burstWindows.inc();
}

bool
Wire::burstActive() const
{
    return _burstUntil > now();
}

bool
Wire::frameError()
{
    // Transient burst window first (self-clearing per frame). The RNG
    // is only touched while a model is active, so fault-free runs
    // draw the exact same sequence as before the engine existed.
    if (_burstUntil != 0) {
        if (now() >= _burstUntil) {
            _burstUntil = 0;
            _burstBad = false;
        } else {
            if (_burstBad) {
                if (_rng.chance(_burstGe.pBadGood))
                    _burstBad = false;
            } else if (_rng.chance(_burstGe.pGoodBad)) {
                _burstBad = true;
            }
            double rate =
                _burstBad ? _burstGe.errBad : _burstGe.errGood;
            return rate > 0 && _rng.chance(rate);
        }
    }
    return _params.frameErrorRate > 0 &&
           _rng.chance(_params.frameErrorRate);
}

void
Wire::sendFrame(FramePtr frame)
{
    TF_ASSERT(_onFrame != nullptr, "%s: wire not connected",
              name().c_str());

    // Store-and-forward frames occupy the full fixed frame size
    // (padding included); cut-through frames occupy only their used
    // flits — nop padding never travels. A dead wire still
    // serialises: the transmitter has no carrier detect, so it keeps
    // pacing against _nextFree as usual.
    std::uint32_t flits =
        _params.cutThrough ? frame->usedFlits : _params.frameFlits;
    std::uint32_t bytes = flits * _params.flitBytes;
    sim::Tick ser = _flitTicks(flits);
    sim::Tick start = std::max(now(), _nextFree);
    _nextFree = start + ser;
    _busy += ser;
    _wireBytes.inc(bytes);
    _framesSent.inc();

    if (_failed) {
        _framesLostDown.inc();
        return;
    }

    bool drop = false;
    if (frameError()) {
        if (_rng.chance(0.5)) {
            drop = true;
            _framesDropped.inc();
        } else {
            frame->corrupted = true;
            _framesCorrupted.inc();
        }
    }
    if (drop)
        return;

    // Store-and-forward hands the frame over once the last flit has
    // arrived; cut-through hands it over when the header flit lands
    // and the Rx streams the payload out at line rate from there.
    sim::Tick arrive = _params.cutThrough ? _flitTicks(1) : ser;
    sim::Tick deliver =
        start + arrive + _params.serdesLatency + _params.wireLatency;
    after(deliver - now(),
          [this, epoch = _epoch, frame = std::move(frame)]() mutable {
              if (epoch != _epoch) {
                  _framesLostDown.inc(); // was in flight when the link died
                  return;
              }
              _onFrame(std::move(frame));
          });
}

void
Wire::sendCtrl(ControlMsg msg)
{
    TF_ASSERT(_onCtrl != nullptr, "%s: wire not connected",
              name().c_str());
    if (_failed) {
        _ctrlLostDown.inc();
        return;
    }
    sim::Tick deliver = _params.serdesLatency + _params.wireLatency;
    after(deliver, [this, epoch = _epoch, msg]() {
        if (epoch != _epoch) {
            _ctrlLostDown.inc();
            return;
        }
        _onCtrl(msg);
    });
}

void
Wire::attachStats(sim::StatSet &set)
{
    set.attach("framesSent", _framesSent, "frames");
    set.attach("framesDropped", _framesDropped, "frames",
               "injected random loss");
    set.attach("framesCorrupted", _framesCorrupted, "frames");
    set.attach("framesLostDown", _framesLostDown, "frames",
               "swallowed while hard-failed");
    set.attach("ctrlLostDown", _ctrlLostDown, "msgs");
    set.attach("failEvents", _failEvents, "events");
    set.attach("wireBytes", _wireBytes, "bytes");
    set.attach("burstWindows", _burstWindows, "events",
               "Gilbert-Elliott burst-loss windows opened");
}

// --------------------------------------------------------------- LlcTx

LlcTx::LlcTx(std::string name, sim::EventQueue &eq,
             const FlowParams &params, Wire &wire)
    : SimObject(std::move(name), eq), _params(params), _wire(wire),
      _credits(params.rxQueueFrames)
{
    // With at least one credit, a replay from the buffer's front
    // always sends (it refunds the frames' credits first), and the
    // send arms the ack timer that drives escalation.
    TF_ASSERT(params.rxQueueFrames >= 1, "%s: no Rx queue credits",
              this->name().c_str());
}

void
LlcTx::enqueue(mem::TxnPtr txn)
{
    TF_ASSERT(mem::flitCount(*txn) <= _params.frameFlits,
              "transaction larger than a frame");
    if (_linkDown && _onDeadLetter) {
        // Late arrival on a dead link (e.g. a response that finished
        // mastering after failover): hand it to the owner to salvage.
        _deadLetters.inc();
        _onDeadLetter(std::move(txn));
        return;
    }
    // The channel span covers queueing, framing, the wire, and any
    // go-back-N replay rounds; it closes when the Rx hands the
    // transaction to its sink (delivery is exactly-once: replay
    // overshoot duplicates are discarded by sequence number).
    eventQueue().trace().begin(now(), txn->traceId,
                               mem::isRequest(txn->type)
                                   ? sim::trace::Stage::LlcReq
                                   : sim::trace::Stage::LlcResp,
                               static_cast<std::uint32_t>(_queue.size()));
    _queue.push_back(std::move(txn));
    // Assemble on a deferred kick so same-tick arrivals pack into one
    // frame, matching hardware where the frame fills as flits arrive.
    scheduleKick(now());
}

void
LlcTx::scheduleKick(sim::Tick when)
{
    if (_kickScheduled)
        return;
    _kickScheduled = true;
    after(when - now(), [this]() {
        _kickScheduled = false;
        trySend();
    });
}

FramePtr
LlcTx::assembleFrame()
{
    FramePtr frame = FramePtr::acquire();
    frame->seq = _nextSeq++;
    // Cut-through frames lead with one shared header flit and
    // coalesce the per-transaction headers into its slot table;
    // store-and-forward keeps per-transaction headers and pads the
    // frame to its fixed size with nops.
    std::uint32_t flits = _params.cutThrough ? 1 : 0;
    while (!_queue.empty()) {
        std::uint32_t need = _params.cutThrough
                                 ? coalescedFlitCount(*_queue.front())
                                 : mem::flitCount(*_queue.front());
        if (flits + need > _params.frameFlits)
            break;
        flits += need;
        frame->txns.push_back(std::move(_queue.front()));
        _queue.pop_front();
    }
    TF_ASSERT(!frame->txns.empty(), "assembled an empty frame");
    frame->usedFlits = flits;
    frame->padFlits = _params.cutThrough ? 0 : _params.frameFlits - flits;
    _padFlits.inc(frame->padFlits);
    _txnsSent.inc(frame->txns.size());
    return frame;
}

void
LlcTx::transmit(const FramePtr &frame, bool replay)
{
    TF_ASSERT(_credits > 0, "transmit without credits");
    --_credits;
    _framesSent.inc();
    if (replay) {
        _replays.inc();
        // Retransmissions are fresh copies on the wire: clear the
        // corruption marker from an earlier damaged delivery.
        FramePtr copy = FramePtr::acquire();
        *copy = *frame;
        copy->corrupted = false;
        copy->replayed = true;
        _wire.sendFrame(copy);
    } else {
        _wire.sendFrame(frame);
    }
    armTimer();
}

void
LlcTx::trySend()
{
    if (_linkDown)
        return; // salvage and re-routing are the datapath's job now
    if (_replayPending) {
        // In-order delivery: finish the stalled replay before any new
        // frame, or the Rx would just discard the new one as a gap.
        replayFrom(_replayNext);
        if (_replayPending)
            return; // still out of credits
    }
    while (!_queue.empty()) {
        if (_credits == 0) {
            if (_replayBuf.empty() && _starveUntil <= now()) {
                // Every sent frame is acked yet the credits never came
                // back: their return messages died on a failed wire.
                // Nothing is in flight, so the full window is provably
                // free; resynchronise instead of deadlocking. (Gated
                // off while credits are being starved, or the resync
                // would instantly undo the injected fault.)
                _creditResyncs.inc();
                refundCredits(_params.rxQueueFrames);
            } else {
                _creditStalls.inc();
                return; // a credit return re-kicks via onCtrl
            }
        }
        if (_replayBuf.size() >= _params.replayBufferFrames) {
            return; // an ack re-kicks via onCtrl
        }
        if (_wire.nextFree() > now()) {
            // Wire busy: wait, so the queue keeps filling and later
            // frames pack densely instead of padding early.
            scheduleKick(_wire.nextFree());
            return;
        }
        FramePtr frame = assembleFrame();
        _replayBuf.push_back(frame);
        transmit(frame, false);
    }
}

void
LlcTx::refundCredits(std::uint32_t n)
{
    _credits = std::min(_credits + n, _params.rxQueueFrames);
}

void
LlcTx::onCtrl(const ControlMsg &msg)
{
    if (_linkDown)
        return; // stale control from before the link was declared dead
    std::uint32_t credits = msg.credits;
    if (credits > 0 && _starveUntil > now()) {
        // Credit-starvation fault: the refund is lost. Acks below
        // still process so replay bookkeeping stays coherent; the
        // send window just narrows until resync heals it.
        _starvedCredits.inc(credits);
        credits = 0;
    }
    if (credits > 0)
        refundCredits(credits);

    if (msg.hasAck) {
        bool progress = false;
        while (!_replayBuf.empty() && _replayBuf.front()->seq <= msg.ack) {
            _replayBuf.pop_front();
            progress = true;
        }
        if (progress)
            _consecTimeouts = 0;
        if (_replayBuf.empty()) {
            _replayPending = false;
            disarmTimer();
        } else {
            armTimer();
        }
    }

    if (msg.replayRequest) {
        // A replay request proves the Rx is alive and receiving (gap
        // detection needs a later frame to arrive): not a dead link.
        _consecTimeouts = 0;
        replayFrom(msg.replayFrom);
    } else if (_replayPending && credits > 0) {
        // Resume a replay that stalled on credit exhaustion; without
        // this the stalled frames would sit until the next ack
        // timeout even though credits are available again.
        replayFrom(_replayNext);
    }

    if (!_queue.empty())
        scheduleKick(now());
}

void
LlcTx::replayFrom(FrameSeq seq)
{
    if (_linkDown)
        return;
    // The Rx side discarded every frame from `seq` onwards; refund the
    // credits those transmissions consumed, then retransmit in order.
    std::size_t idx = 0;
    while (idx < _replayBuf.size() && _replayBuf[idx]->seq < seq)
        ++idx;
    std::size_t count = _replayBuf.size() - idx;
    if (count == 0) {
        _replayPending = false;
        return;
    }
    refundCredits(static_cast<std::uint32_t>(count));
    for (; idx < _replayBuf.size(); ++idx) {
        if (_credits == 0) {
            _creditStalls.inc();
            // Remember where to resume once credits are refunded.
            _replayPending = true;
            _replayNext = _replayBuf[idx]->seq;
            return;
        }
        transmit(_replayBuf[idx], true);
    }
    _replayPending = false;
}

void
LlcTx::armTimer()
{
    // Lazy re-arm: the deadline only ever moves forward, so an
    // already-scheduled timer event can stay where it is — when it
    // fires early it re-schedules itself at the current deadline
    // (onTimerFire). This turns the per-ack deschedule+schedule pair
    // into a plain store; the kernel sees at most one timer event per
    // ackTimeout window instead of one per ack.
    _ackDeadline = now() + _params.ackTimeout;
    if (_ackTimer == sim::EventQueue::invalidEvent)
        _ackTimer = after(_params.ackTimeout, [this]() { onTimerFire(); });
}

void
LlcTx::onTimerFire()
{
    _ackTimer = sim::EventQueue::invalidEvent;
    if (_ackDeadline == 0)
        return; // disarmed after this event was already in flight
    if (now() < _ackDeadline) {
        // Ack progress pushed the deadline out since this event was
        // scheduled; chase it.
        _ackTimer = after(_ackDeadline - now(), [this]() { onTimerFire(); });
        return;
    }
    _ackDeadline = 0;
    onAckTimeout();
}

void
LlcTx::disarmTimer()
{
    _ackDeadline = 0;
    if (_ackTimer != sim::EventQueue::invalidEvent) {
        eventQueue().deschedule(_ackTimer);
        _ackTimer = sim::EventQueue::invalidEvent;
    }
}

void
LlcTx::onAckTimeout()
{
    if (_replayBuf.empty() || _linkDown)
        return;
    _timeouts.inc();
    ++_consecTimeouts;
    if (_params.maxReplayRounds > 0 &&
        _consecTimeouts >= _params.maxReplayRounds) {
        declareLinkDown();
        return;
    }
    // Tail loss: nothing after the lost frame arrived to trigger gap
    // detection at the Rx. Assume everything unacked was dropped.
    replayFrom(_replayBuf.front()->seq);
}

void
LlcTx::connectHealth(HealthFn onLinkDown)
{
    _onLinkDown = std::move(onLinkDown);
}

void
LlcTx::connectDeadLetter(DeadLetterFn onDeadLetter)
{
    _onDeadLetter = std::move(onDeadLetter);
}

void
LlcTx::declareLinkDown()
{
    _linkDown = true;
    _linkDowns.inc();
    disarmTimer();
    sim::warn("%s: link declared dead after %u consecutive ack timeouts",
              name().c_str(), _consecTimeouts);
    if (_onLinkDown)
        _onLinkDown();
}

void
LlcTx::starveCredits(sim::Tick duration)
{
    _starveUntil = std::max(_starveUntil, now() + duration);
    _creditStarves.inc();
    after(duration, [this]() {
        if (creditsStarved())
            return; // a later starve extended the window
        // The last refund may have been swallowed with nothing else
        // in flight to re-kick the pipeline; let trySend recover
        // (resync path included) now that refunds flow again.
        if (!_queue.empty() || _replayPending)
            scheduleKick(now());
    });
}

void
LlcTx::forceLinkDown()
{
    if (_linkDown)
        return;
    _linkDown = true;
    _linkDowns.inc();
    disarmTimer();
}

std::vector<mem::TxnPtr>
LlcTx::takeUndelivered()
{
    std::vector<mem::TxnPtr> out;
    for (auto &frame : _replayBuf) {
        for (auto &txn : frame->txns) {
            // Empty slots mark transactions the Rx already consumed
            // (delivery moves the payload out of the shared frame);
            // only genuinely undelivered ones need salvaging.
            if (txn != nullptr)
                out.push_back(std::move(txn));
        }
    }
    _replayBuf.clear();
    for (auto &txn : _queue)
        out.push_back(std::move(txn));
    _queue.clear();
    // Salvaged transactions leave this channel for good: close their
    // channel spans here so traces stay balanced across failover.
    for (auto &txn : out)
        eventQueue().trace().end(now(), txn->traceId,
                                 mem::isRequest(txn->type)
                                     ? sim::trace::Stage::LlcReq
                                     : sim::trace::Stage::LlcResp);
    _replayPending = false;
    disarmTimer();
    return out;
}

void
LlcTx::resetLink()
{
    disarmTimer();
    // Unsalvaged replay-buffer transactions go back to the head of the
    // queue, preserving their original order ahead of queued work.
    for (auto frameIt = _replayBuf.rbegin(); frameIt != _replayBuf.rend();
         ++frameIt)
        for (auto txnIt = (*frameIt)->txns.rbegin();
             txnIt != (*frameIt)->txns.rend(); ++txnIt)
            if (*txnIt != nullptr) // skip already-delivered slots
                _queue.push_front(std::move(*txnIt));
    _replayBuf.clear();
    _nextSeq = 0;
    _credits = _params.rxQueueFrames;
    _linkDown = false;
    _consecTimeouts = 0;
    _replayPending = false;
    if (!_queue.empty())
        scheduleKick(now());
}

void
LlcTx::attachStats(sim::StatSet &set)
{
    set.attach("framesSent", _framesSent, "frames");
    set.attach("txnsSent", _txnsSent, "txns");
    set.attach("padFlits", _padFlits, "flits");
    set.attach("creditStalls", _creditStalls, "events",
               "send blocked on credit exhaustion");
    set.attach("replayedFrames", _replays, "frames",
               "go-back-N retransmissions");
    set.attach("ackTimeouts", _timeouts, "events");
    set.attach("linkDowns", _linkDowns, "events",
               "replay escalation declared the channel dead");
    set.attach("creditResyncs", _creditResyncs, "events");
    set.attach("deadLetters", _deadLetters, "txns",
               "salvaged to the failover path after link-down");
    set.attach("creditStarves", _creditStarves, "events",
               "credit-starvation fault windows opened");
    set.attach("starvedCredits", _starvedCredits, "credits",
               "refunds swallowed by starvation faults");
}

// --------------------------------------------------------------- LlcRx

LlcRx::LlcRx(std::string name, sim::EventQueue &eq,
             const FlowParams &params, Wire &reverseWire)
    : SimObject(std::move(name), eq), _params(params), _reverse(reverseWire)
{
}

void
LlcRx::requestReplay()
{
    if (_replayPendingFor)
        return; // already asked for this _expected value
    _replayPendingFor = true;
    ControlMsg msg;
    msg.replayRequest = true;
    msg.replayFrom = _expected;
    _reverse.sendCtrl(msg);
}

void
LlcRx::returnCredit(bool withAck)
{
    ControlMsg msg;
    msg.credits = 1;
    if (withAck && _expected > 0) {
        msg.hasAck = true;
        msg.ack = _expected - 1;
    }
    _reverse.sendCtrl(msg);
}

void
LlcRx::onFrame(FramePtr frame)
{
    TF_ASSERT(_sink != nullptr, "%s: no sink connected", name().c_str());

    if (frame->corrupted) {
        _corrupted.inc();
        returnCredit(false);
        requestReplay();
        return;
    }

    if (frame->seq < _expected) {
        // Duplicate of an already-delivered frame (replay overshoot).
        _dups.inc();
        returnCredit(true);
        return;
    }

    if (frame->seq > _expected) {
        // Gap: a frame was lost ahead of this one.
        _gaps.inc();
        if (_params.cutThrough && _early.count(frame->seq) == 0 &&
            _early.size() < _params.rxQueueFrames) {
            // Cut-through early release: this frame arrived intact,
            // so its transactions complete now instead of convoying
            // behind the unrelated lost frame. The early set makes
            // the go-back-N re-delivery a suppressed duplicate
            // (exactly-once); it cannot outgrow the credit window.
            _early.insert(frame->seq);
            _earlyReleases.inc();
            deliver(std::move(frame), false);
        } else if (_params.cutThrough && _early.count(frame->seq) != 0) {
            // Replay overshoot of a frame already released early.
            _dups.inc();
            returnCredit(false);
        } else {
            // Store-and-forward (or window exceeded): go-back-N
            // discard.
            returnCredit(false);
        }
        requestReplay();
        return;
    }

    // In-order frame.
    ++_expected;
    _replayPendingFor = false;
    if (!_early.empty() && _early.erase(frame->seq) != 0) {
        // Replay of a frame already released early: the in-order
        // point advances, but delivering again would break
        // exactly-once.
        _dups.inc();
        returnCredit(true);
        return;
    }
    deliver(std::move(frame), true);
}

void
LlcRx::deliver(FramePtr frame, bool withAck)
{
    _delivered.inc();
    _txnsDelivered.inc(frame->txns.size());

    if (!_params.cutThrough) {
        // Store-and-forward: the whole frame has arrived; hand every
        // transaction over now and return the credit once the
        // ingress slot drains.
        for (auto &txn : frame->txns) {
            eventQueue().trace().end(now(), txn->traceId,
                                     mem::isRequest(txn->type)
                                         ? sim::trace::Stage::LlcReq
                                         : sim::trace::Stage::LlcResp);
            _sink(std::move(txn));
        }
        after(_params.rxDrainLatency,
              [this, withAck]() { returnCredit(withAck); });
        return;
    }

    // Cut-through: only the header flit has landed so far; each
    // transaction streams out as its own last flit arrives, and the
    // frame's credit returns after the final flit plus the drain
    // latency. Offsets are measured from the header flit's arrival.
    sim::Tick headerArrived = _flitTicks(1);
    std::uint32_t cum = 1;
    sim::Tick last = 0;
    for (auto &txn : frame->txns) {
        cum += coalescedFlitCount(*txn);
        sim::Tick at = _flitTicks(cum) - headerArrived;
        last = at;
        after(at, [this, txn = std::move(txn)]() mutable {
            eventQueue().trace().end(now(), txn->traceId,
                                     mem::isRequest(txn->type)
                                         ? sim::trace::Stage::LlcReq
                                         : sim::trace::Stage::LlcResp);
            _sink(std::move(txn));
        });
    }
    after(last + _params.rxDrainLatency,
          [this, withAck]() { returnCredit(withAck); });
}

void
LlcRx::resetLink()
{
    _expected = 0;
    _replayPendingFor = false;
    // Early-release state is per sequence space; a retrained link
    // must not suppress fresh seq 0..N as stale duplicates.
    _early.clear();
}

void
LlcRx::attachStats(sim::StatSet &set)
{
    set.attach("framesDelivered", _delivered, "frames");
    set.attach("txnsDelivered", _txnsDelivered, "txns");
    set.attach("duplicates", _dups, "frames");
    set.attach("gaps", _gaps, "events",
               "sequence gaps triggering replay requests");
    set.attach("corrupted", _corrupted, "frames");
    set.attach("earlyReleases", _earlyReleases, "frames",
               "cut-through frames released ahead of a gap");
}

// ---------------------------------------------------------- LlcChannel

LlcChannel::LlcChannel(const std::string &name, sim::EventQueue &eq,
                       const FlowParams &params, sim::Rng &rng)
    : _wireAB(name + ".wireAB", eq, params, rng),
      _wireBA(name + ".wireBA", eq, params, rng),
      _txA(name + ".txA", eq, params, _wireAB),
      _rxB(name + ".rxB", eq, params, _wireBA),
      _txB(name + ".txB", eq, params, _wireBA),
      _rxA(name + ".rxA", eq, params, _wireAB)
{
    _wireAB.connect([this](FramePtr f) { _rxB.onFrame(std::move(f)); },
                    [this](ControlMsg m) { _txB.onCtrl(m); });
    _wireBA.connect([this](FramePtr f) { _rxA.onFrame(std::move(f)); },
                    [this](ControlMsg m) { _txA.onCtrl(m); });
}

void
LlcChannel::fail()
{
    _wireAB.fail();
    _wireBA.fail();
}

void
LlcChannel::recover()
{
    _wireAB.recover();
    _wireBA.recover();
    // Every direction restarts its escalation ladder from zero:
    // timeout rounds accumulated against the dead wire must not
    // leave a flap survivor one benign timeout away from false
    // link-down. (resetLink below also does this for retrained
    // directions; flap-only directions get it here.)
    _txA.clearEscalation();
    _txB.clearEscalation();
    // Retrain only the directions that escalated to link-down: their
    // sequence spaces diverged (salvaged frames will never be replayed).
    // Directions that merely flapped keep continuity, so the replay
    // protocol delivers their backlog exactly once.
    if (_txA.linkDown()) {
        _txA.resetLink();
        _rxB.resetLink();
    }
    if (_txB.linkDown()) {
        _txB.resetLink();
        _rxA.resetLink();
    }
}

} // namespace tf::flow
