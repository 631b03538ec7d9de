/**
 * @file
 * Link-Layer Control (LLC) protocol (Section IV-A4).
 *
 * The LLC provides a reliable channel over the raw transceivers:
 *
 *  - Backpressure: a credit-based scheme protects the Rx ingress queue.
 *    Each credit is one empty frame slot; credits are piggybacked on
 *    transaction headers flowing in the reverse direction (modelled as
 *    latency-only control messages).
 *  - Reliability: transactions are grouped into frames. Frames carry
 *    in-order sequence numbers; on a gap or CRC error the Rx side
 *    requests an in-order replay (go-back-N) via special single-flit
 *    in-band messages. The Tx side holds sent frames in a replay
 *    buffer until cumulatively acked.
 *  - Framing modes (FlowParams::cutThrough): store-and-forward frames
 *    are fixed-size, padded with single-flit nop headers, delivered
 *    whole at last-flit arrival and released strictly in order.
 *    Cut-through frames carry only occupied flits behind one shared
 *    header flit, hand over at header arrival with per-transaction
 *    release staggered at flit-arrival times, and may release an
 *    intact frame ahead of a lost older one (exactly once — replay
 *    re-deliveries of early-released frames are suppressed).
 *
 * Simplifications vs real hardware, kept honest by tests:
 *  - Control messages are never lost (they piggyback on a healthy
 *    reverse direction); a Tx-side ack timeout still covers tail loss.
 *  - Credits are conservatively capped at the initial allotment, so
 *    refund races heal instead of accumulating.
 *
 * Hard failures (this file's robustness extension): a Wire can be
 * failed outright -- everything in flight and everything sent later is
 * lost, control messages included. The Tx escalates after
 * FlowParams::maxReplayRounds consecutive ack timeouts with no ack
 * progress: it declares the link dead, stops retrying, and raises a
 * health callback so the datapath can salvage the undelivered
 * transactions and fail over. Recovery retrains the link: both
 * directions restart with a fresh sequence space and a full credit
 * window.
 */

#ifndef TF_FLOW_LLC_HH
#define TF_FLOW_LLC_HH

#include <deque>
#include <functional>
#include <set>
#include <vector>

#include "sim/fault/fault.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "tflow/frame.hh"
#include "tflow/params.hh"

namespace tf::flow {

/**
 * One direction of a network channel's raw wire: 4 bonded GTY
 * transceivers (100 Gb/s), one serDES crossing plus cable propagation,
 * with optional frame loss/corruption injection. Control messages pay
 * latency only (they piggyback on headers).
 */
class Wire : public sim::SimObject
{
  public:
    using FrameFn = std::function<void(FramePtr)>;
    using CtrlFn = std::function<void(ControlMsg)>;

    Wire(std::string name, sim::EventQueue &eq, const FlowParams &params,
         sim::Rng &rng);

    void connect(FrameFn onFrame, CtrlFn onCtrl);

    /**
     * Transmit a frame. Store-and-forward frames occupy the full
     * fixed frame size (padding included) and arrive whole;
     * cut-through frames occupy only their used flits and arrive at
     * header time (the Rx staggers payload hand-off itself).
     */
    void sendFrame(FramePtr frame);

    /** Transmit piggybacked control info (latency only). */
    void sendCtrl(ControlMsg msg);

    /** Time at which the wire can accept the next frame. */
    sim::Tick nextFree() const { return _nextFree; }

    /**
     * Hard fail-down: everything currently in flight is lost, and
     * every subsequent frame or control message is swallowed until
     * recover(). The transmitter keeps serialising blindly (it has no
     * carrier detect); loss is only visible through missing acks.
     */
    void fail();

    /**
     * Bring a failed wire back; does not resync LLC state by itself.
     * Retrain leaves no error-model residue: any transient burst
     * window is cancelled, so a repaired wire never resumes
     * mid-burst (the outage outlives the disturbance it modelled).
     */
    void recover();

    bool failed() const { return _failed; }

    /**
     * Open a transient Gilbert-Elliott burst-loss window: until
     * now + @p duration every frame draws its error from the
     * two-state chain @p ge instead of the steady-state model. The
     * window is self-clearing (checked per frame, no extra events)
     * and extends, never shortens, an active window.
     */
    void startBurst(const sim::fault::GilbertElliott &ge,
                    sim::Tick duration);

    bool burstActive() const;

    std::uint64_t framesSent() const { return _framesSent.value(); }
    std::uint64_t framesDropped() const { return _framesDropped.value(); }
    std::uint64_t framesCorrupted() const { return _framesCorrupted.value(); }
    std::uint64_t framesLostDown() const { return _framesLostDown.value(); }
    std::uint64_t ctrlLostDown() const { return _ctrlLostDown.value(); }
    std::uint64_t failEvents() const { return _failEvents.value(); }
    std::uint64_t burstWindows() const { return _burstWindows.value(); }
    std::uint64_t wireBytes() const { return _wireBytes.value(); }

    /** Wire utilisation over [0, now]: busy fraction. */
    double utilisation() const;

    /** Attach live counters for telemetry export. */
    void attachStats(sim::StatSet &set);

  private:
    const FlowParams &_params;
    sim::Rng &_rng;
    FrameFn _onFrame;
    CtrlFn _onCtrl;
    sim::Tick _nextFree = 0;
    sim::Tick _busy = 0;
    bool _failed = false;
    /** Bumped on fail() so already-scheduled deliveries are dropped. */
    std::uint64_t _epoch = 0;
    /** Transient burst window; 0 = inactive. */
    sim::Tick _burstUntil = 0;
    sim::fault::GilbertElliott _burstGe;
    bool _burstBad = false;
    sim::Counter _framesSent;
    sim::Counter _framesDropped;
    sim::Counter _framesCorrupted;
    sim::Counter _framesLostDown;
    sim::Counter _ctrlLostDown;
    sim::Counter _failEvents;
    sim::Counter _wireBytes;
    sim::Counter _burstWindows;

    /** Per-frame error draw under the active error model. */
    bool frameError();
};

/**
 * LLC transmit side: frame assembly, credit gating, replay buffer.
 */
class LlcTx : public sim::SimObject
{
  public:
    using HealthFn = std::function<void()>;
    using DeadLetterFn = std::function<void(mem::TxnPtr)>;

    LlcTx(std::string name, sim::EventQueue &eq, const FlowParams &params,
          Wire &wire);

    /**
     * Queue a transaction for transmission. On a link already declared
     * dead the transaction goes to the dead-letter handler instead
     * (late arrivals, e.g. responses finishing after failover), or
     * stays queued for a future resetLink() if none is connected.
     */
    void enqueue(mem::TxnPtr txn);

    /** Handler for transactions enqueued after link-down. */
    void connectDeadLetter(DeadLetterFn onDeadLetter);

    /** Deliver reverse-direction control info (credits/acks/replay). */
    void onCtrl(const ControlMsg &msg);

    /** Called once when the Tx declares the channel dead. */
    void connectHealth(HealthFn onLinkDown);

    /**
     * Mark the link dead without raising the health callback. The
     * datapath uses this on the opposite direction of a channel whose
     * failure was detected first on the other side, so a later
     * recover() retrains both directions.
     */
    void forceLinkDown();

    /**
     * Credit-starvation fault: until now + @p duration every credit
     * refund arriving in onCtrl is swallowed (acks still process, so
     * replay bookkeeping stays sane). Swallowed credits narrow the
     * send window; the existing credit-resync path heals it once the
     * window provably drained. Extends an active starvation window.
     */
    void starveCredits(sim::Tick duration);

    bool creditsStarved() const { return _starveUntil > now(); }

    /** True once replay escalation has declared the channel dead. */
    bool linkDown() const { return _linkDown; }

    /**
     * Drain every transaction that was never cumulatively acked
     * (replay buffer, oldest first) plus everything still queued, so
     * the owner can re-route them over surviving channels. Frames the
     * Rx already consumed leave empty slots behind (their payloads
     * moved on delivery) and are skipped — their responses are
     * salvaged on the opposite direction. A frame sent but never
     * consumed reappears here even if it was on the wire when the
     * link died: failover is at-least-once, and the requester
     * suppresses duplicate responses.
     */
    std::vector<mem::TxnPtr> takeUndelivered();

    /**
     * Link retrain after recovery: fresh sequence space, full credit
     * window, escalation state cleared. Unsalvaged replay-buffer
     * transactions go back to the head of the queue.
     */
    void resetLink();

    /**
     * Channel repair notification for directions that merely flapped
     * (no link-down, so no resetLink): zero the consecutive-ack-
     * timeout round counter. Rounds accumulated against the dead
     * wire must not survive the repair, or a healed channel sits one
     * benign timeout away from false link-down escalation.
     */
    void clearEscalation() { _consecTimeouts = 0; }

    std::uint32_t consecTimeouts() const { return _consecTimeouts; }

    std::uint32_t credits() const { return _credits; }
    std::size_t queueDepth() const { return _queue.size(); }
    std::size_t replayBufDepth() const { return _replayBuf.size(); }
    const FramePool &framePool() const { return _framePool; }

    std::uint64_t framesSent() const { return _framesSent.value(); }
    std::uint64_t txnsSent() const { return _txnsSent.value(); }
    std::uint64_t padFlitsSent() const { return _padFlits.value(); }
    std::uint64_t creditStalls() const { return _creditStalls.value(); }
    std::uint64_t replayedFrames() const { return _replays.value(); }
    std::uint64_t timeouts() const { return _timeouts.value(); }
    std::uint64_t linkDownsDeclared() const { return _linkDowns.value(); }
    std::uint64_t creditResyncs() const { return _creditResyncs.value(); }
    std::uint64_t deadLetters() const { return _deadLetters.value(); }
    std::uint64_t creditStarves() const { return _creditStarves.value(); }
    std::uint64_t starvedCredits() const
    {
        return _starvedCredits.value();
    }

    /** Attach live counters for telemetry export. */
    void attachStats(sim::StatSet &set);

  private:
    const FlowParams &_params;
    Wire &_wire;
    std::deque<mem::TxnPtr> _queue;
    std::deque<FramePtr> _replayBuf; // oldest unacked first
    FramePool _framePool;
    std::uint32_t _credits;
    FrameSeq _nextSeq = 0;
    bool _kickScheduled = false;

    // Ack timer, lazy-deadline discipline: re-arming on ack progress
    // just moves _ackDeadline forward instead of cancelling and
    // re-scheduling a kernel event per ack. The scheduled event checks
    // the deadline when it fires and pushes itself out if the deadline
    // moved; only a full ack (or link-down) cancels it outright.
    sim::EventQueue::EventId _ackTimer = sim::EventQueue::invalidEvent;
    sim::Tick _ackDeadline = 0;

    // Replay stalled on credit exhaustion; resumes on the next refund.
    bool _replayPending = false;
    FrameSeq _replayNext = 0;

    // Hard-failure escalation state.
    std::uint32_t _consecTimeouts = 0;
    bool _linkDown = false;
    HealthFn _onLinkDown;
    DeadLetterFn _onDeadLetter;

    /** Credit refunds are swallowed until this tick (0 = healthy). */
    sim::Tick _starveUntil = 0;

    sim::Counter _framesSent;
    sim::Counter _txnsSent;
    sim::Counter _padFlits;
    sim::Counter _creditStalls;
    sim::Counter _replays;
    sim::Counter _timeouts;
    sim::Counter _linkDowns;
    sim::Counter _creditResyncs;
    sim::Counter _deadLetters;
    sim::Counter _creditStarves;
    sim::Counter _starvedCredits;

    void scheduleKick(sim::Tick when);
    void trySend();
    FramePtr assembleFrame();
    void transmit(const FramePtr &frame, bool replay);
    void refundCredits(std::uint32_t n);
    void armTimer();
    void disarmTimer();
    void onTimerFire();
    void onAckTimeout();
    void replayFrom(FrameSeq seq);
    void declareLinkDown();
};

/**
 * LLC receive side: in-order delivery, gap/corruption detection,
 * credit return after ingress-queue drain.
 */
class LlcRx : public sim::SimObject
{
  public:
    using SinkFn = std::function<void(mem::TxnPtr)>;

    LlcRx(std::string name, sim::EventQueue &eq, const FlowParams &params,
          Wire &reverseWire);

    void connectSink(SinkFn sink) { _sink = std::move(sink); }

    /** Frame arrival from the forward wire. */
    void onFrame(FramePtr frame);

    /** Link retrain after recovery: expect a fresh sequence space. */
    void resetLink();

    FrameSeq expectedSeq() const { return _expected; }

    std::uint64_t framesDelivered() const { return _delivered.value(); }
    std::uint64_t txnsDelivered() const { return _txnsDelivered.value(); }
    std::uint64_t duplicates() const { return _dups.value(); }
    std::uint64_t gapsDetected() const { return _gaps.value(); }
    std::uint64_t corruptedSeen() const { return _corrupted.value(); }
    std::uint64_t earlyReleases() const { return _earlyReleases.value(); }

    /** Attach live counters for telemetry export. */
    void attachStats(sim::StatSet &set);

  private:
    const FlowParams &_params;
    Wire &_reverse;
    SinkFn _sink;
    FrameSeq _expected = 0;
    bool _replayPendingFor = false; ///< replay already requested for
                                    ///< the current _expected value
    /**
     * Cut-through early releases: sequence numbers delivered ahead
     * of the in-order point because an older frame was lost. The
     * go-back-N replay will retransmit these; membership here makes
     * the re-delivery a suppressed duplicate (exactly-once). Bounded
     * by the credit window (rxQueueFrames).
     */
    std::set<FrameSeq> _early;
    sim::Counter _delivered;
    sim::Counter _txnsDelivered;
    sim::Counter _dups;
    sim::Counter _gaps;
    sim::Counter _corrupted;
    sim::Counter _earlyReleases;

    void requestReplay();
    void returnCredit(bool withAck);
    void deliver(FramePtr frame, bool withAck);
};

/**
 * A bidirectional network channel: one wire + LLC endpoint pair in each
 * direction. Side A is the compute endpoint side by convention, but the
 * channel itself is symmetric (responses are frames too).
 */
class LlcChannel
{
  public:
    LlcChannel(const std::string &name, sim::EventQueue &eq,
               const FlowParams &params, sim::Rng &rng);

    LlcTx &txA() { return _txA; }
    LlcRx &rxA() { return _rxA; }
    LlcTx &txB() { return _txB; }
    LlcRx &rxB() { return _rxB; }
    Wire &wireAB() { return _wireAB; }
    Wire &wireBA() { return _wireBA; }

    /** Hard-fail both directions (in-flight traffic is lost). */
    void fail();

    /**
     * Repair the channel. Directions whose Tx declared the link dead
     * are retrained (fresh sequence space + credits on both sides);
     * directions that merely flapped keep sequence continuity so the
     * replay protocol delivers exactly once across the outage.
     */
    void recover();

    bool failed() const { return _wireAB.failed() || _wireBA.failed(); }

  private:
    Wire _wireAB;
    Wire _wireBA;
    LlcTx _txA; ///< A -> B data
    LlcRx _rxB; ///< receives A's data at B
    LlcTx _txB; ///< B -> A data
    LlcRx _rxA; ///< receives B's data at A
};

} // namespace tf::flow

#endif // TF_FLOW_LLC_HH
