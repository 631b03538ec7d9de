#include "sim/parallel/engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tf::sim::par {

LogicalProcess &
ParallelEngine::addLp(std::string name)
{
    auto id = static_cast<LpId>(_lps.size());
    _lps.push_back(
        std::make_unique<LogicalProcess>(id, std::move(name)));
    _inbound.emplace_back();
    // Dumps (flight recorder, SLO breach) label the buffer's node.
    trace::TraceBuffer &tb = _lps.back()->queue().trace();
    tb.setName(_lps.back()->name());
    // Every LP runs on this thread, so all record into LP 0's flight
    // ring (which asserts fewer than 65,536 LPs).
    if (id > 0)
        tb.shareRing(_lps[0]->queue().trace());
    return *_lps.back();
}

LinkChannel &
ParallelEngine::connect(LogicalProcess &src, LogicalProcess &dst,
                        Tick minLatency, std::string name)
{
    auto index = static_cast<std::uint32_t>(_channels.size());
    if (name.empty())
        name = src.name() + "->" + dst.name();
    _channels.push_back(std::unique_ptr<LinkChannel>(new LinkChannel(
        std::move(name), src, dst, minLatency, index)));
    _inbound.at(dst.id()).push_back(_channels.back().get());
    return *_channels.back();
}

Tick
ParallelEngine::lookahead() const
{
    Tick la = maxTick;
    for (const auto &ch : _channels)
        la = std::min(la, ch->minLatency());
    return la;
}

std::uint64_t
ParallelEngine::executed() const
{
    std::uint64_t total = 0;
    for (const auto &lp : _lps)
        total += lp->queue().executed();
    return total;
}

Tick
ParallelEngine::minNextEventTick()
{
    Tick floor = maxTick;
    for (auto &lp : _lps)
        floor = std::min(floor, lp->queue().nextEventTick());
    return floor;
}

Tick
ParallelEngine::windowRunTo(Tick floor, Tick la, Tick limit) const
{
    // No channels (la == maxTick) or a window reaching past the
    // horizon: one window covers the whole remaining run.
    if (la == maxTick || floor > maxTick - la)
        return limit;
    // Window [floor, floor + la): inclusive upper bound for run().
    return std::min(limit, floor + la - 1);
}

void
ParallelEngine::mergeChannels()
{
    for (auto &lp : _lps) {
        auto &inbound = _inbound[lp->id()];
        _mergeScratch.clear();
        for (LinkChannel *ch : inbound) {
            for (auto &msg : ch->_outbox)
                _mergeScratch.push_back(MergeItem{
                    msg.when, ch->src(), ch->_index, msg.seq, &msg});
        }
        if (_mergeScratch.empty())
            continue;
        // Deterministic total order on deliveries: the order in
        // which the window ran its LPs never decides where a message
        // lands in the destination's event sequence.
        std::sort(_mergeScratch.begin(), _mergeScratch.end(),
                  [](const MergeItem &a, const MergeItem &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.src != b.src)
                          return a.src < b.src;
                      if (a.chan != b.chan)
                          return a.chan < b.chan;
                      return a.seq < b.seq;
                  });
        for (auto &item : _mergeScratch) {
            lp->queue().schedule(item.when, std::move(item.msg->cb));
            lp->_merged.inc();
            _mergedTotal.inc();
        }
        for (LinkChannel *ch : inbound) {
            ch->_delivered.inc(ch->_outbox.size());
            ch->_outbox.clear();
        }
        if (lp->_wakeHook)
            lp->_wakeHook();
    }
}

std::uint64_t
ParallelEngine::run(Tick limit)
{
    TF_ASSERT(!_lps.empty(), "engine has no logical processes");
    const std::uint64_t start = executed();
    const Tick la = lookahead();
    mergeChannels(); // traffic deposited before the run began
    while (true) {
        Tick floor = minNextEventTick();
        if (floor == maxTick || floor > limit)
            break;
        Tick runTo = windowRunTo(floor, la, limit);
        for (auto &lp : _lps)
            if (lp->queue().run(runTo) > 0)
                lp->_activeWindows.inc();
        mergeChannels();
        _windows.inc();
    }
    // Match EventQueue::run semantics: a finite limit leaves every
    // clock at the limit even when a queue drained early.
    if (limit != maxTick)
        for (auto &lp : _lps)
            lp->queue().run(limit);
    return executed() - start;
}

void
ParallelEngine::attachStats(StatsRegistry &reg,
                            const std::string &prefix)
{
    StatSet &top = reg.at(prefix);
    top.attach("windows", _windows, "windows",
               "conservative synchronization windows");
    top.attach("merged", _mergedTotal, "msgs",
               "cross-LP messages merged at window barriers");
    top.record("lps", static_cast<double>(_lps.size()), "lps");
    if (!_channels.empty())
        top.record("lookaheadNs", toNs(lookahead()), "ns",
                   "min cross-LP link latency");
    for (auto &lp : _lps) {
        StatSet &set =
            reg.at(prefix + ".lp" + std::to_string(lp->id()));
        lp->queue().attachStats(set);
        set.attach("activeWindows", lp->_activeWindows, "windows",
                   "windows in which this LP executed events");
        set.attach("merged", lp->_merged, "msgs",
                   "messages merged into this LP");
    }
    for (auto &ch : _channels)
        ch->attachStats(
            reg.at(prefix + ".chan" + std::to_string(ch->_index)));
}

} // namespace tf::sim::par
