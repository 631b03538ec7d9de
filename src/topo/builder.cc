#include "topo/builder.hh"

#include <algorithm>
#include <map>
#include <set>

#include "mem/addr.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace tf::topo {

namespace {

/** Same bases the hand-wired rigs use (testbed.cc, rack.cc). */
constexpr mem::Addr kWindowBase = 0x2000000000ULL;
constexpr mem::Addr kLocalBase = 0x10000000ULL;
constexpr mem::Addr kRpcBase = 0x300000000ULL;
/** RPC service-buffer wrap, keeps the backing store bounded. */
constexpr std::uint64_t kRpcSpan = 4ULL << 20;

sim::fault::Kind
kindFromName(const std::string &name)
{
    using sim::fault::Kind;
    for (int i = 0; i < sim::fault::kKindCount; ++i) {
        Kind k = static_cast<Kind>(i);
        if (name == sim::fault::kindName(k))
            return k;
    }
    // Unreachable: parseSpec validated the name already.
    TF_ASSERT(false, "unvalidated fault kind '%s'", name.c_str());
    return Kind::ChannelFail;
}

} // namespace

/** One host (with its claimed donor, if any) or a lone donor. */
struct Instance::Group
{
    const NodeSpec *spec = nullptr;
    sim::par::LogicalProcess *lp = nullptr;
    std::unique_ptr<sim::Rng> rng;
    std::unique_ptr<sys::Node> node;
    std::unique_ptr<sys::Node> donorNode;
    std::unique_ptr<flow::Datapath> datapath;
    std::unique_ptr<ctrl::ControlPlane> cp;
    std::unique_ptr<os::PageCache> cache;
    std::string donorName;
    std::uint64_t donatedBytes = 0;
};

/** One closed-loop traffic stanza, confined to its source LP. */
struct Instance::Runner
{
    const TrafficSpec *ts = nullptr;
    sys::Node *srcNode = nullptr;
    sys::Node *dstNode = nullptr; ///< rpc only
    sim::EventQueue *q = nullptr;
    std::uint64_t target = 0;
    std::uint64_t issued = 0;
    std::uint64_t donated = 0; ///< source host's remote window bytes
    TrafficStats stats;
};

Instance::Instance(const Spec &spec, BuildOptions opt)
    : _spec(spec), _opt(opt)
{
    _engine = std::make_unique<sim::par::ParallelEngine>(
        opt.jobs ? opt.jobs : 1);
    buildGroups();
    buildFabric();
    buildFaults();
    buildTraffic();
    buildTimeline();
}

Instance::~Instance() = default;

Instance::Group *
Instance::group(const std::string &nodeName)
{
    auto it = _groupOf.find(nodeName);
    return it == _groupOf.end() ? nullptr : it->second;
}

sys::Node *
Instance::nodeOf(const std::string &nodeName)
{
    Group *g = group(nodeName);
    if (g == nullptr)
        return nullptr;
    return g->donorName == nodeName ? g->donorNode.get()
                                    : g->node.get();
}

void
Instance::buildGroups()
{
    // Donors claimed by a host fold into the host's group (and LP);
    // everything else gets its own.
    std::map<std::string, const NodeSpec *> byName;
    std::set<std::string> claimed;
    for (const NodeSpec &n : _spec.nodes) {
        byName[n.name] = &n;
        if (!n.donor.empty())
            claimed.insert(n.donor);
    }

    auto nodeParams = [](const NodeSpec &n) {
        sys::NodeParams np;
        np.dram.accessLatency = sim::nanoseconds(n.dram.accessNs);
        np.dram.bandwidthBps = n.dram.gbps * 1e9;
        np.dram.banks = n.dram.banks;
        return np;
    };

    std::size_t index = 0;
    for (const NodeSpec &n : _spec.nodes) {
        if (n.role == "donor" && claimed.count(n.name))
            continue; // built with its host below
        auto g = std::make_unique<Group>();
        g->spec = &n;
        g->lp = &_engine->addLp(n.name);
        sim::EventQueue &eq = g->lp->queue();
        // Distinct stream per group; the offset keeps groups from
        // replaying each other's draws.
        g->rng = std::make_unique<sim::Rng>(_opt.seed +
                                            index * 7919 + 1);
        sys::NodeParams np = nodeParams(n);
        g->node = std::make_unique<sys::Node>(n.name, eq, np);

        if (!n.donor.empty()) {
            const NodeSpec &d = *byName.at(n.donor);
            g->donorName = d.name;
            g->donatedBytes = d.donatedMiB << 20;
            g->donorNode = std::make_unique<sys::Node>(
                d.name, eq, nodeParams(d));

            // Replicates Testbed::composeDisaggregated: window twice
            // the aligned donation so the RMMU has regrow headroom.
            std::uint64_t window =
                mem::alignUp(g->donatedBytes, np.sectionBytes) * 2;
            flow::FlowParams fp;
            fp.channels = static_cast<int>(n.channels);
            if (_opt.cutThrough)
                fp.cutThrough = *_opt.cutThrough;
            g->datapath = std::make_unique<flow::Datapath>(
                n.name + ".tflow", eq, fp,
                ocapi::M1Window{kWindowBase, window},
                g->donorNode->pasids(), g->donorNode->dram(),
                *g->rng, np.sectionBytes);
            g->node->attachDatapath(*g->datapath);

            g->cp = std::make_unique<ctrl::ControlPlane>(
                np.agentToken);
            g->cp->addUser("admin", ctrl::Role::Admin);
            g->cp->registerHost(n.name, g->node->agent(),
                                g->node->mm());
            g->cp->registerHost(d.name, g->donorNode->agent(),
                                g->donorNode->mm());
            g->cp->registerDatapath(n.name, d.name, *g->datapath);
            g->cp->setHoldDown(eq, sim::microseconds(5),
                               sim::microseconds(80));
            auto id = g->cp->allocate(
                "admin", n.name, d.name, g->donatedBytes,
                g->node->tflowNode(),
                static_cast<int>(n.channels),
                g->donorNode->localNode());
            if (!id.has_value())
                throw SpecError(
                    "topology \"" + _spec.name +
                    "\": composing host \"" + n.name +
                    "\" with donor \"" + d.name +
                    "\" failed — allocation rejected (donatedMiB "
                    "larger than the donor's bootable memory?)");

            if (n.cache.enabled) {
                os::PageCacheParams pcp;
                pcp.pageBytes = np.pageBytes;
                pcp.frameBudget = n.cache.frameBudget;
                pcp.lineMlp = n.cache.lineMlp;
                pcp.lowWatermark = n.cache.lowWatermark;
                pcp.highWatermark = n.cache.highWatermark;
                flow::Datapath *dp = g->datapath.get();
                g->cache = std::make_unique<os::PageCache>(
                    n.name + ".pagecache", eq, pcp, g->node->mm(),
                    g->node->localNode(), g->node->dram(),
                    [dp](mem::TxnPtr txn) {
                        dp->issue(std::move(txn));
                    });
                g->node->attachPageCache(*g->cache);
            }
        }
        _groupOf[n.name] = g.get();
        if (!g->donorName.empty())
            _groupOf[g->donorName] = g.get();
        _groups.push_back(std::move(g));
        ++index;
    }
}

void
Instance::buildFabric()
{
    TF_ASSERT(_engine->lpCount() > 0, "topology with no LPs");
    std::map<std::string, sim::par::LogicalProcess *> switchLp;
    for (const SwitchSpec &s : _spec.switches)
        switchLp[s.name] = &_engine->addLp(s.name);

    _fabric = std::make_unique<net::Fabric>(
        "fabric", _engine->lp(0).queue());
    for (const NodeSpec &n : _spec.nodes)
        _fabric->addEndpoint(n.name);
    for (const SwitchSpec &s : _spec.switches) {
        net::SwitchParams sp;
        sp.crossingLatency = sim::nanoseconds(s.crossingNs);
        sp.radix = s.radix;
        _fabric->addSwitch(s.name, sp);
    }
    for (const NodeSpec &n : _spec.nodes)
        _fabric->assign(n.name, *group(n.name)->lp);
    for (const SwitchSpec &s : _spec.switches)
        _fabric->assign(s.name, *switchLp.at(s.name));
    for (const LinkSpec &l : _spec.links) {
        net::FabricLinkParams lp;
        lp.bandwidthBps = l.gbps * 1e9 / 8;
        lp.latency = sim::nanoseconds(l.latencyNs);
        _fabric->connect(l.a, l.b, lp);
    }
    _fabric->finalize();
    _fabric->partition(*_engine);
}

void
Instance::buildFaults()
{
    using sim::fault::Event;
    using sim::fault::Kind;
    using sim::fault::kindBit;

    for (std::size_t i = 0; i < _engine->lpCount(); ++i) {
        _faultRegs.push_back(
            std::make_unique<sim::fault::Registry>());
        _faultEngines.push_back(std::make_unique<sim::fault::Engine>(
            _engine->lp(i).queue(), *_faultRegs.back()));
    }

    for (auto &gp : _groups) {
        Group &g = *gp;
        sim::fault::Registry &reg = *_faultRegs.at(g.lp->id());
        if (g.datapath)
            g.datapath->registerFaultPoints(
                reg, g.spec->name + ".tflow");
        if (g.cp) {
            ctrl::ControlPlane *cp = g.cp.get();
            reg.add(g.spec->name + ".ctrl",
                    kindBit(Kind::ControlOutage),
                    [cp](const Event &ev) {
                        cp->controlOutage(ev.duration);
                    });
        }
        mem::Dram *dram = &g.node->dram();
        reg.add(g.spec->name + ".dram", kindBit(Kind::DramStall),
                [dram](const Event &ev) {
                    dram->stall(ev.duration);
                });
        if (g.donorNode) {
            mem::Dram *dd = &g.donorNode->dram();
            reg.add(g.donorName + ".dram", kindBit(Kind::DramStall),
                    [dd](const Event &ev) { dd->stall(ev.duration); });
        }
        if (g.cache) {
            os::PageCache *pc = g.cache.get();
            reg.add(g.spec->name + ".cache",
                    kindBit(Kind::CachePoison),
                    [pc](const Event &) { pc->poisonCleanPage(); });
        }
    }
    _fabric->registerFaultPoints(
        "fabric", [this](const sim::par::LogicalProcess *home) {
            return _faultRegs.at(home->id()).get();
        });

    // Route each scheduled fault to the one LP owning its point.
    std::vector<sim::fault::Plan> plans(_engine->lpCount());
    for (const FaultSpec &f : _spec.faults) {
        Kind kind = kindFromName(f.kind);
        std::size_t owner = _engine->lpCount();
        for (std::size_t i = 0; i < _faultRegs.size(); ++i)
            if (_faultRegs[i]->has(f.point))
                owner = i;
        if (owner == _engine->lpCount()) {
            std::string known;
            for (const auto &reg : _faultRegs)
                for (const std::string &n : reg->names())
                    known += (known.empty() ? "" : ", ") + n;
            throw SpecError("topology \"" + _spec.name +
                            "\": fault point \"" + f.point +
                            "\" does not exist (known points: " +
                            known + ")");
        }
        if (!_faultRegs[owner]->supports(f.point, kind))
            throw SpecError("topology \"" + _spec.name +
                            "\": fault point \"" + f.point +
                            "\" does not support kind \"" + f.kind +
                            "\"");
        Event ev;
        ev.at = sim::microseconds(f.atUs);
        ev.kind = kind;
        ev.point = f.point;
        ev.duration = sim::microseconds(f.forUs);
        ev.extraLatency = sim::nanoseconds(f.extraNs);
        plans[owner].add(ev);
    }
    for (std::size_t i = 0; i < plans.size(); ++i)
        if (!plans[i].empty())
            _faultEngines[i]->arm(plans[i]);
}

void
Instance::buildTraffic()
{
    for (const TrafficSpec &t : _spec.traffic) {
        auto r = std::make_unique<Runner>();
        r->ts = &t;
        Group *src = group(t.src);
        r->srcNode = src->node.get();
        r->q = &src->lp->queue();
        r->donated = src->donatedBytes;
        if (t.kind == "rpc")
            r->dstNode = nodeOf(t.dst);
        r->target = t.ops;
        if (_opt.smoke)
            r->target = t.smokeOps ? t.smokeOps
                                   : std::max<std::uint64_t>(
                                         1, t.ops / 10);
        r->stats.name = t.name;
        r->stats.target = r->target;
        _runners.push_back(std::move(r));
    }
    for (auto &rp : _runners) {
        Runner *r = rp.get();
        r->q->schedule(sim::microseconds(r->ts->startUs), [this, r]() {
            if (r->ts->kind == "rpc")
                startRpc(*r);
            else
                startMemory(*r);
        });
    }
}

void
Instance::startRpc(Runner &r)
{
    std::uint64_t burst =
        std::min<std::uint64_t>(r.ts->window, r.target);
    for (std::uint64_t i = 0; i < burst; ++i)
        rpcOp(r);
}

void
Instance::startMemory(Runner &r)
{
    std::uint64_t burst =
        std::min<std::uint64_t>(r.ts->window, r.target);
    for (std::uint64_t i = 0; i < burst; ++i)
        memoryOp(r);
}

void
Instance::rpcOp(Runner &r)
{
    // Everything mutable on the Runner is touched only from the
    // source LP: the op index and service address are computed here
    // and captured by value, the destination-side continuation only
    // touches destination-LP state (its DRAM), and the final
    // continuation is delivered back on the source LP.
    std::uint64_t op = r.issued++;
    sim::Tick t0 = r.q->now();
    auto respBytes = static_cast<std::uint32_t>(r.ts->responseBytes);
    mem::Addr addr = kRpcBase + (op * 256) % kRpcSpan;
    sys::Node *dst = r.dstNode;
    Runner *rp = &r;
    _fabric->send(
        r.ts->src, r.ts->dst, r.ts->requestBytes,
        [this, rp, t0, addr, respBytes, dst]() {
            auto txn = mem::makeTxn(mem::TxnType::ReadReq, addr,
                                    respBytes);
            dst->dram().access(
                std::move(txn),
                [this, rp, t0, respBytes](mem::TxnPtr) {
                    _fabric->send(
                        rp->ts->dst, rp->ts->src, respBytes,
                        [this, rp, t0]() {
                            double us =
                                sim::toUs(rp->q->now() - t0);
                            rp->stats.latUs.add(us);
                            rp->stats.latSketch.add(us);
                            rp->stats.completed.inc();
                            rp->stats.lastDone = rp->q->now();
                            if (rp->issued < rp->target)
                                rpcOp(*rp);
                        });
                });
        });
}

void
Instance::memoryOp(Runner &r)
{
    std::uint64_t op = r.issued++;
    sim::Tick t0 = r.q->now();
    bool remote = r.ts->policy == "remote" ||
                  (r.ts->policy == "interleave" && op % 2 == 0);
    auto bytes = static_cast<std::uint32_t>(r.ts->accessBytes);
    mem::Addr addr;
    if (remote) {
        // Stay in the lower half of the donated window: the upper
        // half is the RMMU's regrow headroom.
        std::uint64_t span =
            std::max<std::uint64_t>(r.donated / 2, 4096);
        addr = kWindowBase + (op * 256) % span;
    } else {
        addr = kLocalBase + (op * 256) % (32ULL << 20);
    }
    // A deterministic read-mostly mix: every fourth op writes.
    mem::TxnType type = op % 4 == 3 ? mem::TxnType::WriteReq
                                    : mem::TxnType::ReadReq;
    auto txn = mem::makeTxn(type, addr, bytes);
    Runner *rp = &r;
    txn->onComplete = [this, rp, t0](mem::MemTxn &) {
        double us = sim::toUs(rp->q->now() - t0);
        rp->stats.latUs.add(us);
        rp->stats.latSketch.add(us);
        rp->stats.completed.inc();
        rp->stats.lastDone = rp->q->now();
        if (rp->issued < rp->target)
            memoryOp(*rp);
    };
    r.srcNode->issue(std::move(txn));
}

void
Instance::buildTimeline()
{
    bool enabled = _opt.timelineUs > 0.0 || !_spec.monitors.empty();
    if (!enabled)
        return;
    double widthUs =
        _opt.timelineUs > 0.0 ? _opt.timelineUs : _spec.timelineUs;
    sim::Tick window = sim::microseconds(widthUs);

    for (std::size_t i = 0; i < _engine->lpCount(); ++i) {
        auto rec = std::make_unique<sim::timeline::Recorder>(
            _engine->lp(i).queue(), window);
        if (!_opt.dumpDir.empty())
            rec->setDumpDir(_opt.dumpDir);
        _recorders.push_back(std::move(rec));
    }

    // Traffic probes live on the stanza's source LP: per-window
    // completions plus the windowed latency quantiles (whose series
    // names match the aggregate bench metrics, "<name>.latP99Us").
    for (auto &rp : _runners) {
        Runner *r = rp.get();
        sim::timeline::Recorder &rec =
            *_recorders.at(group(r->ts->src)->lp->id());
        rec.addCounter(r->ts->name + ".ops", r->stats.completed,
                       "ops");
        rec.addSketch(r->ts->name + ".lat", r->stats.latSketch, "Us",
                      "us");
    }

    // Per-port fabric probes, on the LP owning each egress queue:
    // instantaneous depth (gauge), bytes and waiting time (deltas).
    _fabric->forEachLink([this](const std::string &key,
                                net::FabricLink &link,
                                sim::par::LogicalProcess *home) {
        if (home == nullptr)
            return;
        sim::timeline::Recorder &rec = *_recorders.at(home->id());
        net::FabricLink *l = &link;
        sim::EventQueue *q = &home->queue();
        rec.addGauge(
            "fabric." + key + ".queueDepth",
            [l, q]() {
                return static_cast<double>(l->queueDepth(q->now()));
            },
            "msgs");
        rec.addCounter("fabric." + key + ".bytes",
                       link.bytesCounter(), "bytes");
        rec.addCounter("fabric." + key + ".queueOccupancyNs",
                       link.queueOccupancyNs(), "ns");
    });

    // Fault windows annotate the timeline of the LP that fired them.
    for (std::size_t i = 0; i < _faultEngines.size(); ++i) {
        sim::timeline::Recorder *rec = _recorders.at(i).get();
        _faultEngines[i]->setObserver(
            [rec](const sim::fault::Event &ev) {
                rec->noteFault(
                    std::string(sim::fault::kindName(ev.kind)) + ":" +
                        ev.point,
                    ev.at, ev.at + ev.duration);
            });
    }

    // Bind each monitors stanza to the recorder producing its metric;
    // a typo'd metric is a config error with file:line:col, not a
    // TF_ASSERT deep in the watchdog.
    for (const MonitorSpec &m : _spec.monitors) {
        sim::timeline::SloRule rule;
        rule.name = m.name;
        rule.metric = m.metric;
        bool opOk = sim::timeline::parseOp(m.op, rule.op);
        TF_ASSERT(opOk, "unvalidated monitor op '%s'", m.op.c_str());
        rule.threshold = m.threshold;
        rule.forWindows = static_cast<std::uint32_t>(m.forWindows);
        rule.from = sim::microseconds(m.fromUs);
        rule.until = m.untilUs < 0 ? sim::maxTick
                                   : sim::microseconds(m.untilUs);
        rule.dumpFlight = m.dumpFlight;

        sim::timeline::Recorder *owner = nullptr;
        for (auto &rec : _recorders)
            if (rec->hasSeries(m.metric)) {
                owner = rec.get();
                break;
            }
        if (owner == nullptr) {
            std::string known;
            for (const auto &rec : _recorders)
                for (const std::string &n : rec->seriesNames())
                    known += (known.empty() ? "" : ", ") + n;
            throw SpecError(m.where + ": monitor \"" + m.name +
                            "\" references unknown metric \"" +
                            m.metric + "\" (known series: " + known +
                            ")");
        }
        owner->addRule(rule);
    }

    // Wake hooks re-arm a drained sampler when the merge delivers
    // fresh cross-LP work; then arm everyone for tick 0.
    for (std::size_t i = 0; i < _recorders.size(); ++i) {
        sim::timeline::Recorder *rec = _recorders[i].get();
        _engine->lp(i).setWakeHook([rec]() { rec->ensureArmed(); });
        rec->start();
    }
}

void
Instance::harvestTimeline()
{
    if (_recorders.empty() || _harvested)
        return;
    _harvested = true;
    for (auto &rec : _recorders)
        rec->finish();
    // LP-index order keeps the merge deterministic for any --jobs.
    for (auto &rec : _recorders)
        _timeline.adopt(*rec);
}

std::uint64_t
Instance::run()
{
    std::uint64_t events = _engine->run();
    harvestTimeline();
    return events;
}

const Instance::TrafficStats &
Instance::traffic(std::size_t i) const
{
    return _runners.at(i)->stats;
}

std::uint64_t
Instance::faultsFired() const
{
    std::uint64_t total = 0;
    for (const auto &e : _faultEngines)
        total += e->fired();
    return total;
}

sim::Tick
Instance::lastCompletion() const
{
    sim::Tick last = 0;
    for (const auto &r : _runners)
        last = std::max(last, r->stats.lastDone);
    return last;
}

void
Instance::registerStats(sim::StatsRegistry &reg)
{
    for (auto &gp : _groups) {
        Group &g = *gp;
        const std::string &host = g.spec->name;
        if (g.datapath)
            g.datapath->registerStats(reg, host + ".tflow");
        if (g.cp)
            g.cp->attachStats(reg.at(host + ".ctrl"));
        g.node->dram().attachStats(reg.at(host + ".dram"));
        if (g.donorNode)
            g.donorNode->dram().attachStats(
                reg.at(g.donorName + ".dram"));
        if (g.cache)
            g.cache->attachStats(reg.at(host + ".cache"));
    }
    _fabric->registerStats(reg, "fabric");
    for (auto &rp : _runners) {
        sim::StatSet &set = reg.at("traffic." + rp->stats.name);
        set.record("completed",
                   static_cast<double>(rp->stats.completed.value()),
                   "ops");
        set.record("target", static_cast<double>(rp->stats.target),
                   "ops");
    }
    for (const auto &s : _timeline.slo()) {
        sim::StatSet &set = reg.at("slo." + s.name);
        set.record("violations", static_cast<double>(s.violations),
                   "windows");
        set.record("evaluated", static_cast<double>(s.evaluated),
                   "windows");
        set.record("worstValue", s.worstValue, "");
        if (s.firstViolationTick != sim::maxTick)
            set.record("firstViolationUs",
                       sim::toUs(s.firstViolationTick), "us");
    }
    for (std::size_t i = 0; i < _faultEngines.size(); ++i)
        _faultEngines[i]->attachStats(
            reg.at("fault." + _engine->lp(i).name()));
    _engine->attachStats(reg, "sim.par", false);
}

} // namespace tf::topo
