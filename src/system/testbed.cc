#include "system/testbed.hh"

namespace tf::sys {

namespace {
constexpr mem::Addr kWindowBase = 0x2000000000ULL;
} // namespace

const char *
setupName(Setup s)
{
    switch (s) {
      case Setup::Local:
        return "local";
      case Setup::SingleDisaggregated:
        return "single-disaggregated";
      case Setup::BondingDisaggregated:
        return "bonding-disaggregated";
      case Setup::Interleaved:
        return "interleaved";
      case Setup::ScaleOut:
        return "scale-out";
    }
    return "?";
}

Testbed::Testbed(sim::EventQueue &eq, TestbedParams params)
    : _eq(eq), _params(params), _rng(params.seed),
      _network("net", eq)
{
    _serverA = std::make_unique<Node>("serverA", eq, _params.node);
    _serverB = std::make_unique<Node>("serverB", eq, _params.node);
    NodeParams client_params = _params.node;
    client_params.bootSections = 8;
    _client = std::make_unique<Node>("client", eq, client_params);

    _cpuA = std::make_unique<CpuSet>("cpuA", eq,
                                     _params.node.hwThreads);
    _cpuB = std::make_unique<CpuSet>("cpuB", eq,
                                     _params.node.hwThreads);

    for (const char *endpoint : {"client", "serverA", "serverB"})
        _network.addEndpoint(endpoint);
    _network.connect("client", "serverA", net::FabricLinkParams::tenGig());
    _network.connect("client", "serverB", net::FabricLinkParams::tenGig());
    _network.connect("serverA", "serverB",
                     net::FabricLinkParams::hundredGig());
    _network.finalize();

    switch (_params.setup) {
      case Setup::Local:
      case Setup::ScaleOut:
        break;
      case Setup::SingleDisaggregated:
      case Setup::Interleaved:
        composeDisaggregated(1);
        break;
      case Setup::BondingDisaggregated:
        composeDisaggregated(2);
        break;
    }
}

void
Testbed::composeDisaggregated(int channels)
{
    // Donor memory must exist beyond what the app itself needs on B:
    // give B extra boot sections to donate from.
    std::uint64_t window =
        mem::alignUp(_params.donatedBytes, _params.node.sectionBytes) *
        2;
    _datapath = std::make_unique<flow::Datapath>(
        "tflow", _eq, _params.flow,
        ocapi::M1Window{kWindowBase, window}, _serverB->pasids(),
        _serverB->dram(), _rng, _params.node.sectionBytes);
    _serverA->attachDatapath(*_datapath);

    _cp = std::make_unique<ctrl::ControlPlane>(
        _params.node.agentToken);
    _cp->addUser("admin", ctrl::Role::Admin);
    _cp->registerHost("serverA", _serverA->agent(), _serverA->mm());
    _cp->registerHost("serverB", _serverB->agent(), _serverB->mm());
    _cp->registerDatapath("serverA", "serverB", *_datapath);

    auto id = _cp->allocate("admin", "serverA", "serverB",
                            _params.donatedBytes,
                            _serverA->tflowNode(), channels,
                            _serverB->localNode());
    TF_ASSERT(id.has_value(),
              "testbed failed to compose disaggregated memory");
    _allocationId = *id;

    if (_params.enablePageCache) {
        os::PageCacheParams pcp = _params.pageCache;
        // The cache pages the same units the kernel does.
        pcp.pageBytes = _params.node.pageBytes;
        flow::Datapath *dp = _datapath.get();
        _pageCache = std::make_unique<os::PageCache>(
            "serverA.pagecache", _eq, pcp, _serverA->mm(),
            _serverA->localNode(), _serverA->dram(),
            [dp](mem::TxnPtr txn) { dp->issue(std::move(txn)); });
        _serverA->attachPageCache(*_pageCache);
    }
}

os::AllocPolicy
Testbed::serverPolicy()
{
    switch (_params.setup) {
      case Setup::Local:
      case Setup::ScaleOut:
        return os::AllocPolicy::bind({_serverA->localNode()});
      case Setup::SingleDisaggregated:
      case Setup::BondingDisaggregated:
        return os::AllocPolicy::bind({_serverA->tflowNode()});
      case Setup::Interleaved:
        return os::AllocPolicy::interleave(
            {_serverA->localNode(), _serverA->tflowNode()});
    }
    return os::AllocPolicy::local();
}

void
Testbed::failChannel(std::size_t i)
{
    TF_ASSERT(_datapath != nullptr, "no datapath in this setup");
    _datapath->failChannel(i);
}

void
Testbed::recoverChannel(std::size_t i)
{
    TF_ASSERT(_datapath != nullptr, "no datapath in this setup");
    _datapath->recoverChannel(i);
}

void
Testbed::flapChannel(std::size_t i, sim::Tick downFor)
{
    TF_ASSERT(_datapath != nullptr, "no datapath in this setup");
    _datapath->flapChannel(i, downFor);
}

void
Testbed::registerFaultPoints(sim::fault::Registry &reg)
{
    using sim::fault::Event;
    using sim::fault::Kind;
    using sim::fault::kindBit;
    if (_datapath)
        _datapath->registerFaultPoints(reg, "tflow");
    if (_cp)
        _cp->registerFaultPoints(reg, "ctrl");
    _network.registerFaultPoints(
        "net", [&reg](const sim::par::LogicalProcess *) { return &reg; });
    mem::Dram *donor = &_serverB->dram();
    reg.add("serverB.dram", kindBit(Kind::DramStall),
            [donor](const Event &ev) { donor->stall(ev.duration); });
    if (_pageCache) {
        os::PageCache *pc = _pageCache.get();
        reg.add("cache", kindBit(Kind::CachePoison),
                [pc](const Event &) { pc->poisonCleanPage(); });
    }
}

void
Testbed::registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix)
{
    auto path = [&prefix](const char *leaf) {
        return prefix.empty() ? std::string(leaf)
                              : prefix + "." + leaf;
    };
    if (_datapath)
        _datapath->registerStats(reg, path("tflow"));
    if (_cp)
        _cp->attachStats(reg.at(path("ctrl")));
    _network.registerStats(reg, path("net"));
    _serverB->dram().attachStats(reg.at(path("serverB.dram")));
    if (_pageCache)
        _pageCache->attachStats(reg.at(path("cache")));
}

} // namespace tf::sys
