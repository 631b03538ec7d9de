#include "system/testbed.hh"

namespace tf::sys {

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
    : _params(params), _rng(params.seed),
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

    if (_params.setup == Setup::Local || scaleOut())
        return;
    int channels = _params.setup == Setup::BondingDisaggregated ? 2 : 1;
    _composition = std::make_unique<Composition>(
        "", *_serverA, *_serverB, _params.flow, channels,
        _params.donatedBytes, _rng,
        _params.enablePageCache ? std::optional(_params.pageCache)
                                : std::nullopt);
    TF_ASSERT(_composition->allocationId != 0,
              "testbed failed to compose disaggregated memory");
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
Testbed::registerFaultPoints(sim::fault::Registry &reg)
{
    if (_composition)
        _composition->registerFaultPoints(reg);
    _network.registerFaultPoints(
        "net", [&reg](const sim::par::LogicalProcess *) { return &reg; });
    _serverB->dram().registerFaultPoints(reg, "serverB.dram");
}

void
Testbed::registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix)
{
    auto path = [&prefix](const char *leaf) {
        return prefix.empty() ? std::string(leaf)
                              : prefix + "." + leaf;
    };
    if (_composition)
        _composition->registerStats(reg,
                                    prefix.empty() ? "" : prefix + ".");
    _network.registerStats(reg, path("net"));
    _serverB->dram().attachStats(reg.at(path("serverB.dram")));
}

} // namespace tf::sys
