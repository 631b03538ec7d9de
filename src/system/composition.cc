#include "system/composition.hh"

namespace tf::sys {

Composition::Composition(const std::string &prefix, Node &host,
                         Node &donor, const flow::FlowParams &flow,
                         int channels, std::uint64_t donatedBytes,
                         sim::Rng &rng,
                         std::optional<os::PageCacheParams> cacheParams)
    : prefix(prefix),
      datapath(prefix + "tflow", host.eventQueue(), flow,
               ocapi::M1Window{ocapi::kM1WindowBase,
                               mem::alignUp(donatedBytes,
                                            host.params().sectionBytes) *
                                   2},
               donor.pasids(), donor.dram(), rng,
               host.params().sectionBytes),
      controlPlane(host.eventQueue(), host.params().agentToken)
{
    host.attachDatapath(datapath);
    controlPlane.addUser("admin", ctrl::Role::Admin);
    controlPlane.registerHost(host.name(), host.agent(), host.mm());
    controlPlane.registerHost(donor.name(), donor.agent(), donor.mm());
    controlPlane.registerDatapath(host.name(), donor.name(), datapath);
    auto id = controlPlane.allocate("admin", host.name(), donor.name(),
                                    donatedBytes, host.tflowNode(),
                                    channels, donor.localNode());
    if (!id.has_value())
        return;
    allocationId = *id;

    if (cacheParams) {
        // The cache pages the same units the kernel does.
        cacheParams->pageBytes = host.params().pageBytes;
        flow::Datapath *dp = &datapath;
        pageCache = std::make_unique<os::PageCache>(
            host.name() + ".pagecache", host.eventQueue(), *cacheParams,
            host.mm(), host.localNode(), host.dram(),
            [dp](mem::TxnPtr txn) { dp->issue(std::move(txn)); });
        host.attachPageCache(*pageCache);
    }
}

void
Composition::registerFaultPoints(sim::fault::Registry &reg)
{
    datapath.registerFaultPoints(reg, prefix + "tflow");
    controlPlane.registerFaultPoints(reg, prefix + "ctrl");
    if (pageCache)
        pageCache->registerFaultPoints(reg, prefix + "cache");
}

void
Composition::registerStats(sim::StatsRegistry &stats,
                           const std::string &path)
{
    datapath.registerStats(stats, path + prefix + "tflow");
    controlPlane.attachStats(stats.at(path + prefix + "ctrl"));
    if (pageCache)
        pageCache->attachStats(stats.at(path + prefix + "cache"));
}

} // namespace tf::sys
