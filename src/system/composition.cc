#include "system/composition.hh"

#include <algorithm>

namespace tf::sys {

namespace {

/**
 * The donation is clamped before sizing: the control plane rejects
 * one larger than the donor's boot memory anyway, and unclamped it
 * could wrap the window to 0 or size an RMMU table the donor could
 * never back.
 */
ocapi::M1Window
windowFor(const Node &host, const Node &donor, std::uint64_t donatedBytes)
{
    const NodeParams &d = donor.params();
    std::uint64_t boot = d.bootSections * d.sectionBytes;
    std::uint64_t section = host.params().sectionBytes;
    std::uint64_t bytes = mem::alignUp(std::min(donatedBytes, boot), section);
    return ocapi::M1Window{ocapi::kM1WindowBase, bytes * 2};
}

} // namespace

Composition::Composition(const std::string &prefix, Node &host,
                         Node &donor, const flow::FlowParams &flow,
                         int channels, std::uint64_t donatedBytes,
                         sim::Rng &rng,
                         std::optional<os::PageCacheParams> cacheParams)
    : prefix(prefix),
      datapath(prefix + "tflow", host.eventQueue(), flow,
               windowFor(host, donor, donatedBytes),
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
