/**
 * @file
 * Disaggregated memory for one host/donor pair (Section IV-C).
 *
 * The one place a host gets remote memory: a datapath from the host's
 * M1 window to the donor's DRAM, a control plane that knows both hosts
 * and the datapath, the allocation it composes (steal on the donor,
 * reserve the channel paths, configure both endpoints, hotplug into
 * the host's ThymesisFlow NUMA node) and, optionally, a page cache in
 * front of the datapath. sys::Testbed composes with prefix "",
 * topo::Instance with "<host>.".
 */

#ifndef TF_SYS_COMPOSITION_HH
#define TF_SYS_COMPOSITION_HH

#include <memory>
#include <optional>
#include <string>

#include "ctrl/control_plane.hh"
#include "system/node.hh"

namespace tf::sys {

struct Composition
{
    /**
     * Compose @p donatedBytes of @p donor into @p host over @p channels
     * of the datapath "<prefix>tflow". Its M1 window is twice the
     * section-aligned donation (the RMMU's regrow headroom), the
     * donation clamped to the donor's boot memory. A rejected
     * allocation leaves allocationId 0 and builds no page cache.
     */
    Composition(const std::string &prefix, Node &host, Node &donor,
                const flow::FlowParams &flow, int channels,
                std::uint64_t donatedBytes, sim::Rng &rng,
                std::optional<os::PageCacheParams> cacheParams);

    /** "<prefix>tflow[...]", "<prefix>ctrl" and "<prefix>cache". */
    void registerFaultPoints(sim::fault::Registry &reg);
    /** The same three, as stat trees under "<path><prefix>...". */
    void registerStats(sim::StatsRegistry &stats,
                       const std::string &path = "");

    const std::string prefix;
    flow::Datapath datapath;
    ctrl::ControlPlane controlPlane;
    std::uint64_t allocationId = 0;
    std::unique_ptr<os::PageCache> pageCache;
};

} // namespace tf::sys

#endif // TF_SYS_COMPOSITION_HH
