/**
 * @file
 * Bare datapath rig: the Section V prototype characterisation setup.
 *
 * One donor memory (backing store, DRAM and PASID registry) behind a
 * full Datapath. The 1 GiB M1 window at ocapi::kM1WindowBase is
 * covered by one PASID over the donor range at kDonorBase, so window
 * offset o reaches donor address kDonorBase + o once a section is
 * attached. No host, agent or control plane: the caller maps sections
 * with dp.attach() and issues straight into dp.
 */

#ifndef TF_FLOW_RIG_HH
#define TF_FLOW_RIG_HH

#include <string>

#include "sim/logging.hh"
#include "tflow/datapath.hh"

namespace tf::flow {

struct Rig
{
    static constexpr std::uint64_t kWindowSize = 1ULL << 30;
    static constexpr std::uint64_t kSection = 1ULL << 24;
    static constexpr mem::Addr kDonorBase = 0x100000000ULL;

    /** The datapath is named @p name, the donor DRAM "<name>.dram". */
    Rig(const std::string &name, sim::EventQueue &eq, FlowParams params,
        sim::Rng &rng, mem::DramParams dramParams = {})
        : dram(name + ".dram", eq, dramParams, &store),
          dp(name, eq, params,
             ocapi::M1Window{ocapi::kM1WindowBase, kWindowSize}, pasids,
             dram, rng, kSection)
    {
        ocapi::Pasid pasid = pasids.allocate();
        bool ok = pasids.registerRegion(pasid, kDonorBase, kWindowSize);
        TF_ASSERT(ok, "%s: donor PASID region rejected", name.c_str());
        dp.stealing().setPasid(pasid);
    }

    mem::BackingStore store;
    mem::Dram dram;
    ocapi::PasidRegistry pasids;
    Datapath dp;
};

} // namespace tf::flow

#endif // TF_FLOW_RIG_HH
