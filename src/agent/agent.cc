#include "agent/agent.hh"

#include "sim/logging.hh"

namespace tf::agent {

Agent::Agent(std::string name, os::MemoryManager &mm,
             ocapi::PasidRegistry &pasids, std::string token)
    : _name(std::move(name)), _mm(mm), _pasids(pasids),
      _token(std::move(token))
{
}

bool
Agent::authorised(const std::string &token)
{
    if (token == _token)
        return true;
    _rejected.inc();
    sim::warn("%s: rejected command with bad control-plane token",
              _name.c_str());
    return false;
}

std::optional<Donation>
Agent::stealMemory(const std::string &token, std::uint64_t bytes,
                   os::NodeId fromNode)
{
    if (!authorised(token))
        return std::nullopt;

    std::uint64_t section = _mm.sectionBytes();
    // Round up without alignUp, which wraps to 0 within a section of
    // 2^64 and would turn a huge request into a one-section donation.
    std::uint64_t need = bytes / section + (bytes % section != 0);
    if (need == 0)
        need = 1;

    Donation donation;
    donation.id = _nextDonationId++;
    donation.fromNode = fromNode;
    donation.pasid = _pasids.allocate();

    for (std::uint64_t i = 0; i < need; ++i) {
        auto base = _mm.claimWholeSection(fromNode);
        if (!base)
            break;
        donation.chunks.push_back(DonatedChunk{*base, section});
    }
    if (donation.chunks.size() != need) {
        // Not enough fully-free sections: roll back.
        for (const auto &c : donation.chunks)
            _mm.releaseWholeSection(c.base);
        _pasids.release(donation.pasid);
        return std::nullopt;
    }

    // Pin: register each chunk under the stealing process's PASID.
    for (const auto &c : donation.chunks) {
        bool ok = _pasids.registerRegion(donation.pasid, c.base, c.size);
        TF_ASSERT(ok, "PASID registration failed for claimed section");
    }
    return donation;
}

bool
Agent::releaseDonation(const std::string &token,
                       const Donation &donation)
{
    if (!authorised(token))
        return false;
    for (const auto &c : donation.chunks)
        _mm.releaseWholeSection(c.base);
    _pasids.release(donation.pasid);
    return true;
}

std::optional<std::size_t>
Agent::reserveSectionIndex(flow::Datapath &datapath)
{
    auto &used = _sectionsInUse[&datapath];
    std::size_t entries =
        datapath.compute().rmmu().table().entries();
    used.resize(entries, false);
    for (std::size_t i = 0; i < entries; ++i) {
        if (!used[i]) {
            used[i] = true;
            return i;
        }
    }
    return std::nullopt;
}

std::optional<Attachment>
Agent::attachMemory(const std::string &token, flow::Datapath &datapath,
                    const Donation &donation, os::NodeId numaNode,
                    std::vector<int> channels)
{
    if (!authorised(token))
        return std::nullopt;
    TF_ASSERT(datapath.compute().rmmu().table().sectionBytes() ==
                  _mm.sectionBytes(),
              "kernel and RMMU section sizes must match");

    Attachment att;
    att.id = _nextAttachmentId++;
    att.numaNode = numaNode;
    att.networkId = _nextNetworkId++;
    // The stealing endpoint masters this flow's transactions under
    // the donation's PASID.
    datapath.stealing().registerFlow(att.networkId, donation.pasid);

    const mem::Addr window_base = datapath.compute().window().base;
    for (const auto &chunk : donation.chunks) {
        auto idx = reserveSectionIndex(datapath);
        if (!idx) {
            sim::warn("%s: M1 window out of free sections",
                      _name.c_str());
            detachMemory(token, datapath, att);
            return std::nullopt;
        }
        datapath.attach(*idx, chunk.base, att.networkId, channels);
        mem::Addr phys = window_base + *idx * _mm.sectionBytes();
        bool ok = _mm.onlineSection(numaNode, phys);
        TF_ASSERT(ok, "memory hotplug failed for section %zu", *idx);
        att.sectionIndices.push_back(*idx);
        att.hotplugBases.push_back(phys);
    }
    return att;
}

bool
Agent::detachMemory(const std::string &token, flow::Datapath &datapath,
                    const Attachment &attachment, bool force)
{
    if (!authorised(token))
        return false;

    // First make sure the kernel can give every section back.
    for (mem::Addr base : attachment.hotplugBases) {
        if (_mm.isOnline(base) && !_mm.offlineSection(base, force)) {
            sim::warn("%s: detach blocked, section %#llx has pages "
                      "in use",
                      _name.c_str(), (unsigned long long)base);
            return false;
        }
    }
    auto &used = _sectionsInUse[&datapath];
    for (std::size_t idx : attachment.sectionIndices) {
        datapath.detach(idx);
        if (idx < used.size())
            used[idx] = false;
    }
    datapath.stealing().unregisterFlow(attachment.networkId);
    return true;
}

bool
Agent::repairRoute(const std::string &token, flow::Datapath &datapath,
                   const Attachment &attachment,
                   const std::vector<int> &channels)
{
    if (!authorised(token))
        return false;
    TF_ASSERT(!channels.empty(), "repairRoute with no channels");
    _routeRepairs.inc();
    datapath.reroute(attachment.networkId, channels);
    return true;
}

void
Agent::watchDatapath(flow::Datapath &datapath)
{
    datapath.addLinkListener([this](const flow::Datapath::LinkEvent &ev) {
        _linkEvents.inc();
        sim::warn("%s: datapath channel %zu %s", _name.c_str(),
                  ev.channel, ev.down ? "went down" : "recovered");
    });
}

} // namespace tf::agent
