#include "os/address_space.hh"

namespace tf::os {

AddressSpace::AddressSpace(MemoryManager &mm, NodeId homeNode,
                           AllocPolicy policy)
    : _mm(mm), _id(mm.nextSpaceId()), _homeNode(homeNode),
      _policy(std::move(policy))
{
}

mem::Addr
AddressSpace::mmap(std::uint64_t bytes)
{
    mem::Addr base = _nextVBase;
    _nextVBase += mem::alignUp(bytes, _mm.pageBytes()) +
                  _mm.pageBytes(); // guard page
    return base;
}

void
AddressSpace::munmap(mem::Addr vbase, std::uint64_t bytes)
{
    std::uint64_t first = vpn(vbase);
    std::uint64_t last = vpn(vbase + bytes - 1);
    for (std::uint64_t p = first; p <= last; ++p) {
        auto it = _pageTable.find(p);
        if (it != _pageTable.end()) {
            _mm.freePage(it->second);
            _pageTable.erase(it);
        }
    }
}

std::optional<mem::Addr>
AddressSpace::translate(mem::Addr vaddr)
{
    std::uint64_t p = vpn(vaddr);
    auto it = _pageTable.find(p);
    if (it != _pageTable.end() && _mm.isPoisoned(it->second)) {
        // The frame died under us (hwpoison). Retire the mapping —
        // freePage() drops poisoned frames instead of recycling them —
        // and fall through to a fresh fault-in.
        _mm.freePage(it->second);
        _pageTable.erase(it);
        it = _pageTable.end();
        ++_refaults;
    }
    if (it == _pageTable.end()) {
        auto frame = _mm.allocPage(_policy, _homeNode);
        if (!frame)
            return std::nullopt;
        ++_faults;
        it = _pageTable.emplace(p, *frame).first;
    }
    return it->second + (vaddr % _mm.pageBytes());
}

NodeId
AddressSpace::nodeOf(mem::Addr vaddr)
{
    auto pa = translate(vaddr);
    if (!pa)
        return invalidNode;
    return _mm.nodeOf(*pa);
}

void
AddressSpace::remap(mem::Addr vaddr, mem::Addr newFrame)
{
    auto it = _pageTable.find(vpn(vaddr));
    TF_ASSERT(it != _pageTable.end(), "remap of an unmapped page");
    _mm.freePage(it->second);
    it->second = newFrame;
}

std::unordered_map<NodeId, std::uint64_t>
AddressSpace::residency() const
{
    std::unordered_map<NodeId, std::uint64_t> out;
    for (const auto &[p, frame] : _pageTable)
        ++out[_mm.nodeOf(frame)];
    return out;
}

} // namespace tf::os
