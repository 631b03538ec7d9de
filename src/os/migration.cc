#include "os/migration.hh"

#include <algorithm>

namespace tf::os {

AutoNuma::AutoNuma(MemoryManager &mm, AutoNumaParams params)
    : _mm(mm), _params(params)
{
}

std::uint64_t
AutoNuma::key(const AddressSpace &space, mem::Addr vaddr) const
{
    // Keyed by the manager-scoped space id, never the object address:
    // pointer values vary with allocator/thread layout, and the hash
    // iteration order of _heat feeds candidate collection, so an
    // address-derived key would leak --jobs worker interleaving into
    // migration order (and, with a banked DRAM, into timing).
    std::uint64_t vpn = vaddr / _mm.pageBytes();
    return (space.id() * 0x9e3779b97f4a7c15ULL) ^ vpn;
}

void
AutoNuma::recordAccess(AddressSpace &space, mem::Addr vaddr,
                       NodeId cpuNode)
{
    mem::Addr page_va = mem::alignDown(vaddr, _mm.pageBytes());
    auto &h = _heat[key(space, page_va)];
    if (h.count == 0) {
        h.space = &space;
        h.vaddr = page_va;
    }
    h.accessor = cpuNode;
    ++h.count;
}

bool
AutoNuma::nodeHasHeadroom(NodeId node) const
{
    std::uint64_t total = _mm.totalPages(node);
    if (total == 0)
        return false;
    double free_frac = static_cast<double>(_mm.freePages(node)) /
                       static_cast<double>(total);
    return free_frac > _params.freeReserve;
}

std::vector<Migration>
AutoNuma::scan()
{
    // Collect hot pages living further from their accessor than the
    // accessor's own node.
    std::vector<PageHeat *> candidates;
    for (auto &[k, h] : _heat) {
        if (h.count < _params.hotThreshold)
            continue;
        NodeId cur = h.space->nodeOf(h.vaddr);
        if (cur == invalidNode || h.accessor == invalidNode)
            continue;
        if (_mm.topology().distance(h.accessor, cur) >
            _mm.topology().distance(h.accessor, h.accessor))
            candidates.push_back(&h);
    }
    // Full ordering (ties broken by space id, then address): equal
    // heat counts are common under skewed workloads, and the frame a
    // page receives from allocPageOn depends on its position here.
    std::sort(candidates.begin(), candidates.end(),
              [](const PageHeat *a, const PageHeat *b) {
                  if (a->count != b->count)
                      return a->count > b->count;
                  if (a->space->id() != b->space->id())
                      return a->space->id() < b->space->id();
                  return a->vaddr < b->vaddr;
              });

    std::vector<Migration> done;
    for (PageHeat *h : candidates) {
        if (done.size() >= _params.maxMigrationsPerScan)
            break;
        NodeId target = h->accessor;
        if (!nodeHasHeadroom(target))
            continue;
        auto frame = _mm.allocPageOn(target);
        if (!frame)
            continue;
        NodeId from = h->space->nodeOf(h->vaddr);
        h->space->remap(h->vaddr, *frame);
        _migrations.inc();
        done.push_back(Migration{h->vaddr, from, target});
    }

    _heat.clear(); // sliding window: fresh counts each scan
    return done;
}

} // namespace tf::os
