#include "os/memory_manager.hh"

namespace tf::os {

MemoryManager::MemoryManager(NumaTopology &topo,
                             std::uint64_t sectionBytes,
                             std::uint64_t pageBytes)
    : _topo(topo), _sectionBytes(sectionBytes), _pageBytes(pageBytes)
{
    TF_ASSERT(sectionBytes % pageBytes == 0,
              "section must be a whole number of pages");
}

void
MemoryManager::ensureNode(NodeId node)
{
    TF_ASSERT(node >= 0 &&
                  static_cast<std::size_t>(node) < _topo.nodeCount(),
              "unknown node %d", node);
    if (_freeLists.size() < _topo.nodeCount()) {
        _freeLists.resize(_topo.nodeCount());
        _totalPages.resize(_topo.nodeCount(), 0);
    }
}

Section *
MemoryManager::sectionOf(mem::Addr addr)
{
    auto it = _sections.upper_bound(addr);
    if (it == _sections.begin())
        return nullptr;
    --it;
    if (it->second.online && addr < it->second.base + _sectionBytes)
        return &it->second;
    return nullptr;
}

const Section *
MemoryManager::sectionOf(mem::Addr addr) const
{
    return const_cast<MemoryManager *>(this)->sectionOf(addr);
}

void
MemoryManager::pushFree(Section &s, mem::Addr start, std::uint64_t count)
{
    FreeList &fl = _freeLists[static_cast<std::size_t>(s.node)];
    fl.pages += count;
    s.freeListed += count;
    if (!fl.runs.empty()) {
        FreeRun &back = fl.runs.back();
        if (back.section == &s && back.generation == s.generation &&
            back.start + back.count * _pageBytes == start) {
            back.count += count;
            return;
        }
    }
    fl.runs.push_back(FreeRun{start, count, &s, s.generation});
    ++s.liveRuns;
}

void
MemoryManager::dropFree(Section &s)
{
    FreeList &fl = _freeLists[static_cast<std::size_t>(s.node)];
    fl.pages -= s.freeListed;
    fl.staleRuns += s.liveRuns;
    s.freeListed = 0;
    s.liveRuns = 0;
    ++s.generation;
    // Each compaction removes at least half of what it walks, so
    // stale runs cost O(1) amortised and the list stays O(live).
    if (2 * fl.staleRuns > fl.runs.size()) {
        std::erase_if(fl.runs, [](const FreeRun &r) {
            return r.generation != r.section->generation;
        });
        fl.staleRuns = 0;
    }
}

bool
MemoryManager::onlineSection(NodeId node, mem::Addr base)
{
    ensureNode(node);
    if (!mem::isAligned(base, _sectionBytes))
        return false;
    Section &s = _sections[base];
    if (s.online)
        return false;
    s.base = base;
    s.node = node;
    s.online = true;
    s.pagesInUse = 0;

    std::uint64_t pages = _sectionBytes / _pageBytes;
    pushFree(s, base, pages);
    _totalPages[static_cast<std::size_t>(node)] += pages;
    return true;
}

bool
MemoryManager::offlineSection(mem::Addr base, bool force)
{
    auto it = _sections.find(base);
    if (it == _sections.end() || !it->second.online)
        return false;
    Section &s = it->second;
    if (s.pagesInUse > 0 && !force)
        return false; // pages must be migrated away first

    dropFree(s);
    _totalPages[static_cast<std::size_t>(s.node)] -=
        _sectionBytes / _pageBytes;
    s.online = false;
    s.pagesInUse = 0;
    return true;
}

bool
MemoryManager::isOnline(mem::Addr base) const
{
    auto it = _sections.find(base);
    return it != _sections.end() && it->second.online;
}

std::optional<mem::Addr>
MemoryManager::allocPageOn(NodeId node)
{
    if (node < 0 ||
        static_cast<std::size_t>(node) >= _freeLists.size())
        return std::nullopt;
    FreeList &fl = _freeLists[static_cast<std::size_t>(node)];
    while (!fl.runs.empty()) {
        FreeRun &r = fl.runs.front();
        Section &s = *r.section;
        if (r.generation != s.generation) {
            fl.runs.pop_front();
            --fl.staleRuns;
            continue;
        }
        mem::Addr page = r.start;
        r.start += _pageBytes;
        --fl.pages;
        --s.freeListed;
        if (--r.count == 0) {
            fl.runs.pop_front();
            --s.liveRuns;
        }
        // Frames poisoned while sitting on the free list are retired
        // on the way out instead of being handed to a new mapping.
        if (!_poisoned.empty() && _poisoned.count(page))
            continue;
        ++s.pagesInUse;
        return page;
    }
    return std::nullopt;
}

std::optional<mem::Addr>
MemoryManager::allocPage(AllocPolicy &policy, NodeId homeNode)
{
    switch (policy.mode) {
      case AllocPolicy::Mode::Local: {
        // Local first, then closest node with free memory.
        for (NodeId n : _topo.byDistance(homeNode)) {
            if (auto page = allocPageOn(n))
                return page;
        }
        return std::nullopt;
      }
      case AllocPolicy::Mode::Interleave: {
        TF_ASSERT(!policy.nodes.empty(), "interleave over no nodes");
        // Strict round-robin; skip exhausted nodes.
        for (std::size_t i = 0; i < policy.nodes.size(); ++i) {
            NodeId n = policy.nodes[policy.cursor %
                                    policy.nodes.size()];
            ++policy.cursor;
            if (auto page = allocPageOn(n))
                return page;
        }
        return std::nullopt;
      }
      case AllocPolicy::Mode::Preferred: {
        TF_ASSERT(!policy.nodes.empty(), "no preferred node");
        if (auto page = allocPageOn(policy.nodes.front()))
            return page;
        for (NodeId n : _topo.byDistance(policy.nodes.front())) {
            if (auto page = allocPageOn(n))
                return page;
        }
        return std::nullopt;
      }
      case AllocPolicy::Mode::Bind: {
        for (NodeId n : policy.nodes) {
            if (auto page = allocPageOn(n))
                return page;
        }
        return std::nullopt;
      }
    }
    return std::nullopt;
}

void
MemoryManager::freePage(mem::Addr page)
{
    Section *s = sectionOf(page);
    if (s == nullptr) {
        // The page's section was force-offlined (surprise removal):
        // the frame is gone, there is nothing to return.
        return;
    }
    TF_ASSERT(s->pagesInUse > 0, "double free in section");
    --s->pagesInUse;
    if (_poisoned.count(page - page % _pageBytes)) {
        // hwpoison: the frame is retired, never handed out again.
        return;
    }
    pushFree(*s, page, 1);
}

void
MemoryManager::poisonPage(mem::Addr addr)
{
    _poisoned.insert(addr - addr % _pageBytes);
}

bool
MemoryManager::isPoisoned(mem::Addr addr) const
{
    return _poisoned.count(addr - addr % _pageBytes) > 0;
}

std::optional<mem::Addr>
MemoryManager::claimWholeSection(NodeId node)
{
    for (auto &[base, s] : _sections) {
        if (s.node != node || !s.online || s.pagesInUse != 0)
            continue;
        dropFree(s);
        s.pagesInUse = _sectionBytes / _pageBytes;
        return base;
    }
    return std::nullopt;
}

void
MemoryManager::releaseWholeSection(mem::Addr base)
{
    auto it = _sections.find(base);
    TF_ASSERT(it != _sections.end() && it->second.online,
              "releasing an unknown section");
    Section &s = it->second;
    TF_ASSERT(s.pagesInUse == _sectionBytes / _pageBytes,
              "section was not fully claimed");
    s.pagesInUse = 0;
    pushFree(s, base, _sectionBytes / _pageBytes);
}

NodeId
MemoryManager::nodeOf(mem::Addr addr) const
{
    const Section *s = sectionOf(addr);
    return s ? s->node : invalidNode;
}

std::uint64_t
MemoryManager::freePages(NodeId node) const
{
    if (node < 0 ||
        static_cast<std::size_t>(node) >= _freeLists.size())
        return 0;
    return _freeLists[static_cast<std::size_t>(node)].pages;
}

std::uint64_t
MemoryManager::totalPages(NodeId node) const
{
    if (node < 0 ||
        static_cast<std::size_t>(node) >= _totalPages.size())
        return 0;
    return _totalPages[static_cast<std::size_t>(node)];
}

std::size_t
MemoryManager::onlineSections() const
{
    std::size_t n = 0;
    for (const auto &[base, s] : _sections)
        n += s.online;
    return n;
}

} // namespace tf::os
