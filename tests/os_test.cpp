/**
 * @file
 * Tests for the OS support layer: NUMA topology, sparse-section memory
 * manager with hotplug, allocation policies, address spaces and
 * AutoNUMA page migration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "mem/dram.hh"
#include "os/address_space.hh"
#include "os/memory_manager.hh"
#include "os/migration.hh"
#include "os/numa.hh"
#include "os/swap.hh"
#include "sim/rng.hh"

using namespace tf;
using namespace tf::os;

namespace {

constexpr std::uint64_t kSection = 1 << 22; // 4 MiB sections in tests
constexpr std::uint64_t kPage = 64 * 1024;

struct OsFixture : ::testing::Test
{
    NumaTopology topo;
    std::unique_ptr<MemoryManager> mm;
    NodeId local = invalidNode;
    NodeId remote = invalidNode; // CPU-less disaggregated node

    void
    SetUp() override
    {
        local = topo.addNode("local", true);
        remote = topo.addNode("tflow0", false);
        topo.setDistance(local, remote, 80);
        mm = std::make_unique<MemoryManager>(topo, kSection, kPage);
        // Boot memory: 4 sections on the local node.
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(mm->onlineSection(
                local, static_cast<mem::Addr>(i) * kSection));
    }
};

} // namespace

TEST(NumaTopologyT, DistancesAndCpulessNodes)
{
    NumaTopology topo;
    NodeId a = topo.addNode("n0", true);
    NodeId b = topo.addNode("n1", true);
    NodeId c = topo.addNode("tflow", false);
    topo.setDistance(a, b, 20);
    topo.setDistance(a, c, 80);
    topo.setDistance(b, c, 80);

    EXPECT_EQ(topo.distance(a, a), 10);
    EXPECT_EQ(topo.distance(a, b), 20);
    EXPECT_EQ(topo.distance(b, a), 20);
    EXPECT_EQ(topo.cpulessNodes(), std::vector<NodeId>{c});

    auto order = topo.byDistance(a);
    EXPECT_EQ(order.front(), a);
    EXPECT_EQ(order.back(), c);
}

TEST_F(OsFixture, HotplugAddsPages)
{
    EXPECT_EQ(mm->totalPages(local), 4 * (kSection / kPage));
    EXPECT_EQ(mm->freePages(local), mm->totalPages(local));
    EXPECT_EQ(mm->totalPages(remote), 0u);

    mem::Addr remote_base = 0x100000000ULL;
    ASSERT_TRUE(mm->onlineSection(remote, remote_base));
    EXPECT_EQ(mm->totalPages(remote), kSection / kPage);
    EXPECT_TRUE(mm->isOnline(remote_base));
    EXPECT_EQ(mm->onlineSections(), 5u);
}

TEST_F(OsFixture, HotplugRejectsUnalignedAndDuplicate)
{
    EXPECT_FALSE(mm->onlineSection(remote, 0x1234));
    EXPECT_FALSE(mm->onlineSection(remote, 0)); // already online
}

TEST_F(OsFixture, OfflineRequiresFreePages)
{
    mem::Addr base = 0x100000000ULL;
    ASSERT_TRUE(mm->onlineSection(remote, base));
    auto page = mm->allocPageOn(remote);
    ASSERT_TRUE(page.has_value());
    EXPECT_FALSE(mm->offlineSection(base)); // page in use
    mm->freePage(*page);
    EXPECT_TRUE(mm->offlineSection(base));
    EXPECT_EQ(mm->totalPages(remote), 0u);
}

TEST_F(OsFixture, NodeOfMapsAddresses)
{
    mem::Addr base = 0x100000000ULL;
    ASSERT_TRUE(mm->onlineSection(remote, base));
    EXPECT_EQ(mm->nodeOf(0x1000), local);
    EXPECT_EQ(mm->nodeOf(base + 123), remote);
    EXPECT_EQ(mm->nodeOf(0xdeadbeef00ULL), invalidNode);
}

TEST_F(OsFixture, LocalPolicyPrefersHomeThenFallsBack)
{
    mem::Addr base = 0x100000000ULL;
    ASSERT_TRUE(mm->onlineSection(remote, base));
    AllocPolicy policy = AllocPolicy::local();

    // Drain local memory completely.
    std::uint64_t local_pages = mm->freePages(local);
    for (std::uint64_t i = 0; i < local_pages; ++i) {
        auto p = mm->allocPage(policy, local);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(mm->nodeOf(*p), local);
    }
    // Next allocation falls back to the remote node.
    auto p = mm->allocPage(policy, local);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(mm->nodeOf(*p), remote);
}

TEST_F(OsFixture, InterleavePolicyAlternates)
{
    mem::Addr base = 0x100000000ULL;
    ASSERT_TRUE(mm->onlineSection(remote, base));
    AllocPolicy policy = AllocPolicy::interleave({local, remote});

    int local_count = 0, remote_count = 0;
    for (int i = 0; i < 40; ++i) {
        auto p = mm->allocPage(policy, local);
        ASSERT_TRUE(p.has_value());
        (mm->nodeOf(*p) == local ? local_count : remote_count)++;
    }
    // Strict 50/50 round-robin while both nodes have memory.
    EXPECT_EQ(local_count, 20);
    EXPECT_EQ(remote_count, 20);
}

TEST_F(OsFixture, BindPolicyFailsWhenExhausted)
{
    mem::Addr base = 0x100000000ULL;
    ASSERT_TRUE(mm->onlineSection(remote, base));
    AllocPolicy policy = AllocPolicy::bind({remote});
    std::uint64_t pages = mm->freePages(remote);
    for (std::uint64_t i = 0; i < pages; ++i)
        ASSERT_TRUE(mm->allocPage(policy, local).has_value());
    EXPECT_FALSE(mm->allocPage(policy, local).has_value());
    EXPECT_GT(mm->freePages(local), 0u); // bind never spills
}

TEST_F(OsFixture, ClaimWholeSectionRemovesFromFreeList)
{
    std::uint64_t before = mm->freePages(local);
    auto base = mm->claimWholeSection(local);
    ASSERT_TRUE(base.has_value());
    EXPECT_EQ(mm->freePages(local), before - kSection / kPage);
    mm->releaseWholeSection(*base);
    EXPECT_EQ(mm->freePages(local), before);
}

TEST_F(OsFixture, ClaimSkipsPartiallyUsedSections)
{
    // Use one page from each of the first three sections.
    std::vector<mem::Addr> held;
    for (int s = 0; s < 3; ++s) {
        auto p = mm->allocPageOn(local);
        ASSERT_TRUE(p.has_value());
        held.push_back(*p);
    }
    // Pages come from section 0's free-list head, so sections 1-3 are
    // still fully free; claiming must not return section 0.
    auto base = mm->claimWholeSection(local);
    ASSERT_TRUE(base.has_value());
    for (mem::Addr p : held)
        EXPECT_FALSE(p >= *base && p < *base + kSection);
}

// ------------------------------------------------------------------
// The run-based free list against a per-page FIFO reference model
// ------------------------------------------------------------------

namespace {

/**
 * Reference model of MemoryManager's frame order: one FIFO of single
 * pages per node, the representation the run list replaced. Each
 * operation is the manager's documented semantics, page by page.
 */
class PageFifoModel
{
  public:
    PageFifoModel(const NumaTopology &topo, std::uint64_t sectionBytes,
                  std::uint64_t pageBytes)
        : _topo(topo), _section(sectionBytes), _page(pageBytes),
          _free(topo.nodeCount()), _total(topo.nodeCount(), 0)
    {
    }

    bool
    online(NodeId node, mem::Addr base)
    {
        if (base % _section != 0 || _sections.count(base))
            return false;
        _sections[base] = Sec{node, 0};
        pushSection(node, base);
        _total[node] += _section / _page;
        return true;
    }

    bool
    offline(mem::Addr base, bool force)
    {
        auto it = _sections.find(base);
        if (it == _sections.end() || (it->second.inUse > 0 && !force))
            return false;
        dropSection(it->second.node, base);
        _total[it->second.node] -= _section / _page;
        _sections.erase(it);
        return true;
    }

    std::optional<mem::Addr>
    allocOn(NodeId node)
    {
        std::deque<mem::Addr> &fl = _free[node];
        while (!fl.empty() && _poisoned.count(fl.front()))
            fl.pop_front();
        if (fl.empty())
            return std::nullopt;
        mem::Addr page = fl.front();
        fl.pop_front();
        ++sectionOf(page)->inUse;
        return page;
    }

    std::optional<mem::Addr>
    alloc(AllocPolicy &policy, NodeId home)
    {
        auto firstOf = [this](const std::vector<NodeId> &nodes) {
            std::optional<mem::Addr> page;
            for (NodeId n : nodes)
                if ((page = allocOn(n)))
                    break;
            return page;
        };
        switch (policy.mode) {
          case AllocPolicy::Mode::Local:
            return firstOf(_topo.byDistance(home));
          case AllocPolicy::Mode::Interleave:
            for (std::size_t i = 0; i < policy.nodes.size(); ++i) {
                NodeId n = policy.nodes[policy.cursor++ %
                                        policy.nodes.size()];
                if (auto page = allocOn(n))
                    return page;
            }
            return std::nullopt;
          case AllocPolicy::Mode::Preferred:
            if (auto page = allocOn(policy.nodes.front()))
                return page;
            return firstOf(_topo.byDistance(policy.nodes.front()));
          case AllocPolicy::Mode::Bind:
            return firstOf(policy.nodes);
        }
        return std::nullopt;
    }

    void
    free(mem::Addr page)
    {
        Sec *s = sectionOf(page);
        if (s == nullptr)
            return; // force-offlined section
        --s->inUse;
        if (_poisoned.count(page - page % _page) == 0)
            _free[s->node].push_back(page);
    }

    void poison(mem::Addr addr) { _poisoned.insert(addr - addr % _page); }

    std::optional<mem::Addr>
    claim(NodeId node)
    {
        for (auto &[base, s] : _sections) {
            if (s.node != node || s.inUse != 0)
                continue;
            dropSection(node, base);
            s.inUse = _section / _page;
            return base;
        }
        return std::nullopt;
    }

    void
    release(mem::Addr base)
    {
        Sec &s = _sections.at(base);
        s.inUse = 0;
        pushSection(s.node, base);
    }

    std::uint64_t freePages(NodeId n) const { return _free[n].size(); }
    std::uint64_t totalPages(NodeId n) const { return _total[n]; }
    std::size_t onlineSections() const { return _sections.size(); }

  private:
    struct Sec
    {
        NodeId node;
        std::uint64_t inUse;
    };

    const NumaTopology &_topo;
    std::uint64_t _section;
    std::uint64_t _page;
    std::map<mem::Addr, Sec> _sections; // online ones only
    std::vector<std::deque<mem::Addr>> _free;
    std::vector<std::uint64_t> _total;
    std::set<mem::Addr> _poisoned;

    Sec *
    sectionOf(mem::Addr addr)
    {
        auto it = _sections.find(addr - addr % _section);
        return it == _sections.end() ? nullptr : &it->second;
    }

    void
    pushSection(NodeId node, mem::Addr base)
    {
        for (mem::Addr p = base; p < base + _section; p += _page)
            _free[node].push_back(p);
    }

    void
    dropSection(NodeId node, mem::Addr base)
    {
        std::erase_if(_free[node], [&](mem::Addr p) {
            return p >= base && p < base + _section;
        });
    }
};

/**
 * A MemoryManager and its model over three nodes, driven in lockstep.
 * Every step compares the returned frame or flag, then freePages and
 * totalPages of each node and onlineSections().
 */
struct AllocatorPair
{
    static constexpr std::uint64_t kPageBytes = 4096;
    static constexpr std::uint64_t kPages = 16; // per section
    static constexpr std::uint64_t kSectionBytes = kPages * kPageBytes;

    NumaTopology topo;
    std::vector<NodeId> nodes;
    std::unique_ptr<MemoryManager> mm;
    std::unique_ptr<PageFifoModel> model;
    std::vector<mem::Addr> inUse;   ///< handed out, not yet freed
    std::vector<mem::Addr> orphans; ///< in use when force-offlined
    std::vector<mem::Addr> claimed; ///< whole sections held

    AllocatorPair()
    {
        nodes = {topo.addNode("n0", true), topo.addNode("n1", true),
                 topo.addNode("tflow", false)};
        topo.setDistance(nodes[0], nodes[1], 20);
        topo.setDistance(nodes[0], nodes[2], 80);
        topo.setDistance(nodes[1], nodes[2], 80);
        mm = std::make_unique<MemoryManager>(topo, kSectionBytes,
                                             kPageBytes);
        model = std::make_unique<PageFifoModel>(topo, kSectionBytes,
                                                kPageBytes);
    }

    static mem::Addr slot(std::uint64_t i) { return i * kSectionBytes; }

    static bool
    inSection(mem::Addr page, mem::Addr base)
    {
        return page >= base && page < base + kSectionBytes;
    }

    void
    check()
    {
        for (NodeId n : nodes) {
            EXPECT_EQ(mm->freePages(n), model->freePages(n))
                << "node " << n;
            EXPECT_EQ(mm->totalPages(n), model->totalPages(n))
                << "node " << n;
        }
        EXPECT_EQ(mm->onlineSections(), model->onlineSections());
    }

    bool
    online(NodeId node, mem::Addr base)
    {
        bool ok = mm->onlineSection(node, base);
        EXPECT_EQ(ok, model->online(node, base));
        if (ok)
            std::erase_if(orphans, [base](mem::Addr p) {
                return inSection(p, base);
            });
        check();
        return ok;
    }

    bool
    offline(mem::Addr base, bool force)
    {
        bool ok = mm->offlineSection(base, force);
        EXPECT_EQ(ok, model->offline(base, force));
        if (ok) {
            for (mem::Addr p : inUse)
                if (inSection(p, base))
                    orphans.push_back(p);
            std::erase_if(inUse, [base](mem::Addr p) {
                return inSection(p, base);
            });
            std::erase(claimed, base);
        }
        check();
        return ok;
    }

    std::optional<mem::Addr>
    allocOn(NodeId node)
    {
        auto got = mm->allocPageOn(node);
        EXPECT_EQ(got, model->allocOn(node));
        if (got)
            inUse.push_back(*got);
        check();
        return got;
    }

    std::optional<mem::Addr>
    alloc(AllocPolicy &mmPolicy, AllocPolicy &modelPolicy, NodeId home)
    {
        auto got = mm->allocPage(mmPolicy, home);
        EXPECT_EQ(got, model->alloc(modelPolicy, home));
        EXPECT_EQ(mmPolicy.cursor, modelPolicy.cursor);
        if (got)
            inUse.push_back(*got);
        check();
        return got;
    }

    /** Free @p page, which must be in inUse or orphans. */
    void
    free(mem::Addr page)
    {
        std::erase(inUse, page);
        std::erase(orphans, page);
        mm->freePage(page);
        model->free(page);
        check();
    }

    void
    poison(mem::Addr addr)
    {
        mm->poisonPage(addr);
        model->poison(addr);
        check();
    }

    std::optional<mem::Addr>
    claim(NodeId node)
    {
        auto got = mm->claimWholeSection(node);
        EXPECT_EQ(got, model->claim(node));
        if (got)
            claimed.push_back(*got);
        check();
        return got;
    }

    void
    release(mem::Addr base)
    {
        std::erase(claimed, base);
        mm->releaseWholeSection(base);
        model->release(base);
        check();
    }
};

/** Seeded random mix of every allocator operation. */
void
runRandomMix(std::uint64_t seed, int steps)
{
    constexpr std::uint64_t kSlots = 12;
    AllocatorPair pair;
    sim::Rng rng(seed);
    auto anyNode = [&] { return pair.nodes[rng.below(3)]; };
    const NodeId n0 = pair.nodes[0], n1 = pair.nodes[1],
                 n2 = pair.nodes[2];
    std::vector<AllocPolicy> mmPolicies = {
        AllocPolicy::local(), AllocPolicy::interleave({n0, n2}),
        AllocPolicy::interleave({n2, n1, n0}),
        AllocPolicy::preferred(n1), AllocPolicy::bind({n2, n0})};
    std::vector<AllocPolicy> modelPolicies = mmPolicies;
    for (std::uint64_t i = 0; i < 6; ++i)
        pair.online(anyNode(), AllocatorPair::slot(rng.below(kSlots)));

    for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                     std::to_string(step));
        std::uint64_t op = rng.below(100);
        if (op < 10) {
            pair.online(anyNode(), AllocatorPair::slot(rng.below(kSlots)));
        } else if (op < 18) {
            pair.offline(AllocatorPair::slot(rng.below(kSlots)),
                         rng.chance(0.4));
        } else if (op < 24) {
            pair.claim(anyNode());
        } else if (op < 30) {
            if (!pair.claimed.empty())
                pair.release(
                    pair.claimed[rng.below(pair.claimed.size())]);
        } else if (op < 48) {
            pair.allocOn(anyNode());
        } else if (op < 68) {
            std::size_t p = rng.below(mmPolicies.size());
            pair.alloc(mmPolicies[p], modelPolicies[p], anyNode());
        } else if (op < 94) {
            if (!pair.orphans.empty() && rng.chance(0.2))
                pair.free(pair.orphans[rng.below(pair.orphans.size())]);
            else if (!pair.inUse.empty())
                pair.free(pair.inUse[rng.below(pair.inUse.size())]);
        } else {
            pair.poison(AllocatorPair::slot(rng.below(kSlots)) +
                        rng.below(AllocatorPair::kPages) *
                            AllocatorPair::kPageBytes);
        }
        if (::testing::Test::HasFailure())
            return;
    }
}

} // namespace

TEST(AllocatorDiffT, RandomMixesMatchPerPageFifo)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 7919ULL})
        runRandomMix(seed, 4000);
}

TEST(AllocatorDiffT, ClaimAfterScatteredFrees)
{
    AllocatorPair pair;
    NodeId n0 = pair.nodes[0];
    for (std::uint64_t i = 0; i < 3; ++i)
        ASSERT_TRUE(pair.online(n0, AllocatorPair::slot(i)));
    // Take all of sections 0 and 1 and half of 2, then free them in a
    // shuffled order, keeping one frame of section 1: the free pages
    // end up scattered across many short runs.
    for (int i = 0; i < 40; ++i)
        ASSERT_TRUE(pair.allocOn(n0).has_value());
    mem::Addr kept = AllocatorPair::slot(1) + 5 * AllocatorPair::kPageBytes;
    std::vector<mem::Addr> order = pair.inUse;
    sim::Rng rng(3);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    for (mem::Addr p : order)
        if (p != kept)
            pair.free(p);
    // Section 0 is the lowest entirely-free one; 1 still holds a page.
    EXPECT_EQ(pair.claim(n0), AllocatorPair::slot(0));
    EXPECT_EQ(pair.claim(n0), AllocatorPair::slot(2));
    EXPECT_EQ(pair.claim(n0), std::nullopt);
    for (int i = 0; i < 20; ++i)
        pair.allocOn(n0);
    pair.release(AllocatorPair::slot(2));
    for (int i = 0; i < 20; ++i)
        pair.allocOn(n0);
}

TEST(AllocatorDiffT, PoisonedFrameAtRunHead)
{
    AllocatorPair pair;
    NodeId n0 = pair.nodes[0];
    ASSERT_TRUE(pair.online(n0, AllocatorPair::slot(0)));
    ASSERT_TRUE(pair.online(n0, AllocatorPair::slot(1)));
    // The head frame of section 1's run, and of a one-page run made
    // by a free, are poisoned while on the free list: each is still
    // counted free until it reaches the front, then dropped.
    pair.poison(AllocatorPair::slot(1));
    auto page = pair.allocOn(n0);
    ASSERT_EQ(page, AllocatorPair::slot(0));
    pair.free(*page);
    pair.poison(*page);
    EXPECT_EQ(pair.mm->freePages(n0), 2 * AllocatorPair::kPages);
    for (std::uint64_t i = 1; i < AllocatorPair::kPages; ++i)
        pair.allocOn(n0);
    // Next: section 1's poisoned head is skipped.
    EXPECT_EQ(pair.allocOn(n0),
              AllocatorPair::slot(1) + AllocatorPair::kPageBytes);
    // Drain: the poisoned single-page run at the back is dropped too.
    while (pair.allocOn(n0))
        ;
    EXPECT_EQ(pair.mm->freePages(n0), 0u);
    EXPECT_TRUE(pair.mm->isPoisoned(AllocatorPair::slot(0)));
}

TEST(AllocatorDiffT, ForcedOfflineThenFreeOfLostPages)
{
    AllocatorPair pair;
    NodeId n2 = pair.nodes[2];
    ASSERT_TRUE(pair.online(n2, AllocatorPair::slot(4)));
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(pair.allocOn(n2).has_value());
    pair.free(pair.inUse[1]); // one short run at the back
    EXPECT_FALSE(pair.offline(AllocatorPair::slot(4), false));
    EXPECT_TRUE(pair.offline(AllocatorPair::slot(4), true));
    ASSERT_EQ(pair.orphans.size(), 4u);
    while (!pair.orphans.empty())
        pair.free(pair.orphans.front()); // tolerated and ignored
    EXPECT_EQ(pair.mm->freePages(n2), 0u);
    EXPECT_EQ(pair.mm->totalPages(n2), 0u);
    EXPECT_EQ(pair.allocOn(n2), std::nullopt);
}

TEST(AllocatorDiffT, ReonlineAtSameBaseDropsStaleRuns)
{
    AllocatorPair pair;
    NodeId n0 = pair.nodes[0], n1 = pair.nodes[1];
    ASSERT_TRUE(pair.online(n0, AllocatorPair::slot(0)));
    ASSERT_TRUE(pair.online(n0, AllocatorPair::slot(1)));
    // Leave section 0 with runs on the list: its original run's tail,
    // plus one-page runs behind section 1's run from frees.
    std::vector<mem::Addr> taken;
    for (int i = 0; i < 6; ++i)
        taken.push_back(*pair.allocOn(n0));
    pair.free(taken[2]);
    pair.free(taken[4]);
    ASSERT_TRUE(pair.offline(AllocatorPair::slot(0), true));
    // Back at the same base, first on another node, then home again:
    // none of the old runs may hand out a frame.
    ASSERT_TRUE(pair.online(n1, AllocatorPair::slot(0)));
    ASSERT_TRUE(pair.offline(AllocatorPair::slot(0), false));
    ASSERT_TRUE(pair.online(n0, AllocatorPair::slot(0)));
    EXPECT_EQ(pair.allocOn(n0), AllocatorPair::slot(1));
    std::uint64_t served = 1;
    while (auto page = pair.allocOn(n0)) {
        ++served;
        EXPECT_EQ(std::count(pair.inUse.begin(), pair.inUse.end(), *page),
                  1);
    }
    EXPECT_EQ(served, 2 * AllocatorPair::kPages);
}

TEST_F(OsFixture, AddressSpaceFaultsInLazily)
{
    AddressSpace as(*mm, local);
    mem::Addr va = as.mmap(10 * kPage);
    EXPECT_EQ(as.mappedPages(), 0u);
    auto pa = as.translate(va + 3 * kPage + 17);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa % kPage, 17u);
    EXPECT_EQ(as.mappedPages(), 1u);
    EXPECT_EQ(as.faults(), 1u);
    // Same page again: no new fault.
    as.translate(va + 3 * kPage + 1000);
    EXPECT_EQ(as.faults(), 1u);
}

TEST_F(OsFixture, AddressSpaceMunmapFreesFrames)
{
    AddressSpace as(*mm, local);
    std::uint64_t before = mm->freePages(local);
    mem::Addr va = as.mmap(4 * kPage);
    for (int i = 0; i < 4; ++i)
        as.translate(va + static_cast<mem::Addr>(i) * kPage);
    EXPECT_EQ(mm->freePages(local), before - 4);
    as.munmap(va, 4 * kPage);
    EXPECT_EQ(mm->freePages(local), before);
    EXPECT_EQ(as.mappedPages(), 0u);
}

TEST_F(OsFixture, ResidencyFollowsPolicy)
{
    mem::Addr base = 0x100000000ULL;
    ASSERT_TRUE(mm->onlineSection(remote, base));
    AddressSpace as(*mm, local,
                    AllocPolicy::interleave({local, remote}));
    mem::Addr va = as.mmap(20 * kPage);
    for (int i = 0; i < 20; ++i)
        as.translate(va + static_cast<mem::Addr>(i) * kPage);
    auto res = as.residency();
    EXPECT_EQ(res[local], 10u);
    EXPECT_EQ(res[remote], 10u);
}

TEST_F(OsFixture, AutoNumaMigratesHotRemotePages)
{
    mem::Addr base = 0x100000000ULL;
    ASSERT_TRUE(mm->onlineSection(remote, base));
    AddressSpace as(*mm, local, AllocPolicy::bind({remote}));
    mem::Addr va = as.mmap(8 * kPage);
    for (int i = 0; i < 8; ++i)
        as.translate(va + static_cast<mem::Addr>(i) * kPage);
    EXPECT_EQ(as.residency()[remote], 8u);

    AutoNumaParams params;
    params.hotThreshold = 16;
    AutoNuma numa(*mm, params);
    // Hammer pages 0 and 1 from the local CPU node.
    for (int i = 0; i < 100; ++i) {
        numa.recordAccess(as, va, local);
        numa.recordAccess(as, va + kPage, local);
    }
    // Touch page 7 below the hot threshold.
    for (int i = 0; i < 4; ++i)
        numa.recordAccess(as, va + 7 * kPage, local);

    auto migrated = numa.scan();
    EXPECT_EQ(migrated.size(), 2u);
    auto res = as.residency();
    EXPECT_EQ(res[local], 2u);
    EXPECT_EQ(res[remote], 6u);
    EXPECT_EQ(numa.migrations(), 2u);
}

TEST_F(OsFixture, AutoNumaRespectsRateLimit)
{
    mem::Addr base = 0x100000000ULL;
    ASSERT_TRUE(mm->onlineSection(remote, base));
    AddressSpace as(*mm, local, AllocPolicy::bind({remote}));
    mem::Addr va = as.mmap(32 * kPage);

    AutoNumaParams params;
    params.hotThreshold = 4;
    params.maxMigrationsPerScan = 5;
    AutoNuma numa(*mm, params);
    for (int p = 0; p < 32; ++p)
        for (int i = 0; i < 10; ++i)
            numa.recordAccess(as, va + static_cast<mem::Addr>(p) * kPage,
                              local);
    EXPECT_EQ(numa.scan().size(), 5u);
}

TEST_F(OsFixture, AutoNumaLeavesLocalPagesAlone)
{
    AddressSpace as(*mm, local); // local policy
    mem::Addr va = as.mmap(4 * kPage);
    AutoNuma numa(*mm);
    for (int i = 0; i < 100; ++i)
        numa.recordAccess(as, va, local);
    EXPECT_TRUE(numa.scan().empty());
}

TEST(SwapT, ResidentAccessIsMinor)
{
    sim::EventQueue eq;
    mem::Dram dram("d", eq, mem::DramParams{}, nullptr);
    SwapParams sp;
    sp.localPages = 4;
    SwappingMemory swap("swap", eq, sp, dram);
    int done = 0;
    swap.access(0, false, [&] { ++done; });
    eq.run();
    swap.access(64, false, [&] { ++done; }); // same page
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(swap.majorFaults(), 1u);
    EXPECT_EQ(swap.minorAccesses(), 1u);
}

TEST(SwapT, EvictsLruBeyondCapacity)
{
    sim::EventQueue eq;
    mem::Dram dram("d", eq, mem::DramParams{}, nullptr);
    SwapParams sp;
    sp.localPages = 2;
    SwappingMemory swap("swap", eq, sp, dram);
    int done = 0;
    auto touch = [&](std::uint64_t page) {
        swap.access(page * sp.pageBytes, false, [&] { ++done; });
        eq.run();
    };
    touch(0);
    touch(1);
    touch(0); // refresh page 0
    touch(2); // evicts page 1
    touch(0); // still resident
    EXPECT_EQ(swap.majorFaults(), 3u);
    touch(1); // was evicted -> faults again
    EXPECT_EQ(swap.majorFaults(), 4u);
    EXPECT_EQ(done, 6);
}

TEST(SwapT, DirtyEvictionPaysPageOut)
{
    sim::EventQueue eq;
    mem::Dram dram("d", eq, mem::DramParams{}, nullptr);
    SwapParams sp;
    sp.localPages = 1;
    SwappingMemory swap("swap", eq, sp, dram);
    int done = 0;
    swap.access(0, true, [&] { ++done; }); // dirty page 0
    eq.run();
    sim::Tick before = eq.now();
    swap.access(sp.pageBytes, false, [&] { ++done; }); // evict dirty
    eq.run();
    sim::Tick dirty_evict = eq.now() - before;
    EXPECT_EQ(swap.pageOuts(), 1u);

    before = eq.now();
    swap.access(0, false, [&] { ++done; }); // evict clean page
    eq.run();
    EXPECT_EQ(done, 3);
    // Dirty eviction pays two transfers, clean only one.
    EXPECT_GT(dirty_evict, eq.now() - before);
}

TEST(SwapT, FaultLatencyDominatedByPageTransfer)
{
    sim::EventQueue eq;
    mem::Dram dram("d", eq, mem::DramParams{}, nullptr);
    SwapParams sp;
    SwappingMemory swap("swap", eq, sp, dram);
    swap.access(0, false, [] {});
    eq.run();
    // 64 KiB at 12.5 GB/s = 5.24 us + 1.5 us link + 4 us trap + DRAM.
    double fault_us = swap.faultLatencyUs().mean();
    EXPECT_GT(fault_us, 10.0);
    EXPECT_LT(fault_us, 12.0);
}
