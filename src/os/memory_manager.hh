/**
 * @file
 * Sparse-memory-model page frame allocator with memory hotplug
 * (Section IV-B).
 *
 * The kernel divides the physical address space into fixed-size
 * aligned sections, each independently handled and hot-pluggable at
 * runtime. The ThymesisFlow agent probes and onlines a section once
 * the compute endpoint has been configured for it; offline requires
 * all of the section's pages to be free (or migrated away first).
 *
 * Each node's free list is a FIFO of page runs, so onlining or
 * releasing a section appends one run and claiming or offlining one
 * drops its runs in O(1) by bumping the section's generation. Frames
 * leave in the order a FIFO of single pages would hand them out.
 */

#ifndef TF_OS_MEMORY_MANAGER_HH
#define TF_OS_MEMORY_MANAGER_HH

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "mem/addr.hh"
#include "os/numa.hh"
#include "sim/stats.hh"

namespace tf::os {

/** One hotplugged (or boot) memory section. */
struct Section
{
    mem::Addr base = 0;
    NodeId node = invalidNode;
    bool online = false;
    std::uint64_t pagesInUse = 0;
    /**
     * Free-list bookkeeping. A run tagged with an older generation
     * is stale: claiming or offlining the section bumps it, which
     * drops every run of the section from the free list at once.
     */
    std::uint64_t generation = 0;
    std::uint64_t freeListed = 0; ///< frames on the node's free list
    std::uint64_t liveRuns = 0;   ///< runs tagged with `generation`
};

class MemoryManager
{
  public:
    MemoryManager(NumaTopology &topo,
                  std::uint64_t sectionBytes = mem::sectionBytes,
                  std::uint64_t pageBytes = mem::pageBytes);

    std::uint64_t sectionBytes() const { return _sectionBytes; }
    std::uint64_t pageBytes() const { return _pageBytes; }

    /**
     * Hand out a manager-scoped address-space id. Ids replace object
     * addresses wherever a space must act as a map key (AutoNUMA heat
     * tracking): pointer values depend on allocator and thread layout,
     * so hashing them leaks worker interleaving into hash-iteration
     * order and breaks --jobs determinism.
     */
    std::uint64_t nextSpaceId() { return _nextSpaceId++; }

    /**
     * Online a section at physical @p base into NUMA node @p node
     * (memory hotplug "probe + online"). Base must be section-aligned
     * and not already online.
     */
    bool onlineSection(NodeId node, mem::Addr base);

    /**
     * Offline the section at @p base. Fails when any page is in use
     * (callers migrate pages away first) unless @p force is set:
     * forced offline models surprise memory removal — the backing
     * store died, so the section disappears with its pages; later
     * freePage() calls against it are tolerated and ignored.
     */
    bool offlineSection(mem::Addr base, bool force = false);

    bool isOnline(mem::Addr base) const;

    /** Allocate one page frame under @p policy for @p homeNode. */
    std::optional<mem::Addr> allocPage(AllocPolicy &policy,
                                       NodeId homeNode);

    /** Allocate one page frame on a specific node. */
    std::optional<mem::Addr> allocPageOn(NodeId node);

    /** Return a page frame to its node's free list. */
    void freePage(mem::Addr page);

    // ------------------------- hwpoison ----------------------------

    /**
     * Mark the frame backing @p addr as poisoned (the kernel's
     * hwpoison path: the backing memory returned an unrecoverable
     * error). A poisoned frame is retired: freePage() drops it
     * instead of returning it to the free list, so it is never
     * handed out again.
     */
    void poisonPage(mem::Addr addr);

    /** Whether the frame backing @p addr is poisoned. */
    bool isPoisoned(mem::Addr addr) const;

    /** Frames currently marked poisoned (retired or still mapped). */
    std::uint64_t poisonedPages() const { return _poisoned.size(); }

    /**
     * Claim one entirely-free online section on @p node (all of its
     * pages leave the free list). Used by the memory-stealing agent,
     * which must pin physically contiguous section-sized ranges.
     * @return the section base, or nullopt if none is fully free.
     */
    std::optional<mem::Addr> claimWholeSection(NodeId node);

    /** Release a section claimed with claimWholeSection(). */
    void releaseWholeSection(mem::Addr base);

    /** NUMA node owning a physical address (invalidNode if unknown). */
    NodeId nodeOf(mem::Addr addr) const;

    std::uint64_t freePages(NodeId node) const;
    std::uint64_t totalPages(NodeId node) const;
    std::size_t onlineSections() const;

    const NumaTopology &topology() const { return _topo; }

  private:
    NumaTopology &_topo;
    std::uint64_t _sectionBytes;
    std::uint64_t _pageBytes;
    /**
     * Consecutive free frames of one section, [start, start + count
     * pages), pushed while the section was at @p generation.
     */
    struct FreeRun
    {
        mem::Addr start;
        std::uint64_t count;
        Section *section;
        std::uint64_t generation;
    };

    /**
     * One node's free list: a FIFO of runs whose concatenation is
     * the frame order a per-page FIFO would hand out. Stale runs are
     * skipped at the front, or compacted away once they are half of
     * the list.
     */
    struct FreeList
    {
        std::deque<FreeRun> runs;
        std::uint64_t pages = 0;     ///< frames on the list
        std::uint64_t staleRuns = 0; ///< stale runs still queued
    };

    // By base address. Offlined sections stay (online = false) so the
    // runs that name them never dangle; onlining reuses the slot.
    std::map<mem::Addr, Section> _sections;
    std::vector<FreeList> _freeLists;       // per node
    std::vector<std::uint64_t> _totalPages; // per node
    std::set<mem::Addr> _poisoned; // retired frames (page-aligned)
    std::uint64_t _nextSpaceId = 1;

    void ensureNode(NodeId node);
    /** Append @p count frames from @p start at the list's back. */
    void pushFree(Section &s, mem::Addr start, std::uint64_t count);
    /** Take every frame of @p s off its node's free list. */
    void dropFree(Section &s);
    /** The online section holding @p addr, or nullptr. */
    Section *sectionOf(mem::Addr addr);
    const Section *sectionOf(mem::Addr addr) const;
};

} // namespace tf::os

#endif // TF_OS_MEMORY_MANAGER_HH
