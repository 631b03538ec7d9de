/**
 * @file
 * AutoNUMA-style page migration (Section IV-B).
 *
 * The kernel optimises access to frequently used memory by reusing the
 * existing NUMA balancing machinery: hot pages resident on distant
 * (CPU-less, disaggregated) nodes are migrated towards the accessing
 * CPU's node. This model tracks per-page access counts between scans
 * and migrates the hottest remote pages, bounded per scan, when local
 * frames are available.
 */

#ifndef TF_OS_MIGRATION_HH
#define TF_OS_MIGRATION_HH

#include <unordered_map>
#include <vector>

#include "os/address_space.hh"
#include "sim/stats.hh"

namespace tf::os {

struct AutoNumaParams
{
    /** Minimum access count in a scan window to consider a page hot. */
    std::uint64_t hotThreshold = 32;
    /** Maximum pages migrated per scan (rate limiting). */
    std::size_t maxMigrationsPerScan = 64;
    /**
     * Keep this fraction of each CPU node's pages free so migration
     * never starves regular allocations.
     */
    double freeReserve = 0.05;
};

/** One executed migration (for stats and cost accounting). */
struct Migration
{
    mem::Addr vaddr;
    NodeId from;
    NodeId to;
};

class AutoNuma
{
  public:
    AutoNuma(MemoryManager &mm, AutoNumaParams params = {});

    /**
     * Record one access to the page containing @p vaddr in @p space,
     * issued from a CPU on @p cpuNode.
     */
    void recordAccess(AddressSpace &space, mem::Addr vaddr,
                      NodeId cpuNode);

    /**
     * Run one balancing scan: pick hot pages on nodes distant from
     * their accessor and migrate them closer. Access counters reset
     * afterwards (sliding window).
     * @return the migrations performed (already applied to the
     *         address spaces; callers charge the copy cost).
     */
    std::vector<Migration> scan();

    std::uint64_t migrations() const { return _migrations.value(); }

  private:
    struct PageHeat
    {
        AddressSpace *space;
        mem::Addr vaddr; // page-aligned
        NodeId accessor; // last accessing CPU node
        std::uint64_t count;
    };

    MemoryManager &_mm;
    AutoNumaParams _params;
    // key: (space, vpn) folded; value: heat record.
    std::unordered_map<std::uint64_t, PageHeat> _heat;
    sim::Counter _migrations;

    std::uint64_t key(const AddressSpace &space, mem::Addr vaddr) const;
    bool nodeHasHeadroom(NodeId node) const;
};

} // namespace tf::os

#endif // TF_OS_MIGRATION_HH
