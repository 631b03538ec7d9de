/**
 * @file
 * One AC922-class server node.
 *
 * Bundles the per-host pieces: NUMA topology + memory manager, DRAM
 * with functional backing store, PASID registry, the trusted agent,
 * and a host bus that steers cacheline transactions either to local
 * DRAM or into an attached ThymesisFlow compute endpoint's M1 window.
 */

#ifndef TF_SYS_NODE_HH
#define TF_SYS_NODE_HH

#include <memory>

#include "agent/agent.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "os/pagecache/pagecache.hh"
#include "tflow/datapath.hh"

namespace tf::sys {

struct NodeParams
{
    /** Parallel hardware threads (dual-socket POWER9: 32c x SMT4). */
    int hwThreads = 128;
    /** Local DRAM model. */
    mem::DramParams dram{.accessLatency = sim::nanoseconds(90),
                         .bandwidthBps = 110e9};
    /** Shared last-level cache model used by workload models. */
    mem::CacheParams cache{64 * 1024 * 1024, 8, 128};
    /** Kernel section size (scaled down for simulation). */
    std::uint64_t sectionBytes = 1ULL << 24; // 16 MiB
    std::uint64_t pageBytes = 64 * 1024;
    /** Boot-time local memory, in sections. */
    std::uint64_t bootSections = 64; // 1 GiB at 16 MiB sections
    std::string agentToken = "cp-secret";
};

class Node : private mem::ErrorSink
{
  public:
    Node(std::string name, sim::EventQueue &eq, NodeParams params);

    const std::string &name() const { return _name; }
    const NodeParams &params() const { return _params; }
    sim::EventQueue &eventQueue() { return _eq; }

    os::NumaTopology &topology() { return _topo; }
    os::MemoryManager &mm() { return *_mm; }
    os::NodeId localNode() const { return _localNode; }
    os::NodeId tflowNode() const { return _tflowNode; }

    mem::BackingStore &store() { return _store; }
    mem::Dram &dram() { return *_dram; }
    mem::Cache &cache() { return _cache; }
    ocapi::PasidRegistry &pasids() { return _pasids; }
    agent::Agent &agent() { return *_agent; }

    /**
     * Attach a compute-side datapath: transactions landing in its M1
     * window are forwarded over ThymesisFlow instead of local DRAM.
     */
    void attachDatapath(flow::Datapath &dp);
    flow::Datapath *datapath() { return _datapath; }

    /**
     * Interpose a page cache on the remote path: M1-window requests
     * go through the cache (hits stay in local DRAM, misses stream
     * the page from the donor) instead of straight to the datapath.
     */
    void attachPageCache(os::PageCache &pc);
    os::PageCache *pageCache() { return _pageCache; }

    /**
     * Host bus entry: route a cacheline request by physical address
     * (local DRAM, or the M1 window). onComplete fires on response.
     */
    void issue(mem::TxnPtr txn);

    std::uint64_t localAccesses() const { return _localAccesses.value(); }
    std::uint64_t remoteAccesses() const
    {
        return _remoteAccesses.value();
    }
    /** Remote accesses that error-completed (frame poisoned). */
    std::uint64_t remoteErrors() const { return _remoteErrors.value(); }

  private:
    std::string _name;
    sim::EventQueue &_eq;
    NodeParams _params;
    os::NumaTopology _topo;
    std::unique_ptr<os::MemoryManager> _mm;
    os::NodeId _localNode = os::invalidNode;
    os::NodeId _tflowNode = os::invalidNode;
    mem::BackingStore _store;
    std::unique_ptr<mem::Dram> _dram;
    mem::Cache _cache;
    ocapi::PasidRegistry _pasids;
    std::unique_ptr<agent::Agent> _agent;
    flow::Datapath *_datapath = nullptr;
    os::PageCache *_pageCache = nullptr;
    sim::Counter _localAccesses;
    sim::Counter _remoteAccesses;
    sim::Counter _remoteErrors;

    /** A remote access error-completed: poison its host page. */
    void txnFailed(const mem::MemTxn &txn) override;
};

} // namespace tf::sys

#endif // TF_SYS_NODE_HH
