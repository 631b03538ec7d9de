/**
 * @file
 * In-memory application-level caching: Memcached + the "ETC" load
 * generator (Section VI-E).
 *
 * The server model is an LRU key-value cache: a slab of value slots
 * in a kernel-policy-placed address space, a hash-chain walk per
 * request (dependent cacheline accesses) and a value read/write
 * burst. The load generator follows the paper's setup: warm-up SETs
 * fill the cache to its configured size, then closed-loop client
 * threads issue GET/SET at 30:1 with keys drawn Zipf(theta) from a
 * larger key space, yielding the ~80% hit ratio reported for
 * Facebook's ETC pool.
 *
 * The scale-out configuration routes every request through a
 * Twemproxy model on server A that shards keys across both servers,
 * adding the proxy hop the paper describes.
 */

#ifndef TF_APPS_MEMCACHED_HH
#define TF_APPS_MEMCACHED_HH

#include <list>
#include <unordered_map>

#include "system/cpuset.hh"
#include "system/memory_path.hh"
#include "system/testbed.hh"

namespace tf::apps {

struct MemcachedParams
{
    /** LRU capacity in items (paper: 10 GiB; scaled by slot size). */
    std::uint64_t cacheItems = 200000;
    /** Key space size (paper: 15 GiB => 1.5x the cache). */
    std::uint64_t keySpaceItems = 300000;
    double zipfTheta = 1.0;
    /** Value slot (slab class) in bytes. */
    std::uint32_t slotBytes = 1024;
    /** Mean value size; sizes are log-normal, ETC-like small values. */
    std::uint32_t meanValueBytes = 400;
    /** Hash-chain walk depth (dependent accesses per lookup). */
    int chainDepth = 4;
    /** Server worker threads (libevent workers). */
    int workers = 32;
    /** Per-request server CPU cost (mean, normal jitter). */
    sim::Tick serviceCpu = sim::microseconds(60);
    sim::Tick serviceJitter = sim::microseconds(18);
    /**
     * Connection/buffer state the server touches per request
     * (rx/tx buffers, item headers, libevent state). These live in
     * policy-placed memory, which is what makes the end-to-end
     * latency sensitive to disaggregation in Fig. 8.
     */
    int bufferLines = 44;
    std::uint64_t bufferRegionBytes = 256ULL * 1024 * 1024;
    /**
     * Client-side stack cost per request (YCSB-style load generator,
     * kernel network stack): dominates the paper's ~600 us GET
     * round trip.
     */
    sim::Tick clientStack = sim::microseconds(470);
    sim::Tick clientJitter = sim::microseconds(55);
    /** Twemproxy per-request CPU cost (scale-out only). */
    sim::Tick proxyCpu = sim::microseconds(12);
    int clientThreads = 64;
    std::uint64_t requestsPerThread = 4000;
    double getFraction = 30.0 / 31.0; ///< GET:SET = 30:1
    std::uint64_t seed = 7;
};

struct MemcachedResult
{
    sim::SampleStat getLatencyUs;
    sim::SampleStat setLatencyUs;
    double hitRatio = 0;
    double throughputOps = 0;
    sim::Tick elapsed = 0;
};

/** One Memcached server instance bound to a node. */
class MemcachedServer
{
  public:
    MemcachedServer(std::string name, sys::Testbed &testbed,
                    sys::Node &node, os::AllocPolicy policy,
                    const MemcachedParams &params);

    /**
     * Handle a request for @p key.
     * @param isGet GET vs SET.
     * @param valueBytes value size (SET stores it; GET returns the
     *        stored size on hit).
     * @param done (hit, responseBytes) after CPU + memory work.
     */
    void handle(std::uint64_t key, bool isGet,
                std::uint32_t valueBytes,
                std::function<void(bool, std::uint32_t)> done);

    /** Warm-up SET (no CPU accounting, memory traffic only). */
    void warm(std::uint64_t key, std::uint32_t valueBytes,
              std::function<void()> done);

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }

  private:
    struct Item
    {
        std::uint64_t key;
        std::uint32_t slot;
        std::uint32_t bytes;
    };

    sys::Node &_node;
    const MemcachedParams &_params;
    os::AddressSpace _space;
    sys::MemoryPath _path;
    sys::CpuSet _workers;
    sim::Rng _rng;
    mem::Addr _slabBase = 0;
    mem::Addr _indexBase = 0;
    mem::Addr _bufferBase = 0;
    std::list<Item> _lru; // front = most recent
    std::unordered_map<std::uint64_t, std::list<Item>::iterator> _map;
    /** Slots never handed out: [0, _unusedSlots), highest first. */
    std::uint32_t _unusedSlots;
    sim::Counter _hits;
    sim::Counter _misses;

    std::vector<mem::Addr> chainAddrs(std::uint64_t key) const;
    std::vector<mem::Addr> valueAddrs(std::uint32_t slot,
                                      std::uint32_t bytes) const;
    /** LRU bookkeeping; returns the slot for the value. */
    std::uint32_t insert(std::uint64_t key, std::uint32_t bytes);
    void touch(std::uint64_t key);
};

/** Full benchmark: warm-up + timed closed-loop run per Fig. 8. */
class MemcachedBenchmark
{
  public:
    MemcachedBenchmark(sys::Testbed &testbed, MemcachedParams params);

    MemcachedResult run();

  private:
    sys::Testbed &_testbed;
    MemcachedParams _params;
    sim::Rng _rng;
    sim::ZipfGenerator _zipf;
    /** Halved per-server parameters used in the scale-out split. */
    std::unique_ptr<MemcachedParams> _halfParams;
    std::unique_ptr<MemcachedServer> _serverA;
    std::unique_ptr<MemcachedServer> _serverB; // scale-out only
    std::unique_ptr<sys::CpuSet> _proxy;       // scale-out only

    std::uint32_t sampleValueBytes();
    void warmup();
    /** Dispatch one request from the client; cb(getLatency, isGet). */
    void clientRequest(std::uint64_t key, bool isGet,
                       std::uint32_t bytes,
                       std::function<void(bool, bool)> done);
};

} // namespace tf::apps

#endif // TF_APPS_MEMCACHED_HH
