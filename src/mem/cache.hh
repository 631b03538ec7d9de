/**
 * @file
 * Set-associative cache model (tags only).
 *
 * Workload models use this to decide which accesses reach memory. The
 * paper's analysis hinges on cache behaviour: Memcached's high locality
 * keeps disaggregated latency hidden (Section VI-E), while STREAM's
 * streaming pattern defeats the cache entirely (Section VI-C). A real
 * tag array -- rather than a fixed hit ratio -- lets those behaviours
 * emerge from the access patterns.
 */

#ifndef TF_MEM_CACHE_HH
#define TF_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/addr.hh"
#include "sim/stats.hh"

namespace tf::mem {

struct CacheParams
{
    std::uint64_t sizeBytes = 10 * 1024 * 1024; // L3-slice class
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = cachelineBytes;
};

/** Outcome of one cache access. */
struct CacheResult
{
    bool hit = false;
    /** A dirty line was evicted; its address (for write-back traffic). */
    bool writeback = false;
    Addr victimAddr = 0;
};

/**
 * LRU, write-allocate. Each set keeps its valid lines as one 64-bit
 * word apiece, `lineNumber << 1 | dirty`, most recently used first,
 * plus a count of how many words are valid. An 8-way set is 64 B, the
 * size of one host cache line; the victim is always the last valid
 * word, so no LRU clock is needed.
 */
class Cache
{
  public:
    explicit Cache(CacheParams params);

    /**
     * Look up @p addr, filling on miss (write-allocate).
     * @param write marks the line dirty on hit/fill.
     */
    CacheResult access(Addr addr, bool write);

    /** Invalidate the whole cache (e.g. between benchmark phases). */
    void flush();

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    std::uint64_t writebacks() const { return _writebacks.value(); }
    double hitRatio() const;

    std::uint32_t sets() const { return _sets; }
    const CacheParams &params() const { return _params; }

  private:
    CacheParams _params;
    std::uint32_t _sets;
    unsigned _lineShift; // log2(lineBytes)
    /** sets x ways words, row-major, MRU first; sized lazily. */
    std::vector<std::uint64_t> _words;
    /** Valid words per set: slots [0, count) of its row. */
    std::vector<std::uint32_t> _valid;
    sim::Counter _hits;
    sim::Counter _misses;
    sim::Counter _writebacks;
};

} // namespace tf::mem

#endif // TF_MEM_CACHE_HH
