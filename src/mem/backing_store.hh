/**
 * @file
 * Sparse functional memory.
 *
 * Holds the actual bytes behind simulated physical memory so that the
 * datapath can be verified end-to-end: a value stored through the
 * ThymesisFlow stack must read back identically from donor memory.
 * Absent pages read as zeros; a page is allocated (zero-filled) only
 * when a write puts a nonzero byte in it, so timing-only traffic costs
 * no host memory.
 */

#ifndef TF_MEM_BACKING_STORE_HH
#define TF_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "mem/addr.hh"

namespace tf::mem {

class BackingStore
{
  public:
    BackingStore() = default;
    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    /** Copy @p len bytes at @p addr into @p dst; absent pages read 0. */
    void read(Addr addr, void *dst, std::uint64_t len) const;

    /**
     * Copy @p len bytes from @p src into memory at @p addr. An
     * all-zero chunk aimed at an absent page is dropped (it already
     * reads as zeros).
     */
    void write(Addr addr, const void *src, std::uint64_t len);

    /** Read a little-endian 64-bit word. */
    std::uint64_t read64(Addr addr) const;

    /** Write a little-endian 64-bit word. */
    void write64(Addr addr, std::uint64_t value);

    /** Number of pages allocated (written with a nonzero byte) so far. */
    std::size_t touchedPages() const { return _pages.size(); }

    /** Drop all contents. */
    void clear() { _pages.clear(); }

  private:
    using Page = std::array<std::uint8_t, pageBytes>;
    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> _pages;
};

} // namespace tf::mem

#endif // TF_MEM_BACKING_STORE_HH
