/**
 * @file
 * Per-process virtual address space (page-granular page table).
 *
 * Workload models allocate their data through an AddressSpace; the
 * backing page frames are placed by the kernel's NUMA policy and may
 * later be moved by AutoNUMA page migration without the application
 * noticing -- exactly the transparency property the paper's design
 * provides to unmodified binaries.
 */

#ifndef TF_OS_ADDRESS_SPACE_HH
#define TF_OS_ADDRESS_SPACE_HH

#include <optional>
#include <unordered_map>

#include "mem/addr.hh"
#include "os/memory_manager.hh"

namespace tf::os {

class AddressSpace
{
  public:
    AddressSpace(MemoryManager &mm, NodeId homeNode,
                 AllocPolicy policy = AllocPolicy::local());

    NodeId homeNode() const { return _homeNode; }
    /** Manager-scoped id; stable across runs, unlike `this`. */
    std::uint64_t id() const { return _id; }
    AllocPolicy &policy() { return _policy; }
    void setPolicy(AllocPolicy p) { _policy = std::move(p); }

    /**
     * Reserve @p bytes of virtual space; pages are faulted in lazily
     * on first translation. @return the virtual base address.
     */
    mem::Addr mmap(std::uint64_t bytes);

    /** Unmap and free every frame of a previous mmap. */
    void munmap(mem::Addr vbase, std::uint64_t bytes);

    /**
     * Virtual -> physical translation, faulting the page in under the
     * current policy if needed. Returns nullopt when the system is
     * out of memory under the policy. A mapping whose frame was
     * poisoned (hwpoison after a remote-memory error) is torn down and
     * re-faulted to a fresh frame, so the application transparently
     * leaves the dead memory behind — at the cost of losing the
     * page's contents, exactly like a fresh anonymous page.
     */
    std::optional<mem::Addr> translate(mem::Addr vaddr);

    /** NUMA node currently backing @p vaddr (faults the page in). */
    NodeId nodeOf(mem::Addr vaddr);

    /**
     * Replace the frame backing @p vaddr (page migration). The old
     * frame is freed; the page table is updated atomically.
     */
    void remap(mem::Addr vaddr, mem::Addr newFrame);

    std::uint64_t mappedPages() const { return _pageTable.size(); }
    std::uint64_t faults() const { return _faults; }
    /** Pages re-faulted away from a poisoned frame. */
    std::uint64_t refaults() const { return _refaults; }

    /** Pages resident on each node (diagnostic, O(pages)). */
    std::unordered_map<NodeId, std::uint64_t> residency() const;

  private:
    MemoryManager &_mm;
    std::uint64_t _id;
    NodeId _homeNode;
    AllocPolicy _policy;
    mem::Addr _nextVBase = 0x0000'7f00'0000'0000ULL;
    std::unordered_map<std::uint64_t, mem::Addr> _pageTable; // vpn->frame
    std::uint64_t _faults = 0;
    std::uint64_t _refaults = 0;

    std::uint64_t
    vpn(mem::Addr vaddr) const
    {
        return vaddr / _mm.pageBytes();
    }
};

} // namespace tf::os

#endif // TF_OS_ADDRESS_SPACE_HH
