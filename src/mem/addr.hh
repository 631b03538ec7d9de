/**
 * @file
 * Address types and geometry constants.
 *
 * The POWER9 issues 128-byte cacheline load/store transactions onto the
 * OpenCAPI port (Section VI-C); that granularity is load-bearing for the
 * whole reproduction (it caps the C1-mode bandwidth at ~16 GiB/s).
 */

#ifndef TF_MEM_ADDR_HH
#define TF_MEM_ADDR_HH

#include <cstdint>

namespace tf::mem {

/** A (real, effective or device-internal) memory address. */
using Addr = std::uint64_t;

/** POWER9 cacheline size in bytes. */
constexpr std::uint32_t cachelineBytes = 128;

/** Base page size used by the simulated kernel (POWER9 uses 64 KiB). */
constexpr std::uint64_t pageBytes = 64 * 1024;

/**
 * Sparse-memory-model section size. The Linux kernel on ppc64 uses
 * 256 MiB sections; the RMMU section table is indexed at this
 * granularity (Section IV-A1). Kept configurable in tests via
 * SectionTable, but this is the default.
 */
constexpr std::uint64_t sectionBytes = 256ULL * 1024 * 1024;

constexpr Addr
alignDown(Addr a, std::uint64_t unit)
{
    return a - (a % unit);
}

constexpr Addr
alignUp(Addr a, std::uint64_t unit)
{
    Addr r = a % unit;
    return r == 0 ? a : a + (unit - r);
}

constexpr bool
isAligned(Addr a, std::uint64_t unit)
{
    return a % unit == 0;
}

constexpr std::uint64_t
pageIndex(Addr a)
{
    return a / pageBytes;
}

} // namespace tf::mem

#endif // TF_MEM_ADDR_HH
