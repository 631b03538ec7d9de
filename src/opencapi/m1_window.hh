/**
 * @file
 * OpenCAPI M1-mode address window.
 *
 * In M1 (memory controller) mode the firmware assigns the device a
 * portion of the host real address space; cacheline transactions whose
 * real address falls in the window are steered to the device, which
 * sees them in its internal address space starting at 0x0 (Fig. 3).
 */

#ifndef TF_OCAPI_M1_WINDOW_HH
#define TF_OCAPI_M1_WINDOW_HH

#include "mem/addr.hh"
#include "sim/logging.hh"

namespace tf::ocapi {

/** Host real address of the ThymesisFlow M1 window in every rig. */
constexpr mem::Addr kM1WindowBase = 0x2000000000ULL;

struct M1Window
{
    mem::Addr base = 0;
    std::uint64_t size = 0;

    bool
    contains(mem::Addr real, std::uint64_t len = 1) const
    {
        return real >= base && real + len <= base + size;
    }

    /** Host real address -> device-internal address (starts at 0x0). */
    mem::Addr
    toInternal(mem::Addr real) const
    {
        TF_ASSERT(contains(real), "address outside M1 window");
        return real - base;
    }

    /** Device-internal address -> host real address. */
    mem::Addr
    toReal(mem::Addr internal) const
    {
        TF_ASSERT(internal < size, "internal address outside window");
        return base + internal;
    }
};

} // namespace tf::ocapi

#endif // TF_OCAPI_M1_WINDOW_HH
