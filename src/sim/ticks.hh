/**
 * @file
 * Simulation time base.
 *
 * One tick equals one picosecond. The prototype's three mesochronous
 * clock domains all run at 401 MHz (Section V of the paper), i.e. a
 * period of ~2494 ps; picosecond resolution keeps the domain ratios and
 * serDES/FPGA-stack crossing latencies exact.
 */

#ifndef TF_SIM_TICKS_HH
#define TF_SIM_TICKS_HH

#include <cstdint>

namespace tf::sim {

/** Simulation time, in picoseconds. */
using Tick = std::uint64_t;

/** A tick value meaning "never" / "not scheduled". */
constexpr Tick maxTick = ~Tick(0);

constexpr Tick ticksPerPs = 1;
constexpr Tick ticksPerNs = 1000 * ticksPerPs;
constexpr Tick ticksPerUs = 1000 * ticksPerNs;
constexpr Tick ticksPerMs = 1000 * ticksPerUs;
constexpr Tick ticksPerSec = 1000 * ticksPerMs;

/**
 * The most a duration read from outside the program may hold. A Tick
 * holds 2^64 ps, about 213 days, and the conversions below are
 * undefined past it. A run also adds such values to the clock and to
 * each other (now + a link's latency, a fault's start + length, the
 * timeline's window boundaries), so one that merely fits a Tick can
 * still wrap mid-run. Bounds far below 2^64 ps leave room for those
 * sums: a delay (one hop, one access, one latency spike) is at most a
 * simulated second, an instant or span of the run at most a simulated
 * hour.
 */
constexpr Tick maxDelay = ticksPerSec;
constexpr Tick maxSpan = 3600 * ticksPerSec;

/** Convert a duration in nanoseconds to ticks. */
constexpr Tick
nanoseconds(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(ticksPerNs));
}

/** Convert a duration in microseconds to ticks. */
constexpr Tick
microseconds(double us)
{
    return static_cast<Tick>(us * static_cast<double>(ticksPerUs));
}

/** Convert a duration in milliseconds to ticks. */
constexpr Tick
milliseconds(double ms)
{
    return static_cast<Tick>(ms * static_cast<double>(ticksPerMs));
}

/** Convert a duration in seconds to ticks. */
constexpr Tick
seconds(double s)
{
    return static_cast<Tick>(s * static_cast<double>(ticksPerSec));
}

/** Convert ticks to (double) nanoseconds. */
constexpr double
toNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerNs);
}

/** Convert ticks to (double) microseconds. */
constexpr double
toUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerUs);
}

/** Convert ticks to (double) seconds. */
constexpr double
toSec(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerSec);
}

} // namespace tf::sim

#endif // TF_SIM_TICKS_HH
