/**
 * @file
 * Heap high-water checks for SampleStat. mallinfo2 sees only the
 * current use, not the transient peak of a merge, so this binary
 * replaces the global operator new and delete to count the bytes
 * live and their high water. The replacement covers the whole
 * binary, which is why these tests live in their own.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"

namespace {

std::size_t gLive = 0; ///< usable bytes held through operator new
std::size_t gPeak = 0; ///< high water of gLive since the last reset

void *
countedAlloc(std::size_t n)
{
    void *p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr)
        throw std::bad_alloc();
    gLive += malloc_usable_size(p);
    gPeak = std::max(gPeak, gLive);
    return p;
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    gLive -= malloc_usable_size(p);
    std::free(p);
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

using tf::sim::Rng;
using tf::sim::SampleStat;

TEST(SampleStatHeap, MergesHoldNoSecondCopyOfTheRuns)
{
    // 200,000 distinct values in a seeded shuffle: every merge adds
    // runs. A store that builds each merged list beside the old one
    // peaks at twice the runs' size; merged in place, the peak is the
    // final heap (runs, chunk pointers and the add buffer's capacity)
    // plus at most the chunk-pointer vector's last doubling.
    std::vector<double> values(200000);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = 0.5 * static_cast<double>(i) + 3.0;
    Rng rng(24);
    for (std::size_t i = values.size() - 1; i > 0; --i)
        std::swap(values[i], values[rng.below(i + 1)]);

    std::size_t base = gLive;
    gPeak = gLive;
    {
        SampleStat s;
        for (double v : values)
            s.add(v);
        EXPECT_EQ(s.quantile(1.0), 0.5 * 199999.0 + 3.0);
        std::size_t final = gLive - base;
        std::size_t peak = gPeak - base;
        EXPECT_GE(final, values.size() * 16);
        EXPECT_LE(peak, final + 64 * 1024)
            << "peak " << peak << " B, final " << final << " B";
    }
    EXPECT_EQ(gLive, base);
}
