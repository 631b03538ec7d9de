/*
 * Input for check_profile.py: about nine tenths of the CPU time goes
 * to hot_loop(), always called through outer(), and the rest to
 * cold_loop(). Given a path, it then execs that program without
 * LD_PRELOAD, so the new image has no SIGPROF handler.
 */

#include <stdint.h>
#include <stdlib.h>
#include <unistd.h>

static volatile uint64_t sink;

__attribute__((noinline)) static uint64_t
hot_loop(uint64_t n)
{
    uint64_t x = 1;
    for (uint64_t i = 0; i < n; ++i)
        x = x * 6364136223846793005ULL + i;
    return x;
}

__attribute__((noinline)) static uint64_t
cold_loop(uint64_t n)
{
    uint64_t x = 3;
    for (uint64_t i = 0; i < n; ++i)
        x = x * 2862933555777941757ULL + i;
    return x;
}

__attribute__((noinline)) static uint64_t
outer(uint64_t n)
{
    return hot_loop(n) + 1;
}

int
main(int argc, char **argv)
{
    /* Arguments vary by round, so no call can be hoisted out. */
    for (uint64_t round = 0; round < 10; ++round) {
        sink += outer(18000000 + round);
        sink += cold_loop(2000000 + round);
    }
    if (argc > 1) {
        unsetenv("LD_PRELOAD");
        execv(argv[1], argv + 1);
        return 1;
    }
    return 0;
}
