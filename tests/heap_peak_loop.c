/*
 * The program tests/check_heap_peak.py runs under tools/heap_peak.py:
 * small blocks that live to the end, a large block that
 * transient_peak() allocates and frees in between, and more small
 * blocks after it. The heap peaks inside transient_peak().
 */

#include <stdlib.h>
#include <string.h>

#define SMALL 1000

static void *keep[2 * SMALL];

__attribute__((noinline)) static void
long_lived(int from, int to)
{
    for (int i = from; i < to; ++i) {
        keep[i] = malloc(256);
        memset(keep[i], 1, 256);
    }
}

__attribute__((noinline)) void
transient_peak(void)
{
    /* 8 MiB, touched so the compiler cannot drop it. */
    volatile char *big = malloc(8u << 20);
    big[0] = 1;
    big[(8u << 20) - 1] = 2;
    free((void *)big);
}

int
main(void)
{
    long_lived(0, SMALL);
    transient_peak();
    long_lived(SMALL, 2 * SMALL);
    for (int i = 0; i < 2 * SMALL; ++i)
        free(keep[i]);
    return 0;
}
