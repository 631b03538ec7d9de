/*
 * Live-heap tracker, loaded with LD_PRELOAD by tools/heap_peak.py.
 *
 * Wraps malloc, calloc, realloc, free, posix_memalign, aligned_alloc,
 * memalign and malloc_usable_size over glibc's __libc_* allocator.
 * Each block carries a 16-byte header with its requested size and
 * its allocation site: a hash of the first MAX_DEPTH return
 * addresses backtrace() gives for the call. Per site the shim keeps
 * the bytes live; whenever the process's live total passes the last
 * copy's total by SNAP_STEP bytes it copies the per-site column, so
 * the copy is within SNAP_STEP of the live peak. At exit the peak,
 * the copy, each site's frames and /proc/self/maps go to
 * TF_HEAP_OUT.<pid>, which heap_peak.py symbolizes; a forked child
 * that never execs writes nothing. TF_HEAP_OUT unset leaves the shim
 * counting but silent.
 *
 * The counts are requested bytes, not the allocator's rounding or
 * the headers. A block allocated inside the shim's own backtrace()
 * (the unwinder loading itself) or while it writes its dump counts
 * under site 0, "no site".
 */

#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

/* Return addresses hashed into a site (the shim's own frames too). */
#define MAX_DEPTH 10
#define MAX_SITES (1u << 16)
#define INDEX_SLOTS (1u << 17)
#define SNAP_STEP (64u << 10)
#define MAGIC 0x7466u

struct header
{
    uint64_t size : 48;  /* requested bytes */
    uint64_t magic : 16; /* MAGIC while the block is live */
    uint32_t site;       /* index into the site arrays */
    uint32_t offset;     /* user pointer minus the block's base */
};

_Static_assert(sizeof(struct header) == 16, "header keeps 16-byte alignment");

struct site
{
    uint64_t hash;
    uint64_t depth;
    void *pc[MAX_DEPTH];
};

static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static struct site *sites;  /* [0, nsites): dense, never removed */
static uint64_t *live;      /* bytes live per site */
static uint64_t *snap;      /* live[] at the last copy */
static uint32_t *index_of;  /* hash slot -> site + 1; 0 = empty */
static uint32_t nsites = 1; /* site 0: no site */
static uint32_t snap_sites;
static uint64_t live_total, peak_total, snap_total, allocs;
static int frozen; /* the dump has begun: the copy stays as it is */
static char out_base[4096];
static pid_t owner;
static __thread int busy __attribute__((tls_model("initial-exec")));

static void *
map(size_t bytes)
{
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

/*
 * The tables are made on first use: the loader may allocate before
 * the shim's constructor runs. Pages are touched only as sites fill.
 * Called with the lock held.
 */
static int
ready(void)
{
    if (sites != NULL)
        return 1;
    live = map(MAX_SITES * sizeof *live);
    snap = map(MAX_SITES * sizeof *snap);
    index_of = map(INDEX_SLOTS * sizeof *index_of);
    sites = map(MAX_SITES * sizeof *sites);
    return sites != NULL && live != NULL && snap != NULL &&
           index_of != NULL;
}

/* The site of @p depth return addresses; called with the lock held. */
static uint32_t
find_site(void *const *pc, int depth)
{
    uint64_t h = 1469598103934665603ull; /* FNV-1a over the addresses */
    for (int i = 0; i < depth; ++i)
        h = (h ^ (uint64_t)(uintptr_t)pc[i]) * 1099511628211ull;
    for (uint32_t slot = (uint32_t)(h >> 32) % INDEX_SLOTS;;
         slot = (slot + 1) % INDEX_SLOTS) {
        uint32_t s = index_of[slot];
        if (s == 0) {
            if (nsites == MAX_SITES)
                return 0; /* full: later sites count as no site */
            s = nsites++;
            sites[s].hash = h;
            sites[s].depth = (uint64_t)depth;
            memcpy(sites[s].pc, pc, (size_t)depth * sizeof *pc);
            index_of[slot] = s + 1;
            return s;
        }
        if (sites[s - 1].hash == h)
            return s - 1;
    }
}

/* Heads the block at @p base and counts it; returns the user pointer. */
static void *
track(char *base, size_t offset, size_t size)
{
    if (base == NULL)
        return NULL;
    struct header *h = (struct header *)(base + offset) - 1;
    h->size = size;
    h->magic = MAGIC;
    h->site = 0;
    h->offset = (uint32_t)offset;

    void *pc[MAX_DEPTH];
    int depth = 0;
    if (!busy) {
        busy = 1;
        depth = backtrace(pc, MAX_DEPTH);
        busy = 0;
    }
    pthread_mutex_lock(&lock);
    if (ready()) {
        if (depth > 0)
            h->site = find_site(pc, depth);
        live[h->site] += size;
        live_total += size;
        ++allocs;
        if (live_total > peak_total)
            peak_total = live_total;
        if (!frozen && live_total >= snap_total + SNAP_STEP) {
            memcpy(snap, live, nsites * sizeof *live);
            snap_sites = nsites;
            snap_total = live_total;
        }
    }
    pthread_mutex_unlock(&lock);
    return h + 1;
}

/* The header of a block the shim made, or NULL for any other. */
static struct header *
ours(void *p)
{
    struct header *h = (struct header *)p - 1;
    return h->magic == MAGIC ? h : NULL;
}

void *
malloc(size_t size)
{
    if (size > ((uint64_t)1 << 48) - 1) {
        errno = ENOMEM;
        return NULL;
    }
    return track(__libc_malloc(size + sizeof(struct header)),
                 sizeof(struct header), size);
}

void
free(void *p)
{
    if (p == NULL)
        return;
    struct header *h = ours(p);
    if (h == NULL) {
        __libc_free(p);
        return;
    }
    pthread_mutex_lock(&lock);
    if (sites != NULL) {
        live[h->site] -= h->size;
        live_total -= h->size;
    }
    pthread_mutex_unlock(&lock);
    h->magic = 0;
    __libc_free((char *)p - h->offset);
}

void *
calloc(size_t n, size_t size)
{
    if (size != 0 && n > ((((uint64_t)1 << 48) - 1) / size)) {
        errno = ENOMEM;
        return NULL;
    }
    return track(__libc_calloc(1, n * size + sizeof(struct header)),
                 sizeof(struct header), n * size);
}

void *
realloc(void *p, size_t size)
{
    if (p == NULL)
        return malloc(size);
    struct header *h = ours(p);
    if (h == NULL)
        return __libc_realloc(p, size);
    if (size == 0) {
        free(p);
        return NULL;
    }
    void *q = malloc(size);
    if (q == NULL)
        return NULL;
    memcpy(q, p, h->size < size ? h->size : size);
    free(p);
    return q;
}

static void *
aligned(size_t align, size_t size)
{
    if (align <= sizeof(struct header))
        return malloc(size);
    if (size > ((uint64_t)1 << 48) - 1 || align > UINT32_MAX) {
        errno = ENOMEM;
        return NULL;
    }
    /* The header sits at the end of the first alignment unit. */
    return track(__libc_memalign(align, size + align), align, size);
}

int
posix_memalign(void **out, size_t align, size_t size)
{
    if (align < sizeof(void *) || (align & (align - 1)) != 0)
        return EINVAL;
    void *p = aligned(align, size);
    if (p == NULL)
        return ENOMEM;
    *out = p;
    return 0;
}

void *
aligned_alloc(size_t align, size_t size)
{
    if (align == 0 || (align & (align - 1)) != 0) {
        errno = EINVAL;
        return NULL;
    }
    return aligned(align, size);
}

void *
memalign(size_t align, size_t size)
{
    return aligned_alloc(align, size);
}

size_t
malloc_usable_size(void *p)
{
    struct header *h = p == NULL ? NULL : ours(p);
    return h == NULL ? 0 : (size_t)h->size;
}

static void
dump(void)
{
    pthread_mutex_lock(&lock);
    frozen = 1;
    uint64_t peak = peak_total, total = snap_total, count = allocs;
    uint32_t n = snap_sites;
    pthread_mutex_unlock(&lock);

    char path[sizeof out_base + 16];
    snprintf(path, sizeof path, "%s.%d", out_base, (int)owner);
    busy = 1; /* stdio's own buffers are no site */
    FILE *f = fopen(path, "we");
    if (f == NULL) {
        fprintf(stderr, "heap_peak: %s: %s\n", path, strerror(errno));
        busy = 0;
        return;
    }
    fprintf(f, "# tf-heap-peak pid=%d peak=%llu snap=%llu allocs=%llu\n",
            (int)owner, (unsigned long long)peak,
            (unsigned long long)total, (unsigned long long)count);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps != NULL) {
        char line[4096 + 256];
        while (fgets(line, sizeof line, maps) != NULL)
            fprintf(f, "M %s", line);
        fclose(maps);
    }
    /* Sites are never removed and the copy is frozen: no lock. */
    for (uint32_t s = 0; s < n; ++s) {
        if (snap[s] == 0)
            continue;
        fprintf(f, "S %llu", (unsigned long long)snap[s]);
        for (uint64_t d = 0; d < sites[s].depth; ++d)
            fprintf(f, " %llx",
                    (unsigned long long)(uintptr_t)sites[s].pc[d]);
        fputc('\n', f);
    }
    fclose(f);
    busy = 0;
}

__attribute__((constructor)) static void
heap_peak_start(void)
{
    owner = getpid();
    const char *out = getenv("TF_HEAP_OUT");
    if (out != NULL)
        snprintf(out_base, sizeof out_base, "%s", out);
    /* The unwinder loads itself on the first backtrace(): do it now,
     * under the guard, so its allocations are no site. */
    void *pc[1];
    busy = 1;
    backtrace(pc, 1);
    busy = 0;
}

__attribute__((destructor)) static void
heap_peak_stop(void)
{
    if (out_base[0] != '\0' && getpid() == owner && sites != NULL)
        dump();
}
