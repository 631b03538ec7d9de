/*
 * SIGPROF stack sampler, loaded with LD_PRELOAD by tools/profile.py.
 *
 * ITIMER_PROF fires every 1/SAMPLE_HZ seconds of the process's CPU
 * time (all threads together), and the thread that was running takes
 * the signal. The handler records the interrupted PC and walks the
 * frame-pointer chain above it into a preallocated slot; an atomic
 * slot index lets handlers on several threads record at once, so
 * multi-threaded runs (tf_bench --jobs N) are safe. At exit the
 * samples and /proc/self/maps go to TF_SAMPLER_OUT.<pid>.<n>, which
 * profile.py symbolizes. TF_SAMPLER_OUT unset leaves the shim idle.
 *
 * The timer outlives execve but the handler does not, so the new
 * image would lose the samples and take the next SIGPROF with its
 * default action, which ends the process. The exec functions a
 * program calls directly (execve, execv, execvp, execvpe) are
 * therefore wrapped: they stop the timer and write the samples
 * first, and restart sampling if the exec fails. An image that
 * preloads the shim again samples afresh into the next <n>. execl*,
 * fexecve and raw syscalls are not wrapped.
 *
 * Only frames built with -fno-omit-frame-pointer chain to their
 * callers; the PC itself (self time) is exact in any code.
 */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

/* The kernel rounds a faster timer to its tick (250 Hz at HZ=250). */
#define SAMPLE_HZ 250
/* 800 CPU-seconds at SAMPLE_HZ; later samples are counted as dropped. */
#define MAX_SAMPLES 200000
#define MAX_DEPTH 64
/* A frame larger than this ends the walk as implausible. */
#define MAX_FRAME_BYTES (1u << 20)

struct slot
{
    uint64_t depth; /* written last: 0 = slot not (fully) recorded */
    uint64_t pc[MAX_DEPTH];
};

static struct slot *slots;
static uint64_t next_slot; /* atomic */
static uint64_t dropped;   /* atomic */
static uint64_t written;   /* slots below this are in an earlier dump */
static int probe[2] = {-1, -1};
static char out_base[4096];
static pid_t owner; /* a forked child that never execs writes nothing */
static struct sigaction old_action;

/*
 * Whether the 16 bytes at @p p can be read: write() reports EFAULT
 * for an unmapped or PROT_NONE page instead of faulting.
 */
static int
readable(const void *p)
{
    char sink[64];
    if (write(probe[1], p, 16) != 16)
        return 0;
    while (read(probe[0], sink, sizeof sink) > 0) {
    }
    return 1;
}

static void
on_sigprof(int sig, siginfo_t *info, void *uctx)
{
    (void)sig;
    (void)info;
    int saved = errno;
    uint64_t i = __atomic_fetch_add(&next_slot, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        errno = saved;
        return;
    }
    const ucontext_t *uc = (const ucontext_t *)uctx;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.sp;
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
#else
#error "tools/sampler.c: unsupported architecture"
#endif
    struct slot *s = &slots[i];
    uint64_t depth = 0;
    s->pc[depth++] = pc;
    /* Frame record: [fp] = caller's fp, [fp + 8] = return address. */
    uintptr_t floor = sp;
    uintptr_t checked = 0; /* page number known readable */
    while (depth < MAX_DEPTH && fp >= floor &&
           fp - floor < MAX_FRAME_BYTES && fp % sizeof(void *) == 0) {
        uintptr_t last = (fp + 2 * sizeof(void *) - 1) >> 12;
        if (fp >> 12 != checked || last != checked) {
            if (!readable((const void *)fp))
                break;
            checked = last;
        }
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0)
            break;
        s->pc[depth++] = frame[1];
        floor = fp + 2 * sizeof(void *);
        fp = frame[0];
    }
    __atomic_store_n(&s->depth, depth, __ATOMIC_RELEASE);
    errno = saved;
}

static void
set_timer(long interval_us)
{
    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = interval_us;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

static void
start_sampling(void)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    set_timer(1000000 / SAMPLE_HZ);
}

/*
 * Writes the samples recorded since the last dump, and the maps that
 * symbolize them, to the first free TF_SAMPLER_OUT.<pid>.<n>: an
 * exec keeps the pid, so each image of a process takes its own <n>.
 */
static void
dump(void)
{
    char path[sizeof out_base + 32];
    int fd = -1;
    for (int n = 0; fd < 0; ++n) {
        snprintf(path, sizeof path, "%s.%d.%d", out_base, (int)owner, n);
        fd = open(path, O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
        if (fd < 0 && errno != EEXIST) {
            fprintf(stderr, "sampler: %s: %s\n", path, strerror(errno));
            return;
        }
    }
    FILE *f = fdopen(fd, "w");
    if (f == NULL) {
        close(fd);
        return;
    }
    uint64_t end = __atomic_load_n(&next_slot, __ATOMIC_ACQUIRE);
    if (end > MAX_SAMPLES)
        end = MAX_SAMPLES;
    fprintf(f, "# tf-sampler pid=%d dropped=%llu\n", (int)owner,
            (unsigned long long)__atomic_exchange_n(&dropped, 0,
                                                    __ATOMIC_RELAXED));
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps != NULL) {
        char line[4096 + 256];
        while (fgets(line, sizeof line, maps) != NULL)
            fprintf(f, "M %s", line);
        fclose(maps);
    }
    for (uint64_t i = written; i < end; ++i) {
        uint64_t depth = __atomic_load_n(&slots[i].depth, __ATOMIC_ACQUIRE);
        if (depth == 0)
            continue;
        fputc('S', f);
        for (uint64_t d = 0; d < depth; ++d)
            fprintf(f, " %llx", (unsigned long long)slots[i].pc[d]);
        fputc('\n', f);
    }
    written = end;
    fclose(f);
}

__attribute__((constructor)) static void
sampler_start(void)
{
    const char *out = getenv("TF_SAMPLER_OUT");
    if (out == NULL || *out == '\0')
        return;
    owner = getpid();
    snprintf(out_base, sizeof out_base, "%s", out);

    /* Pages are touched only as slots fill. */
    slots = mmap(NULL, MAX_SAMPLES * sizeof(struct slot),
                 PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (slots == MAP_FAILED || pipe2(probe, O_NONBLOCK | O_CLOEXEC) != 0) {
        fprintf(stderr, "sampler: setup failed: %s\n", strerror(errno));
        slots = NULL;
        return;
    }
    sigaction(SIGPROF, NULL, &old_action);
    start_sampling();
}

__attribute__((destructor)) static void
sampler_stop(void)
{
    if (slots == NULL || getpid() != owner)
        return;
    set_timer(0);
    signal(SIGPROF, SIG_IGN);
    dump();
}

/*
 * Before an exec: stops the timer, drops a pending SIGPROF (setting
 * SIG_IGN discards it), hands the new image the disposition the shim
 * found, and writes the samples. Returns whether sampling must
 * restart should the exec fail.
 */
static int
exec_begin(void)
{
    if (slots == NULL || getpid() != owner)
        return 0;
    set_timer(0);
    signal(SIGPROF, SIG_IGN);
    sigaction(SIGPROF, &old_action, NULL);
    dump();
    return 1;
}

#define WRAP_EXEC(name, params, args)                                   \
    int name params                                                     \
    {                                                                   \
        static __typeof__(name) *real;                                  \
        if (real == NULL)                                               \
            real = (__typeof__(name) *)dlsym(RTLD_NEXT, #name);         \
        int began = exec_begin();                                       \
        int r = real args;                                              \
        int saved = errno;                                              \
        if (began)                                                      \
            start_sampling();                                           \
        errno = saved;                                                  \
        return r;                                                       \
    }

WRAP_EXEC(execve, (const char *p, char *const a[], char *const e[]),
          (p, a, e))
WRAP_EXEC(execv, (const char *p, char *const a[]), (p, a))
WRAP_EXEC(execvp, (const char *f, char *const a[]), (f, a))
WRAP_EXEC(execvpe, (const char *f, char *const a[], char *const e[]),
          (f, a, e))
