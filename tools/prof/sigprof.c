/* CPU sampler for a container without `perf`: LD_PRELOAD this into a
 * binary built with frame pointers. On every tick of CPU time (ITIMER_PROF
 * armed at 1 ms; the kernel rounds up to its own tick, 4 ms at HZ=250)
 * the SIGPROF handler walks the interrupted thread's frame-pointer chain
 * into a preallocated buffer; at exit the raw PCs are written, after a
 * copy of /proc/self/maps, to $PROF_OUT (default ./prof.raw) for
 * symbolise.py. Only the main thread's stack is walked (its bounds are
 * known, so a garbage %rbp — libc uses it as a plain register — ends the
 * walk instead of the process); other threads contribute their leaf PC.
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c          (x86-64 Linux)
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_WORDS (16u << 20) /* 128 MB of address space, touched as used: ~170 k samples */
#define MAX_DEPTH 96
static uintptr_t *buf, stack_lo, stack_hi;
static volatile size_t used; /* words; a sample is: depth, pc... */

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    ucontext_t *uc = ctx;
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP], fp = uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
    size_t at = __atomic_fetch_add(&used, MAX_DEPTH + 1, __ATOMIC_RELAXED), n = 0;
    if (at + MAX_DEPTH + 1 > MAX_WORDS) return;
    uintptr_t *s = buf + at;
    s[++n] = pc;
    if (sp >= stack_lo && sp < stack_hi)
        while (n < MAX_DEPTH && fp >= sp && fp + 16 <= stack_hi && fp % 8 == 0) {
            uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
            if (ret < 4096) break;
            s[++n] = ret;
            if (next <= fp) break;
            fp = next;
        }
    s[0] = n;
}

__attribute__((constructor)) static void start(void) {
    pthread_attr_t a;
    void *lo;
    size_t len;
    pthread_getattr_np(pthread_self(), &a);
    pthread_attr_getstack(&a, &lo, &len);
    stack_lo = (uintptr_t)lo, stack_hi = stack_lo + len;
    buf = calloc(MAX_WORDS, sizeof *buf);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tv = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof.raw", "w"), *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    for (size_t at = 0; at + MAX_DEPTH + 1 <= used && at + MAX_DEPTH + 1 <= MAX_WORDS; at += MAX_DEPTH + 1) {
        fputs("S", out);
        for (size_t i = 1; i <= buf[at]; i++) fprintf(out, " %lx", (unsigned long)buf[at + i]);
        fputs("\n", out);
    }
    fclose(out);
}
