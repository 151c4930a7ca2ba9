/* Allocation call-site sampler: LD_PRELOAD this into a binary built with
 * frame pointers (Rust's std has them since 1.79). Every 64th call to
 * malloc / calloc / realloc records the requested size and the
 * frame-pointer chain of the caller; at exit the samples are written,
 * after a copy of /proc/self/maps, to $PROF_OUT (default ./alloc.raw)
 * for `symbolise.py --alloc`. Single-threaded workloads only: the walk
 * stays inside the main thread's stack, and the sample table is not
 * locked.
 *
 *   gcc -O2 -shared -fPIC -fno-omit-frame-pointer -o mallocsites.so mallocsites.c
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

extern void *__libc_malloc(size_t), *__libc_calloc(size_t, size_t), *__libc_realloc(void *, size_t);
#define EVERY 64
#define MAX_SAMPLES (1u << 19) /* 109 MB of address space, touched as used */
#define DEPTH 24
static uintptr_t samples[MAX_SAMPLES][DEPTH + 2]; /* size, depth, pc... */
static size_t calls, taken;
static uintptr_t stack_hi; /* 0 until the constructor ran: no sampling before */

static void sample(size_t size, uintptr_t *fp) {
    if (++calls % EVERY || taken == MAX_SAMPLES || !stack_hi) return;
    uintptr_t *s = samples[taken++], n = 0;
    s[0] = size;
    while (n < DEPTH && ((uintptr_t)fp & 7) == 0 && (uintptr_t)fp + 16 <= stack_hi) {
        uintptr_t *next = (uintptr_t *)fp[0];
        if (fp[1] < 4096) break;
        s[2 + n++] = fp[1];
        if (next <= fp) break;
        fp = next;
    }
    s[1] = n;
}

__attribute__((constructor)) static void start(void) {
    pthread_attr_t a;
    void *lo;
    size_t len;
    pthread_getattr_np(pthread_self(), &a);
    pthread_attr_getstack(&a, &lo, &len);
    stack_hi = (uintptr_t)lo + len;
}

void *malloc(size_t n) { sample(n, __builtin_frame_address(0)); return __libc_malloc(n); }
void *calloc(size_t k, size_t n) { sample(k * n, __builtin_frame_address(0)); return __libc_calloc(k, n); }
void *realloc(void *p, size_t n) { sample(n, __builtin_frame_address(0)); return __libc_realloc(p, n); }

__attribute__((destructor)) static void finish(void) {
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "alloc.raw", "w"), *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    fprintf(out, "C %zu %d\n", calls, EVERY);
    for (size_t i = 0; i < taken; i++) {
        fprintf(out, "A %lu", (unsigned long)samples[i][0]);
        for (size_t k = 0; k < samples[i][1]; k++) fprintf(out, " %lx", (unsigned long)samples[i][2 + k]);
        fputs("\n", out);
    }
    fclose(out);
}
