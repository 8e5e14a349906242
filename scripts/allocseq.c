/*
 * allocseq: an LD_PRELOAD library that hashes a process's sequence of heap
 * calls, so two builds can be shown to allocate alike.
 *
 * Every malloc, calloc, realloc, posix_memalign, aligned_alloc, memalign
 * and free is forwarded to glibc and folded, as a (call, size) pair, into
 * a 64-bit FNV-1a hash. The size is the chunk glibc carves for the request
 * (request + 8, rounded up to 16, at least 32): the unit the heap's layout
 * is made of. So a wall-clock reading formatted into a string, a byte or
 * two longer in one run than in the next, stays in its chunk and does not
 * move the hash. getrandom() is pinned to a fixed byte stream, so the
 * HashMap seeds, and with them every table's growth, repeat from run to
 * run. At exit the process appends one line to the file named by
 * $ALLOCSEQ_OUT:
 *
 *     <basename of argv[0]> <argv[1..]>\tcalls=<n>\thash=<16 hex digits>
 *
 * The hash covers the calls' order and sizes, not their addresses. A
 * process with more than one thread allocating folds its calls in
 * scheduling order, so its hash is only as stable as that order.
 *
 * Build and use (scripts/allocseq.sh does both):
 *
 *     cc -O2 -shared -fPIC -o allocseq.so scripts/allocseq.c
 *     ALLOCSEQ_OUT=seq.txt LD_PRELOAD=$PWD/allocseq.so <command>
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/types.h>
#include <unistd.h>

/* glibc's own entry points: no dlsym, so no allocation while resolving. */
extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

enum call { MALLOC = 1, CALLOC, REALLOC, MEMALIGN, FREE };

static uint64_t hash = 0xcbf29ce484222325ull;
static uint64_t calls;
static char argv_line[1024];

static void fold(uint64_t v)
{
    for (int i = 0; i < 8; i++) {
        hash ^= (v >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
}

static void record(enum call c, size_t size)
{
    size_t chunk = (size + 8 + 15) & ~(size_t)15;
    fold((uint64_t)c);
    fold((uint64_t)(chunk < 32 ? 32 : chunk));
    calls++;
}

void *malloc(size_t size)
{
    record(MALLOC, size);
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size)
{
    record(CALLOC, n * size);
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t size)
{
    record(REALLOC, size);
    return __libc_realloc(p, size);
}

void free(void *p)
{
    record(FREE, 0);
    __libc_free(p);
}

void *memalign(size_t align, size_t size)
{
    record(MEMALIGN, size);
    return __libc_memalign(align, size);
}

void *aligned_alloc(size_t align, size_t size)
{
    return memalign(align, size);
}

int posix_memalign(void **out, size_t align, size_t size)
{
    void *p = memalign(align, size);
    if (p == NULL)
        return ENOMEM;
    *out = p;
    return 0;
}

/* A fixed stream: byte i of the process's getrandom output is i * 37. */
ssize_t getrandom(void *buf, size_t len, unsigned int flags)
{
    static uint8_t next;
    (void)flags;
    for (size_t i = 0; i < len; i++, next += 37)
        ((uint8_t *)buf)[i] = next;
    return (ssize_t)len;
}

/* glibc hands constructors the process's arguments. */
__attribute__((constructor)) static void start(int argc, char **argv)
{
    size_t at = 0;
    for (int i = 0; i < argc && at + 1 < sizeof argv_line; i++) {
        const char *a = argv[i];
        if (i == 0 && strrchr(a, '/'))
            a = strrchr(a, '/') + 1;
        int n = snprintf(argv_line + at, sizeof argv_line - at, "%s%s",
                         i ? " " : "", a);
        if (n < 0)
            break;
        at += (size_t)n;
    }
}

__attribute__((destructor)) static void finish(void)
{
    const char *path = getenv("ALLOCSEQ_OUT");
    if (path == NULL)
        return;
    char line[sizeof argv_line + 64];
    int n = snprintf(line, sizeof line, "%s\tcalls=%llu\thash=%016llx\n",
                     argv_line, (unsigned long long)calls,
                     (unsigned long long)hash);
    int fd = open(path, O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0 || n < 0)
        return;
    /* One write per line: O_APPEND keeps concurrent processes' lines whole. */
    ssize_t w = write(fd, line, (size_t)n < sizeof line ? (size_t)n : sizeof line - 1);
    (void)w;
    close(fd);
}
