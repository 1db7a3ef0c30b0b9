// Sampling profiler for scripts/host_profile.sh, loaded with LD_PRELOAD.
// Every ~1 ms of process CPU time (ITIMER_PROF; the kernel's tick may make
// it coarser) SIGPROF records the interrupted call stack with backtrace().
// At exit the samples go to sigprof.out in the working directory, one line
// of hex addresses per sample (interrupted PC first), then a "maps" line and
// a copy of /proc/self/maps for symbolization.
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>

enum { kMaxDepth = 64, kSkip = 2, kCapacity = 1 << 22 };  // kSkip: handler + signal frame.

static void* samples[kCapacity];  // Per sample: its depth, then its frames.
static size_t used;

static void OnProf(int sig) {
  void* stack[kMaxDepth + kSkip];
  const size_t n = (size_t)backtrace(stack, kMaxDepth + kSkip) - kSkip;
  if ((long)n <= 0 || used + n + 1 > kCapacity) {
    return;
  }
  samples[used++] = (void*)n;
  memcpy(&samples[used], stack + kSkip, n * sizeof(void*));
  used += n;
}

__attribute__((constructor)) static void Start(void) {
  void* warm[1];
  backtrace(warm, 1);  // Loads the unwinder outside the signal handler.
  struct sigaction sa = {.sa_handler = OnProf, .sa_flags = SA_RESTART};
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void Stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  FILE* out = fopen("sigprof.out", "w");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (out == NULL || maps == NULL) {
    return;
  }
  for (size_t i = 0; i < used; i += 1 + (size_t)samples[i]) {
    for (size_t f = 1; f <= (size_t)samples[i]; ++f) {
      fprintf(out, f == 1 ? "%p" : " %p", samples[i + f]);
    }
    fputc('\n', out);
  }
  char line[4096];
  for (fputs("maps\n", out); fgets(line, sizeof(line), maps) != NULL;) {
    fputs(line, out);
  }
  fclose(maps);
  fclose(out);
}
