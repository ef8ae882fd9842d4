/* pcprof: a flat PC sampler loaded with LD_PRELOAD.

   A CLOCK_PROCESS_CPUTIME_ID timer raises SIGPROF every millisecond of
   process CPU time (the kernel checks the timer on its tick, so the
   real rate is at most CONFIG_HZ per CPU second). The handler records
   the interrupted instruction pointer and nothing else: it never walks
   the stack, so it cannot trip over OCaml 5 effect fibers, whose stacks
   defeat unwinding profilers. It runs on its own signal stack, since a
   fiber stack has little room for a signal frame.

   At exit the sampler writes PCPROF_OUT (default pcprof.out): a copy of
   /proc/self/maps, a line "--", then one hex PC per sample.
   tools/pcprof/pcprof.py turns that file into a flat profile. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>

#define CAP (1 << 20)
#define ALT_STACK (64 * 1024)
#define PERIOD_NS 1000000

static uintptr_t *pcs;
static volatile sig_atomic_t n;
static timer_t timer;

static void on_sample(int sig, siginfo_t *si, void *ctx) {
  (void)sig;
  (void)si;
  if (n < CAP) pcs[n++] = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void pcprof_start(void) {
  /* reserved, not committed: pages appear as samples fill them */
  pcs = mmap(NULL, CAP * sizeof *pcs, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (pcs == MAP_FAILED) return;
  stack_t ss = {.ss_sp = malloc(ALT_STACK), .ss_size = ALT_STACK, .ss_flags = 0};
  if (ss.ss_sp == NULL || sigaltstack(&ss, NULL) != 0) return;
  struct sigaction sa = {0};
  sa.sa_sigaction = on_sample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent sev = {0};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &timer) != 0) return;
  struct itimerspec its = {0};
  its.it_interval.tv_nsec = PERIOD_NS;
  its.it_value = its.it_interval;
  timer_settime(timer, 0, &its, NULL);
}

__attribute__((destructor)) static void pcprof_stop(void) {
  if (pcs == NULL || pcs == MAP_FAILED) return;
  struct itimerspec off = {0};
  timer_settime(timer, 0, &off, NULL);
  const char *path = getenv("PCPROF_OUT");
  FILE *out = fopen(path ? path : "pcprof.out", "w");
  FILE *maps = fopen("/proc/self/maps", "r");
  if (out == NULL || maps == NULL) return;
  char line[4096];
  while (fgets(line, sizeof line, maps)) fputs(line, out);
  fclose(maps);
  fputs("--\n", out);
  for (sig_atomic_t i = 0; i < n; i++) fprintf(out, "%lx\n", (unsigned long)pcs[i]);
  fclose(out);
}
