/* Process CPU time (user + sys) with nanosecond resolution, for the
   per-op host timings; Sys.time only resolves microseconds. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_cpu_seconds(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_cpu_seconds_byte(value unit)
{
  return caml_copy_double(perfbench_cpu_seconds(unit));
}
