/* Nanosecond monotonic clock and peak resident set size for the
   benchmark. Neither allocates on the OCaml heap, so probes placed
   around a layer's calls do not perturb its allocation counts. */
#include <time.h>
#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

/* ru_maxrss is in KiB on Linux. */
value perfbench_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  getrusage(RUSAGE_SELF, &ru);
  return Val_long((intnat)ru.ru_maxrss);
}
