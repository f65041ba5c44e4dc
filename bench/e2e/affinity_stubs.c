/* CPU affinity of the calling thread, for pinning the children the
   benchmark spawns (a child inherits the affinity of the thread that
   forks it).  Linux only, as the rest of the benchmark. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on; [||] if they cannot be read. */
value bench_get_affinity(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n = 0, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    CAMLreturn(Atom(0));
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) n++;
  if (n == 0)
    CAMLreturn(Atom(0));
  cpus = caml_alloc_tuple(n);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) Store_field(cpus, k++, Val_int(c));
  CAMLreturn(cpus);
}

/* Restrict the calling thread to [cpus]; false if the kernel refused. */
value bench_set_affinity(value cpus)
{
  CAMLparam1(cpus);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) {
    long c = Long_val(Field(cpus, i));
    if (c < 0 || c >= CPU_SETSIZE) CAMLreturn(Val_false);
    CPU_SET(c, &set);
  }
  CAMLreturn(Val_bool(sched_setaffinity(0, sizeof set, &set) == 0));
}
