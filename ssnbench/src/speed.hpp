// Host speed. On a shared host the CPU time a fixed piece of work takes
// moves by a fifth or more over minutes (frequency, and neighbours on the
// same physical cores), so two runs of the same program can differ by more
// than the benchmark's bounds on CPU time alone. The benchmark therefore
// times a fixed reference kernel of its own, interleaved with the workload,
// and scales its CPU-time metrics to a nominal host speed. The kernel uses
// only the standard library, so no change to the program can move it.
#pragma once

#include <vector>

namespace ssnbench {

/// Thread CPU time of one run of the reference kernel: integer hashing,
/// floating-point math and hash-table inserts, about 2 ms on a 4-vCPU
/// Xeon virtual machine.
double reference_cpu_s();

/// Reference-kernel samples taken through a run.
class HostSpeed {
 public:
  /// Time the kernel `reps` times (call while the workload is idle).
  void sample(int reps = 5);
  /// Nominal kernel time / median measured kernel time: above 1 on a host
  /// faster than nominal. A CPU time t scales to t * factor(), a rate r per
  /// CPU second to r / factor(). 1 before any sample.
  double factor() const;
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace ssnbench
