// In-memory span recorder for the traced run. The benchmark records a span
// around each call it makes into a layer: name, start, end, the span that
// caused it, and the request it belongs to. Spans stay in memory until the
// run ends and are then written out as one TSV file.
//
// A layer's self time is its span's duration minus the part of that
// interval covered by its children; children may overlap each other, so the
// covered part is the length of the union of their clipped intervals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ssnbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (one time base for every span).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of this process, all threads, in nanoseconds. The kernel
/// leaves out time a virtual CPU spent preempted by its host (steal), so on
/// a shared host it varies far less than wall time does.
std::int64_t process_cpu_ns();

struct Span {
  const char* name = "";  ///< a string literal: recording never allocates
  std::uint64_t request = 0;
  int parent = -1;  ///< index of the causing span, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Open a span now; returns its index for end() and as a parent.
  int begin(const char* name, std::uint64_t request, int parent = -1);
  void end(int index);
  /// Record an already-timed span.
  int add(const char* name, std::uint64_t request, int parent,
          std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Self time of every span, index-aligned with spans().
  std::vector<double> self_ns() const;

  /// Self times grouped by span name.
  std::map<std::string, std::vector<double>> self_ns_by_name() const;

  /// Write every span as TSV: request, name, parent, start_ns, end_ns.
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: begin on construction, end on destruction.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t request,
        int parent = -1)
      : tracer_(tracer),
        index_(tracer ? tracer->begin(name, request, parent) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace ssnbench
