#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <fstream>
#include <utility>

namespace ssnbench {

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int Tracer::begin(const char* name, std::uint64_t request,
                  int parent) {
  const std::int64_t t = now_ns();
  return add(name, request, parent, t, t);
}

void Tracer::end(int index) { spans_[std::size_t(index)].end_ns = now_ns(); }

int Tracer::add(const char* name, std::uint64_t request, int parent,
                std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{name, request, parent, start_ns, end_ns});
  return int(spans_.size()) - 1;
}

std::vector<double> Tracer::self_ns() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[std::size_t(s.parent)].emplace_back(s.start_ns, s.end_ns);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // end of the union so far
    for (const auto& [a, b] : kids) {
      const std::int64_t lo = std::max(a, cursor);
      const std::int64_t hi = std::min(b, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = double(s.end_ns - s.start_ns - covered);
  }
  return self;
}

std::map<std::string, std::vector<double>> Tracer::self_ns_by_name() const {
  const std::vector<double> self = self_ns();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name].push_back(self[i]);
  return out;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  out << "request\tname\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans_)
    out << s.request << '\t' << s.name << '\t' << s.parent << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  return bool(out);
}

}  // namespace ssnbench
