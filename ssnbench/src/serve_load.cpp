#include "serve_load.hpp"

#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

namespace ssnbench {

namespace sv = ssnkit::serve;

sv::ServerConfig server_config(const ServeLoadConfig& config) {
  sv::ServerConfig sc;
  sc.threads = config.pool_threads;
  // Deep enough that a host stall never sheds: a shed is a failed answer.
  sc.queue_capacity = 1024;
  sc.isolate = config.process ? sv::IsolateMode::kProcess
                              : sv::IsolateMode::kThread;
  return sc;
}

double hit_rate(const sv::ResultCache::Stats& stats) {
  const double lookups = double(stats.hits + stats.misses);
  return lookups > 0.0 ? double(stats.hits) / lookups : 0.0;
}

namespace {

/// Requests each set-up generates: the head of the stream. Enough that
/// generating them, not thread start-up, is most of a set-up's work.
constexpr std::size_t kSetupRequests = 4096;
constexpr std::chrono::milliseconds kSetupGap{50};

/// Sleep most of the way to `due_ns`, then spin the last stretch: on a
/// virtual machine a sleep can wake hundreds of microseconds late, which
/// would show up as latency.
void wait_until_ns(std::int64_t due_ns) {
  const std::int64_t remain = due_ns - now_ns();
  if (remain > 400'000)
    std::this_thread::sleep_for(std::chrono::nanoseconds(remain - 300'000));
  while (now_ns() < due_ns) {
  }
}

}  // namespace

ServeLoad::ServeLoad(const ServeLoadConfig& config,
                           const Calibrations& calibrations)
    : config_(config),
      cal_(calibrations),
      gen_(config.seed, config.repeat_frac, calibrations),
      side_gen_(config.seed ^ 0x9e3779b97f4a7c15ULL, config.repeat_frac,
               calibrations) {
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    // The host's speed changes within a second: set-ups spread over a few
    // seconds give a steadier median than a burst of them.
    if (rep > 0) std::this_thread::sleep_for(kSetupGap);
    server_.reset();
    const std::int64_t cpu0 = cpu_ns();
    gen_.restart();
    const std::size_t first = items_.size();
    for (int t = 0; t < int(kTechs.size()); ++t)
      for (int g = 0; g < int(kGoldens.size()); ++g)
        items_.push_back(gen_.warmup(t, g));
    answers_.resize(items_.size());
    sent_ns_.resize(items_.size());
    head_.clear();
    for (std::size_t k = 0; k < kSetupRequests; ++k)
      head_.push_back(gen_.next());
    server_ = std::make_unique<sv::Server>(server_config(config));
    server_->set_event_sink([](const std::string&) {});
    for (std::size_t i = first; i < items_.size(); ++i) submit(i);
    wait_answers(items_.size(), 60.0);
    setup_s_.push_back(double(cpu_ns() - cpu0) * 1e-9);
  }
}

ServeLoad::~ServeLoad() { server_.reset(); }

void ServeLoad::reserve(std::size_t requests) {
  // Construct and drop the records once, so their pages are resident from
  // the start and peak RSS does not depend on how many requests a run sent.
  const std::size_t n = items_.size();
  items_.resize(n + requests);
  answers_.resize(n + requests);
  sent_ns_.resize(n + requests);
  items_.resize(n);
  answers_.resize(n);
  sent_ns_.resize(n);
}

std::int64_t ServeLoad::cpu_ns() const {
  std::int64_t ns = process_cpu_ns();
  if (const sv::Supervisor* sup = server_ ? server_->supervisor() : nullptr)
    for (long pid : sup->worker_pids()) {
      // First field of a thread's schedstat: nanoseconds it spent on a CPU.
      std::error_code ec;
      const std::filesystem::path tasks = "/proc/" + std::to_string(pid) + "/task";
      for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
        std::ifstream in(task.path() / "schedstat");
        std::int64_t on_cpu = 0;
        if (in >> on_cpu) ns += on_cpu;
      }
    }
  return ns;
}

GenItem ServeLoad::next_item() {
  return head_sent_ < head_.size() ? head_[head_sent_++] : gen_.next();
}

void ServeLoad::submit(std::size_t index) {
  sent_ns_[index] = now_ns();
  server_->submit_line(request_line(items_[index], index),
                       [this, index](const std::string& line) {
                         on_answer(index, line);
                       });
}

void ServeLoad::on_answer(std::size_t index, const std::string& line) {
  const GenItem& item = items_[index];
  record_answer(line, keeps_fragment(item), answers_[index]);
  answered_.fetch_add(1, std::memory_order_acq_rel);
  if (!chain_.load(std::memory_order_acquire)) return;
  if (answers_[index].done_ns < stop_ns_.load(std::memory_order_acquire)) {
    const std::size_t next = next_.fetch_add(1, std::memory_order_acq_rel);
    if (next < chain_end_) {
      submit(next);
      return;
    }
  }
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
}

void ServeLoad::wait_answers(std::size_t upto, double timeout_s) {
  const std::int64_t give_up = now_ns() + std::int64_t(timeout_s * 1e9);
  while (answered_.load(std::memory_order_acquire) < upto &&
         now_ns() < give_up)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
}

OpenLoop ServeLoad::open_loop(double seconds, double rate) {
  OpenLoop out;
  out.first = items_.size();
  const std::size_t count = std::size_t(std::llround(rate * seconds));
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    items_.push_back(next_item());
    lines.push_back(request_line(items_.back(), out.first + k));
  }
  answers_.resize(items_.size());
  sent_ns_.resize(items_.size());
  out.due_ns.resize(count);
  out.submit_begin_ns.resize(count);
  out.submit_end_ns.resize(count);
  Rng arrivals(config_.seed ^ 0x5bd1e995ULL);
  std::int64_t due = now_ns() + 2'000'000;
  for (std::size_t k = 0; k < count; ++k) {
    due += std::int64_t(-std::log(1.0 - arrivals.uniform()) / rate * 1e9);
    out.due_ns[k] = due;
  }
  for (std::size_t k = 0; k < count; ++k) {
    wait_until_ns(out.due_ns[k]);
    const std::size_t index = out.first + k;
    out.submit_begin_ns[k] = sent_ns_[index] = now_ns();
    server_->submit_line(lines[k], [this, index](const std::string& line) {
      on_answer(index, line);
    });
    out.submit_end_ns[k] = now_ns();
  }
  wait_answers(items_.size(), 60.0);
  for (std::size_t k = 0; k < count; ++k)
    out.end_ns = std::max(out.end_ns, answers_[out.first + k].done_ns);
  return out;
}

ClosedLoop ServeLoad::run_closed(double seconds, int window,
                                    std::vector<GenItem> batch) {
  ClosedLoop out;
  out.first = items_.size();
  items_.insert(items_.end(), batch.begin(), batch.end());
  answers_.resize(items_.size());
  sent_ns_.resize(items_.size());
  chain_end_ = items_.size();
  const std::size_t start_count = std::min<std::size_t>(window, batch.size());
  next_.store(out.first + start_count);
  outstanding_.store(int(start_count));
  const std::int64_t cpu_start = cpu_ns();
  out.start_ns = now_ns();
  out.stop_ns = out.start_ns + std::int64_t(seconds * 1e9);
  stop_ns_.store(out.stop_ns);
  chain_.store(true);
  for (std::size_t k = 0; k < start_count; ++k) submit(out.first + k);
  const std::int64_t give_up = out.stop_ns + 60'000'000'000LL;
  while (outstanding_.load(std::memory_order_acquire) > 0 && now_ns() < give_up)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  out.cpu_ns = cpu_ns() - cpu_start;
  chain_.store(false);
  const std::size_t sent = std::min(next_.load(), chain_end_);
  if (sent == chain_end_)
    std::fprintf(stderr, "warning: closed loop used all %zu pre-generated "
                         "requests before its time ran out\n", batch.size());
  items_.resize(sent);
  answers_.resize(sent);
  sent_ns_.resize(sent);
  out.count = sent - out.first;
  std::int64_t last = out.start_ns;
  for (std::size_t i = out.first; i < sent; ++i) {
    const Answer& a = answers_[i];
    if (a.ok() && a.done_ns <= out.stop_ns) ++out.ok_in_window;
    last = std::max(last, a.done_ns);
  }
  // Ran out of requests early: rate over the time actually loaded.
  if (sent == chain_end_) out.stop_ns = std::min(out.stop_ns, last);
  return out;
}

ClosedLoop ServeLoad::closed_loop(double seconds, int window,
                                     std::size_t cap) {
  std::vector<GenItem> batch;
  batch.reserve(cap);
  for (std::size_t k = 0; k < cap; ++k) batch.push_back(next_item());
  return run_closed(seconds, window, std::move(batch));
}

ClosedLoop ServeLoad::mc_loop(double seconds, int window, std::size_t cap) {
  std::vector<GenItem> batch;
  batch.reserve(cap);
  for (std::size_t k = 0; k < cap; ++k) batch.push_back(side_gen_.next_mc());
  return run_closed(seconds, window, std::move(batch));
}

ClosedLoop ServeLoad::sim_loop(double seconds, int window,
                                  std::size_t cap) {
  // n cycles through 1..16 in seeded order, so every block of 16 requests
  // costs the same whatever the seed.
  std::vector<GenItem> batch;
  batch.reserve(cap);
  Rng order(config_.seed ^ 0x27d4eb2fULL);
  std::vector<int> block(16);
  while (batch.size() < cap) {
    for (int i = 0; i < 16; ++i) block[std::size_t(i)] = i + 1;
    for (std::size_t i = block.size() - 1; i > 0; --i)
      std::swap(block[i], block[std::size_t(order.raw() % (i + 1))]);
    for (int n : block)
      if (batch.size() < cap) batch.push_back(side_gen_.next_sim(n));
  }
  return run_closed(seconds, window, std::move(batch));
}

CheckTally ServeLoad::check(std::size_t sample_cap) const {
  return check_serve_answers(items_, answers_, cal_, config_.seed, sample_cap);
}

}  // namespace ssnbench
