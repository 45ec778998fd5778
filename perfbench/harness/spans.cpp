#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

std::atomic<bool> Spans::enabled_{false};

namespace {

struct ThreadLog {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::size_t> stack;  ///< open span slots, innermost last
};

std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mu

ThreadLog& local_log() {
  thread_local ThreadLog* log = [] {
    std::scoped_lock lock(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->tid = static_cast<std::uint32_t>(g_logs.size());
    g_logs.back()->spans.reserve(1 << 16);
    return g_logs.back().get();
  }();
  return *log;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::size_t Spans::open(const char* name) noexcept {
  ThreadLog& log = local_log();
  const std::uint32_t parent =
      log.stack.empty() ? 0 : log.spans[log.stack.back()].id;
  log.spans.push_back({name, now_ns(), 0, 0, static_cast<std::uint32_t>(log.spans.size() + 1),
                       parent});
  log.stack.push_back(log.spans.size() - 1);
  return log.spans.size() - 1;
}

void Spans::close(std::size_t slot) noexcept {
  ThreadLog& log = local_log();
  SpanRecord& span = log.spans[slot];
  span.end_ns = now_ns();
  log.stack.pop_back();
  if (!log.stack.empty()) log.spans[log.stack.back()].child_ns += span.end_ns - span.start_ns;
}

void Spans::record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) noexcept {
  if (!enabled()) return;
  ThreadLog& log = local_log();
  log.spans.push_back(
      {name, start_ns, end_ns, 0, static_cast<std::uint32_t>(log.spans.size() + 1), 0});
}

std::map<std::string, SpanTotals> Spans::totals() {
  std::map<std::string, SpanTotals> out;
  std::scoped_lock lock(g_logs_mu);
  for (const auto& log : g_logs)
    for (const SpanRecord& s : log->spans) {
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      t.self_ms += static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-6;
    }
  return out;
}

std::size_t Spans::count() {
  std::scoped_lock lock(g_logs_mu);
  std::size_t n = 0;
  for (const auto& log : g_logs) n += log->spans.size();
  return n;
}

bool Spans::write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::scoped_lock lock(g_logs_mu);
  std::uint64_t epoch = ~std::uint64_t{0};
  for (const auto& log : g_logs)
    for (const SpanRecord& s : log->spans) epoch = std::min(epoch, s.start_ns);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& log : g_logs)
    for (const SpanRecord& s : log->spans) {
      out << (first ? "" : ",") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << log->tid << ",\"ts\":" << static_cast<double>(s.start_ns - epoch) * 1e-3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"self_us\":" << static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-3
          << "}}";
      first = false;
    }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
