// Span recorder for the traced run: the harness brackets each call it makes
// into a program layer with a span, keeps every span in memory, and at the
// end computes per-name self time (duration minus the time covered by child
// spans on the same thread) and writes a Chrome trace-event file.
//
// Recording is off in untraced runs; a disabled span costs one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns() noexcept;

struct SpanRecord {
  const char* name;        ///< static-lifetime literal
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t child_ns;  ///< time covered by direct children (same thread)
  std::uint32_t id;        ///< 1-based index within its thread
  std::uint32_t parent;    ///< id of the enclosing span, 0 for a root
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class Spans {
 public:
  static void enable(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread; returns its slot for close().
  static std::size_t open(const char* name) noexcept;
  static void close(std::size_t slot) noexcept;
  /// A root span whose interval was measured elsewhere (an open-loop
  /// request, timed from its intended send to its reply).
  static void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) noexcept;

  /// Call when no thread is recording.
  [[nodiscard]] static std::map<std::string, SpanTotals> totals();
  [[nodiscard]] static std::size_t count();
  static bool write_chrome_trace(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span; a no-op while recording is off.
class Span {
 public:
  explicit Span(const char* name) noexcept
      : slot_(Spans::enabled() ? Spans::open(name) : kNone) {}
  ~Span() {
    if (slot_ != kNone) Spans::close(slot_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t slot_;
};

}  // namespace perfbench
