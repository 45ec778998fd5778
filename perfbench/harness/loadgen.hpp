// Open-loop load generator: one thread, epoll over a few non-blocking
// connections, pipelined binary frames (net/frame.hpp encoders) sent on a
// fixed schedule whatever the server's pace. Every request is timed from
// its *intended* send time, so a stall is charged to every request it
// delays (no coordinated omission). Each tenant is pinned to one
// connection, so the server sees its requests in schedule order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

enum class Kind : std::uint8_t { kPredict, kObserve, kText };

struct Request {
  std::uint64_t at_ns = 0;  ///< intended send time, relative to the run start
  std::uint32_t tenant = 0;
  Kind kind = Kind::kPredict;
  std::uint8_t horizon = 0;       ///< kPredict
  bool sample = false;            ///< keep the forecast for the reference check
  std::uint32_t first = 0;        ///< kObserve: values[first, first+count); kText: texts[first]
  std::uint32_t count = 0;
};

struct Schedule {
  std::vector<Request> requests;  ///< sorted by at_ns
  std::vector<double> values;
  std::vector<std::string> texts;  ///< text-protocol lines, without '\n'
};

enum class Status : std::uint8_t {
  kPending,       ///< never answered (counted as a disconnect)
  kOk,
  kShed,          ///< admission control refused it
  kError,         ///< kError frame or a text reply not starting with "OK"
  kNotLive,       ///< forecast served below DegradationLevel::kLive
  kBadReply,      ///< wrong frame type, wrong length or non-finite forecast
  kDisconnected,  ///< the connection failed before the reply arrived
};

struct RunResult {
  std::vector<Status> status;            ///< per request
  std::vector<std::uint64_t> latency_ns; ///< reply time - intended send time
  std::vector<std::uint64_t> lag_ns;     ///< actual send time - intended send time
  std::unordered_map<std::uint32_t, std::vector<double>> forecasts;  ///< sampled requests
  double send_window_s = 0;  ///< first to last intended send
  double elapsed_s = 0;      ///< first intended send to last reply
  /// Offered over achieved time: below 1 when replies trailed the schedule.
  [[nodiscard]] double achieved_ratio() const {
    return elapsed_s > 0 ? send_window_s / elapsed_s : 1.0;
  }
};

class LoadGen {
 public:
  /// Connects `connections` sockets to 127.0.0.1:`port`. Throws on failure.
  LoadGen(std::uint16_t port, std::size_t connections, std::vector<std::string> tenants);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Sends `schedule` open-loop and waits up to `drain_timeout_s` after the
  /// last send for the remaining replies.
  [[nodiscard]] RunResult run(const Schedule& schedule, double drain_timeout_s = 5.0);

  [[nodiscard]] const std::string& tenant(std::uint32_t i) const { return tenants_[i]; }

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::string> tenants_;
  int epoll_fd_ = -1;
};

}  // namespace perfbench
