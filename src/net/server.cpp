#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.hpp"
#include "fault/fallback.hpp"
#include "fault/injector.hpp"
#include "net/frame.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serving/protocol.hpp"

namespace ld::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Admission class of one request. Ingest sheds first: a dropped observation
/// costs a sliver of future accuracy, a dropped prediction breaks a live
/// control loop.
enum class ShedClass { kNever, kIngest, kPredict };

struct Classified {
  ShedClass cls = ShedClass::kNever;
  const char* verb = "";  ///< label for ld_shed_total{verb=}
};

Classified classify_text(const std::string& line) {
  std::size_t begin = line.find_first_not_of(" \t");
  if (begin == std::string::npos) return {};
  std::size_t end = line.find_first_of(" \t", begin);
  if (end == std::string::npos) end = line.size();
  std::string verb = line.substr(begin, end - begin);
  std::transform(verb.begin(), verb.end(), verb.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (verb == "OBSERVE") return {ShedClass::kIngest, "OBSERVE"};
  if (verb == "INGEST") return {ShedClass::kIngest, "INGEST"};
  if (verb == "PREDICT") return {ShedClass::kPredict, "PREDICT"};
  if (verb == "BATCH") return {ShedClass::kPredict, "BATCH"};
  return {};
}

Classified classify_frame(Op op) {
  switch (op) {
    case Op::kObserveReq: return {ShedClass::kIngest, "BOBSERVE"};
    case Op::kPredictReq: return {ShedClass::kPredict, "BPREDICT"};
    default: return {};
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw std::runtime_error("net: fcntl(O_NONBLOCK) failed");
}

}  // namespace

struct Server::Impl {
  serving::PredictionService& service;
  const ServerConfig& config;
  std::atomic<bool>& stop_flag;
  std::atomic<bool>& drain_flag;
  serving::LineProtocol protocol;

  int listen_fd = -1;
  int wake_rd = -1;  ///< self-pipe read end: stop() wakes the wait
  int wake_wr = -1;
  int epoll_fd = -1;

  struct Connection {
    std::string inbuf;
    std::string outbuf;
    Clock::time_point last_active;
    std::uint32_t events = 0;       ///< currently registered interest mask
    bool close_after_flush = false; ///< QUIT or peer EOF: flush, then close
    bool http = false;              ///< sniffed as HTTP: one request, then close
    std::size_t http_drained = 0;   ///< header bytes discarded after the GET line
  };
  std::map<int, Connection> conns;

  struct Request {
    int fd = -1;
    bool binary = false;
    Op op = Op::kError;
    std::string payload;     ///< frame payload (binary), command line (text),
                             ///< or URL path (http)
    bool http = false;       ///< ops-plane GET: never shed, close after reply
    bool shed = false;       ///< admission already answered: payload is the reply
    std::uint64_t id = 0;    ///< request id for trace flow stitching (0 = none)
  };
  std::deque<Request> pending;
  /// Shed replies in `pending`: queued for reply order, not counted as work.
  std::size_t queued_sheds = 0;
  std::uint64_t next_request_id = 0;  ///< minted at the front-end door

  // Instruments (resolved once; the registry outlives the server).
  obs::Gauge* connections_open;
  obs::Gauge* pending_requests;
  obs::Counter* accepted_total;
  obs::Counter* accept_faults;
  obs::Counter* read_errors;
  obs::Counter* protocol_errors;
  obs::Counter* idle_closed;
  obs::Counter* requests_text;
  obs::Counter* requests_binary;
  obs::Counter* requests_http;
  obs::Counter* epoll_wakeups;
  obs::Gauge* conn_buffer_bytes;
  obs::Counter* short_writes;
  obs::Counter* overlong_disconnects;
  obs::SloTracker* shed_slo;
  std::map<std::string, obs::Counter*> shed;

  Impl(serving::PredictionService& svc, const ServerConfig& cfg, std::atomic<bool>& stop,
       std::atomic<bool>& drain)
      : service(svc), config(cfg), stop_flag(stop), drain_flag(drain), protocol(svc) {
    auto& reg = obs::MetricsRegistry::global();
    connections_open = &reg.gauge("ld_net_connections_open");
    pending_requests = &reg.gauge("ld_net_pending_requests");
    accepted_total = &reg.counter("ld_net_accepted_total");
    accept_faults = &reg.counter("ld_net_accept_errors_total");
    read_errors = &reg.counter("ld_net_read_errors_total");
    protocol_errors = &reg.counter("ld_net_protocol_errors_total");
    idle_closed = &reg.counter("ld_net_idle_closed_total");
    requests_text = &reg.counter("ld_net_requests_total", {{"transport", "text"}});
    requests_binary = &reg.counter("ld_net_requests_total", {{"transport", "binary"}});
    requests_http = &reg.counter("ld_net_requests_total", {{"transport", "http"}});
    epoll_wakeups = &reg.counter("ld_net_epoll_wakeups_total");
    conn_buffer_bytes = &reg.gauge("ld_net_conn_buffer_bytes");
    short_writes = &reg.counter("ld_net_short_writes_total");
    overlong_disconnects = &reg.counter("ld_net_overlong_disconnects_total");
    // Shed-rate SLO: every admission decision is a good/bad event, so the
    // burn rate tracks "fraction of requests shed" over the dual windows.
    shed_slo = &obs::slo_tracker("shed_rate", {0.01, 60, 3600});
    // Eagerly register every sheddable verb at zero so a scrape can assert
    // "nothing shed" without special-casing absent series.
    for (const char* verb : {"OBSERVE", "INGEST", "PREDICT", "BATCH", "BOBSERVE",
                             "BPREDICT"})
      shed[verb] = &reg.counter("ld_shed_total", {{"verb", verb}});
  }

  ~Impl() {
    for (auto& [fd, conn] : conns) ::close(fd);
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_rd >= 0) ::close(wake_rd);
    if (wake_wr >= 0) ::close(wake_wr);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  std::uint16_t bind_and_listen() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) throw std::runtime_error("net: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config.port);
    if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1)
      throw std::runtime_error("net: bad listen address '" + config.host + "'");
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0)
      throw std::runtime_error("net: cannot bind " + config.host + ":" +
                               std::to_string(config.port) + " (" +
                               std::strerror(errno) + ")");
    if (::listen(listen_fd, 256) < 0) throw std::runtime_error("net: listen() failed");
    set_nonblocking(listen_fd);

    int pipe_fds[2];
    if (::pipe(pipe_fds) < 0) throw std::runtime_error("net: pipe() failed");
    wake_rd = pipe_fds[0];
    wake_wr = pipe_fds[1];
    set_nonblocking(wake_rd);
    set_nonblocking(wake_wr);

    epoll_fd = ::epoll_create1(0);
    if (epoll_fd < 0) throw std::runtime_error("net: epoll_create1() failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev);
    ev.data.fd = wake_rd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_rd, &ev);

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0)
      throw std::runtime_error("net: getsockname() failed");
    return ntohs(bound.sin_port);
  }

  void wake() {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(wake_wr, &byte, 1);
  }

  struct Ready {
    int fd;
    bool readable;
    bool writable;
  };

  std::vector<Ready> wait_ready(int timeout_ms) {
    std::vector<Ready> out;
    epoll_event events[128];
    const int n = ::epoll_wait(epoll_fd, events, 128, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const auto& ev = events[i];
      // Treat error/hangup as readable: the next read reports the condition.
      out.push_back({ev.data.fd,
                     (ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0,
                     (ev.events & EPOLLOUT) != 0});
    }
    return out;
  }

  void register_conn(int fd) {
    Connection conn;
    conn.last_active = Clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    conn.events = EPOLLIN;
    conns.emplace(fd, std::move(conn));
    connections_open->set(static_cast<double>(conns.size()));
  }

  void close_conn(int fd) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    // Drain anything still unread (e.g. trailing HTTP headers that landed in
    // a second segment): closing with bytes in the receive queue makes the
    // kernel send RST, which can discard a flushed-but-unacked response.
    char sink[1024];
    while (::recv(fd, sink, sizeof sink, MSG_DONTWAIT) > 0) {}
    ::close(fd);
    conns.erase(fd);
    connections_open->set(static_cast<double>(conns.size()));
  }

  void update_interest(int fd, Connection& conn) {
    const std::uint32_t want =
        EPOLLIN | (conn.outbuf.empty() ? 0u : static_cast<std::uint32_t>(EPOLLOUT));
    if (want == conn.events) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
    conn.events = want;
  }

  void accept_new() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        log::warn("net: accept failed: ", std::strerror(errno));
        break;
      }
      accepted_total->inc();
      if (LD_FAULT_FIRES("net.accept")) {
        accept_faults->inc();
        ::close(fd);
        continue;
      }
      if (conns.size() >= config.max_connections) {
        log::warn("net: connection limit (", config.max_connections, ") reached");
        ::close(fd);
        continue;
      }
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      register_conn(fd);
    }
  }

  /// Read everything available; returns false when the connection died.
  bool read_conn(int fd, Connection& conn) {
    if (LD_FAULT_FIRES("net.read")) {
      read_errors->inc();
      return false;
    }
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.inbuf.append(buf, static_cast<std::size_t>(n));
        conn.last_active = Clock::now();
        // Slow-client bound: a peer that floods faster than it completes
        // requests (or never sends the newline) cannot grow the heap past
        // the cap — it gets disconnected instead.
        if (conn.inbuf.size() + conn.outbuf.size() > config.max_conn_buffer_bytes) {
          overlong_disconnects->inc();
          log::warn("net: connection buffers exceed ", config.max_conn_buffer_bytes,
                    " bytes, disconnecting");
          return false;
        }
        continue;
      }
      if (n == 0) {
        // Peer EOF: whatever is already buffered still executes, then the
        // connection closes once the responses have flushed.
        conn.close_after_flush = true;
        return true;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      read_errors->inc();
      return false;
    }
  }

  /// Flush as much of outbuf as the socket accepts; false = connection died.
  bool flush_conn(int fd, Connection& conn) {
    while (!conn.outbuf.empty()) {
      // Short-write drill: send exactly one byte, then yield. The remainder
      // stays in outbuf and the maintenance pass re-arms EPOLLOUT, so the
      // response must survive arbitrary send() fragmentation.
      if (LD_FAULT_FIRES("net.write")) {
        short_writes->inc();
        const ssize_t one = ::send(fd, conn.outbuf.data(), 1, MSG_NOSIGNAL);
        if (one > 0) conn.outbuf.erase(0, 1);
        return true;
      }
      const ssize_t n =
          ::send(fd, conn.outbuf.data(), conn.outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.outbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  /// Mint a request id and open its trace flow at the front-end door. The
  /// id stitches frame decode -> shard dispatch -> predict -> retrain enqueue
  /// into one flow when the deterministic sampler (LD_TRACE_SAMPLE) picks it.
  void stamp_request(Request& req) {
    req.id = ++next_request_id;
    if (obs::Tracer::sampled(req.id))
      obs::Tracer::instance().record_flow("req.frontend", 's', req.id,
                                          static_cast<double>(req.fd));
  }

  /// Extract complete units from `conn.inbuf` into the pending queue, with
  /// admission control at the door. Returns false on a framing violation
  /// (the connection must close — the stream cannot be resynchronized).
  /// The ops plane multiplexes here by first-bytes sniffing: 0xB7 is a binary
  /// frame, "GET " is an HTTP scrape, anything else is a text command line.
  bool extract_requests(int fd, Connection& conn) {
    constexpr std::string_view kHttpVerb = "GET ";
    for (;;) {
      if (conn.inbuf.empty()) return true;
      if (conn.http) {
        // The request line was already queued; discard trailing headers —
        // the connection closes once the response flushes. Bounded: a peer
        // streaming endless "headers" is disconnected, not absorbed.
        conn.http_drained += conn.inbuf.size();
        conn.inbuf.clear();
        if (conn.http_drained > 16 * config.max_http_line_bytes) {
          protocol_errors->inc();
          overlong_disconnects->inc();
          log::warn("net: http headers exceed ", 16 * config.max_http_line_bytes,
                    " bytes, disconnecting");
          return false;
        }
        return true;
      }
      if (static_cast<std::uint8_t>(conn.inbuf.front()) == kFrameMagic) {
        Decoded decoded = decode_frame(conn.inbuf);
        if (decoded.status == DecodeStatus::kNeedMore) return true;
        if (decoded.status == DecodeStatus::kBad) {
          protocol_errors->inc();
          log::warn("net: framing error: ", decoded.error);
          return false;
        }
        conn.inbuf.erase(0, decoded.consumed);
        requests_binary->inc();
        if (admit(classify_frame(decoded.op), fd, /*binary=*/true)) {
          Request req{fd, true, decoded.op, std::move(decoded.payload)};
          stamp_request(req);
          pending.push_back(std::move(req));
        }
        continue;
      }
      const std::size_t probe = std::min(conn.inbuf.size(), kHttpVerb.size());
      if (std::string_view(conn.inbuf).substr(0, probe) == kHttpVerb.substr(0, probe)) {
        if (conn.inbuf.size() < kHttpVerb.size()) return true;  // may be HTTP
        const std::size_t nl = conn.inbuf.find('\n');
        // The cap applies whether or not the line completed: a complete
        // oversized line can arrive in one read, and enforcement must not
        // depend on how the kernel chunked the bytes.
        if (std::min(nl, conn.inbuf.size()) > config.max_http_line_bytes) {
          protocol_errors->inc();
          overlong_disconnects->inc();
          log::warn("net: http request line exceeds ", config.max_http_line_bytes,
                    " bytes");
          return false;
        }
        if (nl == std::string::npos) return true;
        // "GET <path> HTTP/1.x" — keep the path, drop version and query.
        std::string target = conn.inbuf.substr(kHttpVerb.size(),
                                               nl - kHttpVerb.size());
        conn.inbuf.clear();
        conn.http = true;
        target = target.substr(0, target.find_first_of(" \r?"));
        requests_http->inc();
        // Deliberately bypasses admit(): the ops plane must answer while the
        // data plane is shedding, or overload becomes unobservable.
        Request req{fd, false, Op::kError, std::move(target)};
        req.http = true;
        pending.push_back(std::move(req));
        continue;
      }
      const std::size_t nl = conn.inbuf.find('\n');
      if (std::min(nl, conn.inbuf.size()) > config.max_line_bytes) {
        protocol_errors->inc();
        overlong_disconnects->inc();
        log::warn("net: text line exceeds ", config.max_line_bytes, " bytes");
        return false;
      }
      if (nl == std::string::npos) return true;
      std::string line = conn.inbuf.substr(0, nl);
      conn.inbuf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.find_first_not_of(" \t") == std::string::npos) continue;
      requests_text->inc();
      if (admit(classify_text(line), fd, /*binary=*/false)) {
        Request req{fd, false, Op::kError, std::move(line)};
        stamp_request(req);
        pending.push_back(std::move(req));
      }
    }
  }

  /// Admission control: true = execute, false = already answered with a shed
  /// reply. The queue depth is sampled at enqueue time, so one burst of
  /// pipelined requests sheds its own tail. The shed reply is queued in
  /// `pending` like any request, so a pipelining client gets its replies in
  /// request order and can tell which request was shed.
  bool admit(const Classified& c, int fd, bool binary) {
    const std::size_t depth = pending.size() - queued_sheds;
    // While draining, every sheddable request sheds: a draining server must
    // not take on new data-plane work. (Control verbs — STATS, SAVE, QUIT —
    // still execute, and the ops plane bypasses admission entirely.)
    const bool over =
        (drain_flag.load(std::memory_order_relaxed) && c.cls != ShedClass::kNever) ||
        (c.cls == ShedClass::kIngest && depth >= config.shed_observe_depth) ||
        (c.cls == ShedClass::kPredict && depth >= config.shed_predict_depth);
    shed_slo->record(over);
    if (!over) return true;
    shed.at(c.verb)->inc();
    Request reply{fd, binary, Op::kShed, {}};
    reply.shed = true;
    if (binary)
      append_shed(reply.payload, c.verb);
    else
      reply.payload = "503 SHED\n";
    pending.push_back(std::move(reply));
    ++queued_sheds;
    return false;
  }

  /// Run every queued request in arrival order. QUIT (and peer EOF) close
  /// after the response flushes; a connection that vanished mid-queue just
  /// drops its remaining requests.
  void execute_pending() {
    while (!pending.empty()) {
      Request req = std::move(pending.front());
      pending.pop_front();
      if (req.shed) --queued_sheds;
      const auto it = conns.find(req.fd);
      if (it == conns.end()) continue;
      Connection& conn = it->second;
      if (req.shed) {
        conn.outbuf.append(req.payload);
        continue;
      }
      if (req.http) {
        execute_http(req, conn);
        continue;
      }
      // Propagate the front-end request id through the execution: downstream
      // layers (shard dispatch, predict, retrain enqueue) read it via
      // RequestScope::current() and add their own flow steps.
      const bool sampled = req.id != 0 && obs::Tracer::sampled(req.id);
      const obs::RequestScope scope(sampled ? req.id : 0);
      if (req.binary) {
        execute_frame(req, conn);
      } else {
        std::ostringstream oss;
        if (!protocol.handle(req.payload, oss)) conn.close_after_flush = true;
        conn.outbuf.append(oss.str());
      }
      if (sampled) obs::Tracer::instance().record_flow("req.done", 'f', req.id);
    }
    pending_requests->set(0.0);
  }

  /// Ops-plane endpoints, served straight off the event loop. Responses are
  /// HTTP/1.0 close-delimited, so any scraper (curl, Prometheus, /dev/tcp)
  /// can read to EOF without chunked-encoding support.
  void execute_http(const Request& req, Connection& conn) {
    const char* status = "200 OK";
    const char* type = "text/plain; charset=utf-8";
    std::string body;
    if (req.payload == "/metrics") {
      service.refresh_wal_gauges();
      body = obs::MetricsRegistry::global().prometheus_text();
      type = "text/plain; version=0.0.4; charset=utf-8";
    } else if (req.payload == "/healthz") {
      // A draining server answers 503 so load balancers stop routing to it
      // while the in-flight work finishes — the readiness half of drain().
      if (drain_flag.load(std::memory_order_relaxed)) {
        status = "503 Service Unavailable";
        body = "draining\n";
      } else {
        body = "ok\n";
      }
    } else if (req.payload == "/statusz") {
      body = statusz_json();
      body.push_back('\n');
      type = "application/json";
    } else {
      status = "404 Not Found";
      body = "not found\n";
    }
    conn.outbuf.append("HTTP/1.0 ").append(status)
        .append("\r\nContent-Type: ").append(type)
        .append("\r\nContent-Length: ").append(std::to_string(body.size()))
        .append("\r\nConnection: close\r\n\r\n")
        .append(body);
    conn.close_after_flush = true;
  }

  /// One-line JSON fleet snapshot: queue depths per shard, degradation mix,
  /// connection/buffer/wakeup numbers, SLO burn rates, series budget.
  std::string statusz_json() {
    auto& reg = obs::MetricsRegistry::global();
    std::ostringstream out;
    std::size_t buf_bytes = 0;
    for (const auto& [fd, conn] : conns)
      buf_bytes += conn.inbuf.capacity() + conn.outbuf.capacity();
    out << "{\"connections\":" << conns.size()
        << ",\"pending_requests\":" << pending.size()
        << ",\"conn_buffer_bytes\":" << buf_bytes
        << ",\"epoll_wakeups\":" << epoll_wakeups->value()
        << ",\"accepted_total\":" << accepted_total->value()
        << ",\"shard_queue_depths\":[";
    const std::vector<std::size_t> depths = service.shard_queue_depths();
    for (std::size_t i = 0; i < depths.size(); ++i)
      out << (i == 0 ? "" : ",") << depths[i];
    out << "],\"degradation\":{";
    bool first = true;
    for (const auto level :
         {fault::DegradationLevel::kLive, fault::DegradationLevel::kSnapshot,
          fault::DegradationLevel::kBaseline}) {
      const char* name = fault::to_string(level);
      out << (first ? "" : ",") << '"' << name << "\":"
          << reg.counter("ld_predictions_by_level_total", {{"level", name}}).value();
      first = false;
    }
    const obs::SloTracker::Rates predict_burn =
        obs::slo_tracker("predict_p99").rates();
    const obs::SloTracker::Rates shed_burn = obs::slo_tracker("shed_rate").rates();
    out << "},\"slo\":{\"predict_p99\":{\"fast\":" << predict_burn.fast
        << ",\"slow\":" << predict_burn.slow
        << "},\"shed_rate\":{\"fast\":" << shed_burn.fast
        << ",\"slow\":" << shed_burn.slow
        << "}},\"series\":{\"exposed\":" << reg.exposed_series_count()
        << ",\"max\":" << reg.max_series() << "}}";
    return out.str();
  }

  void execute_frame(const Request& req, Connection& conn) {
    try {
      switch (req.op) {
        case Op::kPredictReq: {
          const PredictRequestPayload p = parse_predict_request(req.payload);
          const serving::PredictResult result =
              service.predict_detailed(p.workload, p.horizon);
          append_predict_ok(conn.outbuf, static_cast<std::uint8_t>(result.level),
                            result.forecast);
          break;
        }
        case Op::kObserveReq: {
          const ObserveRequestPayload p = parse_observe_request(req.payload);
          service.observe_many(p.workload, p.values);
          append_observe_ok(conn.outbuf, static_cast<std::uint32_t>(p.values.size()));
          break;
        }
        default:
          append_error(conn.outbuf,
                       std::string("unexpected opcode ") + to_string(req.op));
          break;
      }
    } catch (const std::exception& e) {
      append_error(conn.outbuf, e.what());
    }
  }

  void run() {
    log::info("net: serving on ", config.host, " (", conns.size(), " connections)");
    std::vector<int> doomed;
    bool draining = false;
    Clock::time_point drain_deadline{};
    while (!stop_flag.load(std::memory_order_relaxed)) {
      if (!draining && drain_flag.load(std::memory_order_relaxed)) {
        // The listen socket stays open: load balancers learn about the drain
        // by probing /healthz (now 503) over fresh connections. New data-
        // plane work sheds at the door (admit()); in-flight work finishes.
        draining = true;
        drain_deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   std::max(0.0, config.drain_deadline_seconds)));
        log::info("net: draining (", conns.size(), " connections, ", pending.size(),
                  " pending requests, deadline ", config.drain_deadline_seconds, "s)");
      }
      const std::vector<Ready> ready_set = wait_ready(250);
      epoll_wakeups->inc();
      for (const Ready& ready : ready_set) {
        if (ready.fd == listen_fd && listen_fd >= 0) {
          accept_new();
          continue;
        }
        if (ready.fd == wake_rd) {
          char buf[64];
          while (::read(wake_rd, buf, sizeof(buf)) > 0) {}
          continue;
        }
        const auto it = conns.find(ready.fd);
        if (it == conns.end()) continue;
        Connection& conn = it->second;
        bool alive = true;
        if (ready.readable) alive = read_conn(ready.fd, conn);
        if (alive && ready.writable) alive = flush_conn(ready.fd, conn);
        if (alive && !conn.inbuf.empty()) alive = extract_requests(ready.fd, conn);
        if (!alive) close_conn(ready.fd);
      }
      pending_requests->set(static_cast<double>(pending.size()));
      execute_pending();

      const auto now = Clock::now();
      const auto idle_limit =
          std::chrono::duration<double>(config.idle_timeout_seconds);
      doomed.clear();
      std::size_t buf_bytes = 0;
      for (auto& [fd, conn] : conns) {
        buf_bytes += conn.inbuf.capacity() + conn.outbuf.capacity();
        if (!conn.outbuf.empty() && !flush_conn(fd, conn)) {
          doomed.push_back(fd);
          continue;
        }
        if (conn.close_after_flush && conn.outbuf.empty()) {
          doomed.push_back(fd);
          continue;
        }
        if (config.idle_timeout_seconds > 0 && now - conn.last_active > idle_limit) {
          idle_closed->inc();
          doomed.push_back(fd);
          continue;
        }
        // Draining: a connection with nothing buffered either way has no
        // response owed to it — close it rather than waiting for the client
        // to hang up. The short grace keeps a just-accepted probe alive long
        // enough for its bytes to arrive (accept and first read land in
        // different event-loop cycles), so /healthz can still observe the 503.
        if (draining && conn.inbuf.empty() && conn.outbuf.empty() &&
            now - conn.last_active > std::chrono::milliseconds(250)) {
          doomed.push_back(fd);
          continue;
        }
        update_interest(fd, conn);
      }
      conn_buffer_bytes->set(static_cast<double>(buf_bytes));
      for (const int fd : doomed) close_conn(fd);
      if (draining && (conns.empty() || now >= drain_deadline)) {
        if (!conns.empty())
          log::warn("net: drain deadline reached with ", conns.size(),
                    " connections still open, closing them");
        break;
      }
    }
    log::info("net: event loop stopped (", conns.size(), " connections open)");
  }
};

Server::Server(serving::PredictionService& service, ServerConfig config)
    : impl_(nullptr), service_(service), config_(std::move(config)) {
  impl_ = new Impl(service_, config_, stop_, drain_);
  try {
    port_ = impl_->bind_and_listen();
  } catch (...) {
    delete impl_;
    impl_ = nullptr;
    throw;
  }
}

Server::~Server() { delete impl_; }

void Server::run() { impl_->run(); }

void Server::stop() {
  stop_.store(true, std::memory_order_relaxed);
  impl_->wake();
}

void Server::drain() {
  // Async-signal-safe by construction (atomic store + pipe write): the
  // SIGTERM handler calls this directly.
  drain_.store(true, std::memory_order_relaxed);
  impl_->wake();
}

}  // namespace ld::net
