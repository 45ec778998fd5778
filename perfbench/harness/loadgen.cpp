#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "net/frame.hpp"
#include "spans.hpp"

namespace perfbench {

struct LoadGen::Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<std::uint32_t> inflight;  ///< request indices awaiting a reply, in send order
  bool want_out = false;
  bool dead = false;
};

namespace {

constexpr std::uint64_t kSpinNs = 2'000'000;
/// Per-connection cap on unanswered requests. Four connections stay below
/// the server's shed threshold (512 queued ingest requests), because a shed
/// reply is written ahead of replies still queued for execution and so
/// cannot be matched to its request.
constexpr std::size_t kMaxInflight = 64;

int connect_nonblocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("loadgen: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("loadgen: connect failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

bool finite_all(const std::vector<double>& v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

LoadGen::LoadGen(std::uint16_t port, std::size_t connections, std::vector<std::string> tenants)
    : tenants_(std::move(tenants)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("loadgen: epoll_create1 failed");
  for (std::size_t i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = connect_nonblocking(port);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(i);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev);
    conns_.push_back(std::move(conn));
  }
}

LoadGen::~LoadGen() {
  for (const auto& c : conns_)
    if (c->fd >= 0) ::close(c->fd);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

RunResult LoadGen::run(const Schedule& schedule, double drain_timeout_s) {
  const std::size_t n = schedule.requests.size();
  RunResult result;
  result.status.assign(n, Status::kPending);
  result.latency_ns.assign(n, 0);
  result.lag_ns.assign(n, 0);
  if (n == 0) return result;
  // The generator is the instrument: when the run's own threads (retrains,
  // the server) outnumber the cores, it must not be the one that waits.
  // Best effort (without the privilege the thread keeps its priority), and
  // undone on return so that threads the caller starts later do not
  // inherit it.
  const auto tid = static_cast<id_t>(::gettid());
  errno = 0;
  const int old_nice = ::getpriority(PRIO_PROCESS, tid);
  const bool reniced = errno == 0 && ::setpriority(PRIO_PROCESS, tid, -15) == 0;
  struct Restore {
    id_t tid;
    int nice;
    bool active;
    ~Restore() {
      if (active) (void)::setpriority(PRIO_PROCESS, tid, nice);
    }
  } const restore{tid, old_nice, reniced};

  const std::uint64_t t0 = now_ns() + 1'000'000;  // first send 1 ms from now
  std::uint64_t last_sent = 0;
  std::size_t next = 0;
  std::size_t inflight = 0;
  std::uint64_t last_reply = t0;

  const auto set_out_interest = [&](std::uint32_t ci, bool on) {
    Conn& c = *conns_[ci];
    if (c.want_out == on || c.dead) return;
    c.want_out = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u32 = ci;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  };
  const auto kill = [&](std::uint32_t ci) {
    Conn& c = *conns_[ci];
    if (c.dead) return;
    c.dead = true;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    for (const std::uint32_t r : c.inflight) result.status[r] = Status::kDisconnected;
    inflight -= c.inflight.size();
    c.inflight.clear();
  };
  const auto flush = [&](std::uint32_t ci) {
    Conn& c = *conns_[ci];
    while (!c.dead && c.out_off < c.out.size()) {
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                               MSG_NOSIGNAL);
      if (w > 0) {
        c.out_off += static_cast<std::size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_out_interest(ci, true);
        return;
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        kill(ci);
        return;
      }
    }
    c.out.clear();
    c.out_off = 0;
    set_out_interest(ci, false);
  };
  // Decode every complete reply at the front of the connection's input.
  const auto parse = [&](std::uint32_t ci, std::uint64_t now) {
    Conn& c = *conns_[ci];
    while (!c.inflight.empty()) {
      const std::uint32_t r = c.inflight.front();
      const Request& req = schedule.requests[r];
      const std::string_view buf(c.in.data() + c.in_off, c.in.size() - c.in_off);
      Status st = Status::kOk;
      if (req.kind == Kind::kText) {
        const std::size_t nl = buf.find('\n');
        if (nl == std::string_view::npos) break;
        if (buf.substr(0, 2) != "OK") st = Status::kError;
        c.in_off += nl + 1;
      } else {
        const ld::net::Decoded d = ld::net::decode_frame(buf);
        if (d.status == ld::net::DecodeStatus::kNeedMore) break;
        if (d.status == ld::net::DecodeStatus::kBad) {
          kill(ci);
          return;
        }
        c.in_off += d.consumed;
        try {
          if (d.op == ld::net::Op::kShed) {
            st = Status::kShed;
          } else if (d.op == ld::net::Op::kError) {
            st = Status::kError;
          } else if (req.kind == Kind::kPredict && d.op == ld::net::Op::kPredictOk) {
            ld::net::PredictOkPayload ok = ld::net::parse_predict_ok(d.payload);
            if (ok.level != 0)
              st = Status::kNotLive;
            else if (ok.forecast.size() != req.horizon || !finite_all(ok.forecast))
              st = Status::kBadReply;
            else if (req.sample)
              result.forecasts.emplace(r, std::move(ok.forecast));
          } else if (req.kind == Kind::kObserve && d.op == ld::net::Op::kObserveOk) {
            if (ld::net::parse_observe_ok(d.payload) != req.count) st = Status::kBadReply;
          } else {
            st = Status::kBadReply;
          }
        } catch (const std::exception&) {
          st = Status::kBadReply;
        }
      }
      const std::uint64_t intended = t0 + req.at_ns;
      result.status[r] = st;
      result.latency_ns[r] = now - intended;
      Spans::record("net.request", intended, now);
      c.inflight.pop_front();
      --inflight;
      last_reply = now;
    }
    if (c.in_off > (1u << 16)) {
      c.in.erase(0, c.in_off);
      c.in_off = 0;
    }
  };
  const auto drain_input = [&](std::uint32_t ci) {
    Conn& c = *conns_[ci];
    char buf[1 << 16];
    while (!c.dead) {
      const ssize_t got = ::recv(c.fd, buf, sizeof buf, 0);
      if (got > 0) {
        c.in.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got < 0 && errno == EINTR) continue;
      parse(ci, now_ns());
      kill(ci);
      return;
    }
    parse(ci, now_ns());
  };

  epoll_event events[16];
  for (;;) {
    std::uint64_t now = now_ns();
    bool sent = false;
    while (next < n && t0 + schedule.requests[next].at_ns <= now) {
      const Request& req = schedule.requests[next];
      const std::uint32_t ci = req.tenant % static_cast<std::uint32_t>(conns_.size());
      Conn& c = *conns_[ci];
      // A full connection holds every later send: requests wait in the
      // generator, late, instead of piling into the server.
      if (!c.dead && c.inflight.size() >= kMaxInflight) break;
      if (c.dead) {
        result.status[next] = Status::kDisconnected;
      } else {
        const std::string& name = tenants_[req.tenant];
        switch (req.kind) {
          case Kind::kPredict:
            ld::net::append_predict_request(c.out, name, req.horizon);
            break;
          case Kind::kObserve:
            ld::net::append_observe_request(
                c.out, name, {schedule.values.data() + req.first, req.count});
            break;
          case Kind::kText:
            c.out += schedule.texts[req.first];
            c.out += '\n';
            break;
        }
        c.inflight.push_back(static_cast<std::uint32_t>(next));
        ++inflight;
        sent = true;
      }
      result.lag_ns[next] = now - (t0 + req.at_ns);
      ++next;
      if (next == n) last_sent = now;
    }
    if (sent)
      for (std::uint32_t ci = 0; ci < conns_.size(); ++ci)
        if (conns_[ci]->out_off < conns_[ci]->out.size()) flush(ci);
    if (next == n && inflight == 0) break;
    now = now_ns();
    std::uint64_t wait_ns = 10'000'000;
    if (next < n) {
      // Sleep only when the next send is far off, and wake early: a sleeping
      // thread can wake late by far more than the gaps between sends, so the
      // last stretch is spent polling.
      const std::uint64_t due = t0 + schedule.requests[next].at_ns;
      wait_ns = due > now + kSpinNs ? due - now - kSpinNs : 0;
    } else if (static_cast<double>(now - last_sent) * 1e-9 > drain_timeout_s) {
      for (std::uint32_t ci = 0; ci < conns_.size(); ++ci) kill(ci);
      break;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::epoll_pwait2(epoll_fd_, events, 16, &ts, nullptr);
    for (int i = 0; i < ready; ++i) {
      const std::uint32_t ci = events[i].data.u32;
      if (events[i].events & EPOLLOUT) flush(ci);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) drain_input(ci);
    }
  }
  result.send_window_s = static_cast<double>(schedule.requests.back().at_ns) * 1e-9;
  result.elapsed_s = static_cast<double>(last_reply - t0) * 1e-9;
  return result;
}

}  // namespace perfbench
