#include "phases.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bayesopt/optimizer.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/adaptive.hpp"
#include "core/loaddynamics.hpp"
#include "loadgen.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "serving/service.hpp"
#include "spans.hpp"
#include "tensor/matrix.hpp"
#include "wal/journal.hpp"
#include "wal/record.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) { count(1, ok ? 0 : 1, what); }

void Report::count(std::uint64_t n, std::uint64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && failures.size() < 20)
    failures.push_back(what + " (" + std::to_string(bad) + " of " + std::to_string(n) + ")");
}

namespace {

namespace fs = std::filesystem;
using ld::workloads::TraceKind;

/// The latency limit behind net.max_rps_at_slo: predict p50 at or under 1 ms.
/// (A p99 limit is out of reach on a shared host, where scheduler stalls of
/// several ms put p99 above 1 ms at any rate, and on ingest_durable, whose
/// journal fsyncs run on the event loop.)
constexpr double kSloP50Us = 1000.0;
/// Rate-ladder grid (see run_ladder).
constexpr double kLadderBase = 1000.0;
constexpr int kLadderCoarse = 4;
constexpr int kLadderMaxRung = 96;
constexpr std::size_t kConnections = 4;
constexpr double kWarmupS = 1.0;
/// Search and training seed of every fit and retrain. Inputs come from the
/// run's seed; a fixed search seed keeps the configurations a fit visits,
/// and so its cost, from swinging two-fold between seeds.
constexpr std::uint64_t kFitSeed = 2020;
constexpr std::size_t kHorizon = 4;

double elapsed_s(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Exact nearest-rank percentile; +inf entries stand for failed requests.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// The p-th percentile of each of up to 10 consecutive windows (in send
/// order) of at least 500 samples.
std::vector<double> percentile_by_window(const std::vector<double>& v, double p) {
  const std::size_t k = std::clamp<std::size_t>(v.size() / 500, 1, 10);
  std::vector<double> out;
  for (std::size_t w = 0; w < k; ++w)
    out.push_back(percentile({v.begin() + static_cast<std::ptrdiff_t>(v.size() * w / k),
                              v.begin() + static_cast<std::ptrdiff_t>(v.size() * (w + 1) / k)},
                             p));
  return out;
}

/// The median of percentile_by_window: a burst of scheduler stalls on a
/// shared host moves a few windows, not the figure.
double windowed_percentile(const std::vector<double>& v, double p) {
  return median(percentile_by_window(v, p));
}

/// The lowest per-window p-th percentile. Host stalls only ever add
/// latency, so the quietest window is the best estimate of what the
/// program itself costs; it still rises when every window gets slower.
double best_window_percentile(const std::vector<double>& v, double p) {
  const std::vector<double> w = percentile_by_window(v, p);
  return *std::min_element(w.begin(), w.end());
}

void print_windows(const char* what, const std::vector<double>& v, double p) {
  std::printf("  %s p%.0f by window:", what, p);
  for (const double x : percentile_by_window(v, p)) std::printf(" %.1f", x);
  std::printf(" us\n");
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return std::numeric_limits<double>::quiet_NaN();
}

std::uint64_t counter(const std::string& name, const ld::obs::Labels& labels = {}) {
  return ld::obs::MetricsRegistry::global().counter(name, labels).value();
}

/// A span that also prints the phase's wall time to the report.
class Phase {
 public:
  explicit Phase(const char* name) : span_(name), name_(name), start_(now_ns()) {}
  ~Phase() { std::printf("phase %-22s %8.3f s\n", name_, elapsed_s(start_)); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Span span_;
  const char* name_;
  std::uint64_t start_;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- Program counters read around a phase ----------------------------------

struct Counters {
  std::uint64_t requests = 0, wakeups = 0, shed = 0, live = 0, degraded = 0;
  std::uint64_t wal_appends = 0, wal_bytes = 0, wal_fsyncs = 0, retrains = 0;

  static Counters read(const std::vector<std::string>& tenants) {
    Counters c;
    for (const char* t : {"text", "binary", "http"})
      c.requests += counter("ld_net_requests_total", {{"transport", t}});
    c.wakeups = counter("ld_net_epoll_wakeups_total");
    for (const char* verb : {"OBSERVE", "INGEST", "PREDICT", "BATCH", "BOBSERVE", "BPREDICT"})
      c.shed += counter("ld_shed_total", {{"verb", verb}});
    c.live = counter("ld_predictions_by_level_total", {{"level", "live"}});
    for (const char* level : {"snapshot", "baseline"})
      c.degraded += counter("ld_predictions_by_level_total", {{"level", level}});
    c.wal_appends = counter("ld_wal_appends_total");
    c.wal_bytes = counter("ld_wal_bytes_total");
    c.wal_fsyncs = counter("ld_wal_fsync_total");
    for (const std::string& t : tenants)
      c.retrains += counter("ld_serving_retrains_total", {{"workload", t}});
    return c;
  }
  Counters operator-(const Counters& o) const {
    return {requests - o.requests, wakeups - o.wakeups, shed - o.shed,
            live - o.live,         degraded - o.degraded, wal_appends - o.wal_appends,
            wal_bytes - o.wal_bytes, wal_fsyncs - o.wal_fsyncs, retrains - o.retrains};
  }
};

// --- Inputs ------------------------------------------------------------------

std::vector<double> make_series(TraceKind kind, std::size_t interval, double days,
                                std::uint64_t seed) {
  return ld::workloads::generate(kind, interval, {.days = days, .seed = seed}).jars;
}

std::shared_ptr<ld::core::TrainedModel> train_model(const std::vector<double>& series,
                                                    const ld::core::Hyperparameters& hp,
                                                    std::size_t epochs, std::uint64_t seed) {
  const Span span("nn.train_one");
  const auto n = static_cast<std::ptrdiff_t>(series.size());
  const std::vector<double> train(series.begin(), series.begin() + n * 6 / 10);
  const std::vector<double> validation(series.begin() + n * 6 / 10, series.begin() + n * 8 / 10);
  ld::core::LoadDynamicsConfig cfg;
  cfg.training.trainer.max_epochs = epochs;
  cfg.training.trainer.min_updates = 200;
  cfg.seed = seed;
  return ld::core::LoadDynamics(cfg).train_one(train, validation, hp);
}

/// The tenants of a serve phase, the bench's own copy of each tenant's
/// history (the reference for the bit-equality check), and where each
/// tenant's future observations come from.
struct Tenants {
  std::vector<std::string> names;
  std::vector<std::shared_ptr<ld::core::TrainedModel>> models;
  std::vector<std::uint32_t> model_of;
  std::vector<std::vector<double>> initial;  ///< history loaded at set-up
  std::vector<std::vector<double>> shadow;   ///< initial + every accepted observation
  std::vector<std::vector<double>> sources;  ///< continuation series
  std::vector<std::uint32_t> source_of;
  std::vector<std::size_t> cursor;           ///< next continuation index
  std::vector<std::uint32_t> order;          ///< seeded permutation: traffic spread

  [[nodiscard]] std::size_t size() const { return names.size(); }
  double next_value(std::uint32_t t) {
    const std::vector<double>& src = sources[source_of[t]];
    return src[cursor[t]++ % src.size()];
  }
};

std::string tenant_name(const std::string& prefix, std::size_t i) {
  char index[24];
  std::snprintf(index, sizeof index, "%05zu", i);
  return prefix + index;
}

/// `count` tenants named <prefix><index>; tenant i uses model i % models and
/// starts with `history` values cut from a seeded offset of its source.
Tenants make_tenants(const std::string& prefix, std::size_t count,
                     std::vector<std::shared_ptr<ld::core::TrainedModel>> models,
                     std::vector<std::vector<double>> sources, std::size_t history,
                     std::uint64_t seed) {
  Tenants t;
  ld::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  t.models = std::move(models);
  t.sources = std::move(sources);
  for (std::size_t i = 0; i < count; ++i) {
    t.names.push_back(tenant_name(prefix, i));
    t.model_of.push_back(static_cast<std::uint32_t>(i % t.models.size()));
    t.source_of.push_back(static_cast<std::uint32_t>(i % t.sources.size()));
    const std::vector<double>& src = t.sources[t.source_of.back()];
    const auto start = static_cast<std::size_t>(rng.uniform_int(0, static_cast<long long>(src.size()) - 1));
    std::vector<double> h(history);
    for (std::size_t k = 0; k < history; ++k) h[k] = src[(start + k) % src.size()];
    t.cursor.push_back(start + history);
    t.initial.push_back(h);
    t.shadow.push_back(std::move(h));
    t.order.push_back(static_cast<std::uint32_t>(i));
  }
  std::shuffle(t.order.begin(), t.order.end(), rng);
  return t;
}

// --- A served PredictionService ----------------------------------------------

struct Fixture {
  explicit Fixture(const ld::serving::ServiceConfig& cfg) : service(cfg) {}
  ~Fixture() { stop_server(); }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  void start_server() {
    server = std::make_unique<ld::net::Server>(service, ld::net::ServerConfig{});
    thread = std::thread([this] { server->run(); });
  }
  void stop_server() {
    if (!server) return;
    server->stop();
    thread.join();
    server.reset();
  }

  ld::serving::PredictionService service;
  std::unique_ptr<ld::net::Server> server;
  std::thread thread;
};

ld::serving::ServiceConfig service_config(const std::string& dir) {
  ld::serving::ServiceConfig cfg;
  // Retrains run only when the workload asks for them, so every run does
  // the same number.
  cfg.background_retrain = false;
  cfg.adaptive.base.seed = kFitSeed;
  cfg.adaptive.base.training.trainer.max_epochs = 15;
  // A retrain refits the tenant's own architecture instead of also trying
  // random ones, so it never changes the tenant's predict cost: the
  // capacity the ladder finds afterwards is comparable between seeds.
  cfg.adaptive.refresh_candidates = 0;
  if (!dir.empty()) {
    cfg.wal.dir = dir + "/wal";
    cfg.checkpoint_dir = dir + "/ckpt";
  }
  return cfg;
}

/// Registers every tenant (publish + initial history) and starts the server.
std::unique_ptr<Fixture> build_state(const ld::serving::ServiceConfig& cfg, const Tenants& t,
                                     std::vector<double>& publish_us) {
  auto f = std::make_unique<Fixture>(cfg);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::uint64_t start = now_ns();
    {
      const Span span("serving.publish");
      f->service.publish(t.names[i], *t.models[t.model_of[i]]);
    }
    publish_us.push_back(elapsed_s(start) * 1e6);
    const Span span("serving.observe_many");
    f->service.observe_many(t.names[i], t.initial[i]);
  }
  f->start_server();
  return f;
}

/// setup_s: the median of `reps` builds of the workload's serving state (a
/// fresh directory each time); the last build is kept.
std::unique_ptr<Fixture> timed_setup(const ld::serving::ServiceConfig& cfg, const Tenants& t,
                                     const std::string& dir, int reps,
                                     std::vector<double>& setup_s,
                                     std::vector<double>& publish_us) {
  const Phase phase_span("bench.setup");
  std::unique_ptr<Fixture> f;
  for (int rep = 0; rep < reps; ++rep) {
    f.reset();
    if (!dir.empty()) fs::remove_all(dir);
    const Span span("bench.setup_one");
    const std::uint64_t start = now_ns();
    f = build_state(cfg, t, publish_us);
    setup_s.push_back(elapsed_s(start));
  }
  return f;
}

// --- Open-loop traffic -------------------------------------------------------

struct Traffic {
  std::string pattern;      ///< request i is 'P'redict or 'O'bserve by pattern[i % size]
  std::uint32_t batch = 1;  ///< values per BOBSERVE
  std::uint32_t sample_every = 16;  ///< predicts whose forecast is checked bit for bit
  /// Requests generated so far, in all and per kind (these continue across
  /// phases). Each kind walks the tenant permutation on its own, so every
  /// tenant receives both kinds in equal measure.
  std::uint64_t issued = 0, predicts = 0, observes = 0;
};

Schedule make_schedule(Tenants& t, Traffic& tr, double rate, double seconds) {
  Schedule s;
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  s.requests.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t i = tr.issued++;
    Request r;
    r.at_ns = static_cast<std::uint64_t>(static_cast<double>(k) * 1e9 / rate);
    if (tr.pattern[i % tr.pattern.size()] == 'O') {
      r.tenant = t.order[(tr.observes++ + t.size() / 2) % t.size()];
      r.kind = Kind::kObserve;
      r.first = static_cast<std::uint32_t>(s.values.size());
      r.count = tr.batch;
      for (std::uint32_t v = 0; v < tr.batch; ++v) s.values.push_back(t.next_value(r.tenant));
    } else {
      r.tenant = t.order[tr.predicts++ % t.size()];
      r.kind = Kind::kPredict;
      r.horizon = kHorizon;
      r.sample = i % tr.sample_every == 0;
    }
    s.requests.push_back(r);
  }
  return s;
}

void append_text(Schedule& s, double at_s, std::uint32_t tenant, const std::string& line) {
  Request r;
  r.at_ns = static_cast<std::uint64_t>(at_s * 1e9);
  r.tenant = tenant;
  r.kind = Kind::kText;
  r.first = static_cast<std::uint32_t>(s.texts.size());
  s.texts.push_back(line);
  const auto pos = std::upper_bound(s.requests.begin(), s.requests.end(), r,
                                    [](const Request& a, const Request& b) { return a.at_ns < b.at_ns; });
  s.requests.insert(pos, r);
}

struct Latencies {
  std::vector<double> predict_us, observe_us;  ///< failed requests as +inf
  std::vector<double> lag_us;
  std::size_t sent = 0, shed = 0;
};

const char* status_name(Status s) {
  switch (s) {
    case Status::kPending: return "unanswered";
    case Status::kOk: return "ok";
    case Status::kShed: return "shed";
    case Status::kError: return "error";
    case Status::kNotLive: return "not live";
    case Status::kBadReply: return "bad reply";
    case Status::kDisconnected: return "disconnected";
  }
  return "?";
}

/// Checks every reply of a run, replays accepted observations into the
/// bench's history copies, and verifies sampled forecasts bit for bit
/// against PublishedModel::predict_horizon on those copies. `models` holds,
/// per tenant, every version that may have answered.
Latencies check_run(Report& report, const std::string& phase, Tenants& t, const Schedule& s,
                    const RunResult& r,
                    const std::vector<std::vector<std::shared_ptr<const ld::serving::PublishedModel>>>& models) {
  Latencies lat;
  std::size_t bad = 0, mismatched = 0, sampled = 0, shed = 0;
  std::string first_bad;
  for (std::size_t i = 0; i < s.requests.size(); ++i) {
    const Request& q = s.requests[i];
    const Status st = r.status[i];
    const double us = st == Status::kOk ? static_cast<double>(r.latency_ns[i]) * 1e-3
                                        : std::numeric_limits<double>::infinity();
    lat.lag_us.push_back(static_cast<double>(r.lag_ns[i]) * 1e-3);
    ++lat.sent;
    if (st == Status::kShed) ++shed;
    if (st != Status::kOk && st != Status::kShed) {
      ++bad;
      if (first_bad.empty()) first_bad = status_name(st);
    }
    if (q.kind == Kind::kObserve) {
      lat.observe_us.push_back(us);
      if (st == Status::kOk) {
        std::vector<double>& h = t.shadow[q.tenant];
        h.insert(h.end(), s.values.begin() + q.first, s.values.begin() + q.first + q.count);
        if (h.size() > 8192) h.erase(h.begin(), h.end() - 4096);
      }
    } else if (q.kind == Kind::kPredict) {
      lat.predict_us.push_back(us);
      const auto it = r.forecasts.find(static_cast<std::uint32_t>(i));
      if (it == r.forecasts.end()) continue;
      ++sampled;
      bool equal = false;
      for (const auto& m : models[q.tenant]) {
        const Span span("nn.predict_horizon.reference");
        equal = equal || same_bits(m->predict_horizon(t.shadow[q.tenant], q.horizon), it->second);
      }
      if (!equal) ++mismatched;
    }
  }
  lat.shed = shed;
  report.count(s.requests.size(), bad + shed,
               phase + ": requests failed (first: " + (first_bad.empty() ? "shed" : first_bad) + ")");
  report.count(sampled, mismatched, phase + ": forecasts differing from the reference");
  return lat;
}

std::vector<std::vector<std::shared_ptr<const ld::serving::PublishedModel>>> current_models(
    ld::serving::PredictionService& service, const Tenants& t) {
  std::vector<std::vector<std::shared_ptr<const ld::serving::PublishedModel>>> out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) out[i].push_back(service.current_model(t.names[i]));
  return out;
}

struct LadderOutcome {
  double max_rps = 0;
  std::size_t rungs = 0;
  std::size_t shed = 0;
};

/// Offers the traffic at rungs of a fixed geometric grid (rung k offers
/// kLadderBase * 1.25^(k/4) requests/s) for `rung_s` each. A rung passes
/// when its predict p50 is within kSloP50Us (failed requests count as
/// misses) and the replies kept up with the schedule. The ladder walks
/// every fourth rung from `start_rung` until one is overloaded, then
/// bisects the grid between the highest passing rung and the rung above
/// it; a noisy miss below the knee does not end the walk.
LadderOutcome run_ladder(Report& report, const std::string& phase, Fixture& f, LoadGen& gen,
                         Tenants& t, Traffic& tr, double rung_s, int start_rung) {
  LadderOutcome out;
  const auto rate_of = [](int k) { return kLadderBase * std::pow(1.25, k / 4.0); };
  bool overloaded = false;
  const auto passes = [&](int k) {
    const double rate = rate_of(k);
    const Schedule s = make_schedule(t, tr, rate, rung_s);
    const auto models = current_models(f.service, t);
    const RunResult r = gen.run(s);
    const Latencies lat = check_run(report, phase + " ladder", t, s, r, models);
    const double p50 = percentile(lat.predict_us, 50);
    // The replies trailed the schedule by over a tenth of the rung.
    overloaded = r.achieved_ratio() < 1.0 / 1.1;
    const bool ok = p50 <= kSloP50Us && !overloaded;
    std::printf("  %s rung %6.0f req/s: predict p50 %9.1f p99 %9.1f max %9.1f us, "
                "lag p99 %7.1f us, achieved %.3f -> %s\n",
                phase.c_str(), rate, p50, percentile(lat.predict_us, 99),
                percentile(lat.predict_us, 100), percentile(lat.lag_us, 99), r.achieved_ratio(),
                ok ? "pass" : "miss");
    ++out.rungs;
    out.shed += lat.shed;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return ok;
  };
  const Phase phase_span("bench.ladder");
  int best = -1;
  for (int k = start_rung; k <= kLadderMaxRung; k += kLadderCoarse) {
    if (passes(k)) best = k;
    if (overloaded) break;
  }
  if (best >= 0) {
    int lo = best, hi = best + kLadderCoarse;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      (passes(mid) ? lo : hi) = mid;
    }
    best = lo;
  }
  report.check(best >= 0, phase + ": no ladder rung met the SLO");
  out.max_rps = best >= 0 ? rate_of(best) : 0.0;
  return out;
}

struct ServeOutcome {
  Latencies nominal;
  RunResult nominal_run;
  Schedule nominal_schedule;
  Counters counters;  ///< program counters over the nominal run
  LadderOutcome ladder;
};

void report_serve(Report& report, const ServeOutcome& o) {
  // End to end: the quietest window's predict median. On a shared host the
  // tails are set by vCPU preemption (predict p90 moved 15-fold and p50
  // 3-fold between runs of one build), and even the observe median spread
  // by 0.22 over ten seeds, so those are reported per layer.
  print_windows("predict", o.nominal.predict_us, 50);
  print_windows("predict", o.nominal.predict_us, 90);
  print_windows("observe", o.nominal.observe_us, 50);
  print_windows("generator lag", o.nominal.lag_us, 99);
  report.e2e("predict_p50_us", best_window_percentile(o.nominal.predict_us, 50), "us");
  report.layer("net.observe_p50_us", best_window_percentile(o.nominal.observe_us, 50), "us");
  report.layer("net.predict_p90_us", windowed_percentile(o.nominal.predict_us, 90), "us");
  report.layer("net.observe_p90_us", windowed_percentile(o.nominal.observe_us, 90), "us");
  report.layer("net.predict_p99_us", percentile(o.nominal.predict_us, 99), "us");
  report.layer("net.observe_p99_us", percentile(o.nominal.observe_us, 99), "us");
  report.layer("net.max_rps_at_slo", o.ladder.max_rps, "1/s");
  std::printf("  nominal: %zu predicts, %zu observes, generator lag p99 %.1f us, "
              "achieved %.4f of offered\n",
              o.nominal.predict_us.size(), o.nominal.observe_us.size(),
              percentile(o.nominal.lag_us, 99),
              o.nominal_run.achieved_ratio());

  const Counters& c = o.counters;
  report.layer("net.requests", static_cast<double>(c.requests), "count");
  report.layer("net.epoll_wakeups", static_cast<double>(c.wakeups), "count");
  report.layer("net.requests_per_wakeup",
               static_cast<double>(c.requests) / static_cast<double>(std::max<std::uint64_t>(c.wakeups, 1)),
               "ratio");
  report.layer("net.shed", static_cast<double>(o.counters.shed + o.ladder.shed), "count");
  report.layer("bench.ladder_rungs", static_cast<double>(o.ladder.rungs), "count");
  report.layer("serving.predictions", static_cast<double>(c.live + c.degraded), "count");
  report.layer("serving.live_ratio",
               static_cast<double>(c.live) / static_cast<double>(std::max<std::uint64_t>(c.live + c.degraded, 1)),
               "ratio");
  report.layer("wal.appends", static_cast<double>(c.wal_appends), "count");
  report.layer("wal.bytes", static_cast<double>(c.wal_bytes), "bytes");
  report.layer("wal.fsyncs", static_cast<double>(c.wal_fsyncs), "count");
  report.layer("bench.gen_lag_p99_us", percentile(o.nominal.lag_us, 99), "us");
  report.layer("bench.achieved_ratio", o.nominal_run.achieved_ratio(), "ratio");
  report.layer("bench.nominal_requests", static_cast<double>(o.nominal.sent), "count");
}

// --- Per-layer probes (traced runs only) ---------------------------------------

/// In-process replay of the nominal request sequence through the serving,
/// nn and codec layers, so their costs can be set against the TCP figures.
void probe_serving_layers(Report& report, Fixture& f, Tenants& t, const ServeOutcome& o) {
  const Schedule& s = o.nominal_schedule;
  std::vector<double> predict_us, observe_us, horizon_us;
  std::uint64_t lookups = 0;
  std::uint64_t lookup_ns = 0;
  for (const Request& q : s.requests) {
    const std::string& name = t.names[q.tenant];
    const std::uint64_t start = now_ns();
    if (q.kind == Kind::kPredict) {
      const Span span("serving.predict_detailed");
      (void)f.service.predict_detailed(name, q.horizon);
      predict_us.push_back(elapsed_s(start) * 1e6);
    } else if (q.kind == Kind::kObserve) {
      const Span span("serving.observe_many");
      f.service.observe_many(name, {s.values.data() + q.first, q.count});
      observe_us.push_back(elapsed_s(start) * 1e6);
    }
  }
  {
    const Span span("serving.current_model");
    const std::uint64_t start = now_ns();
    for (const Request& q : s.requests) {
      lookups += f.service.current_model(t.names[q.tenant]) != nullptr;
    }
    lookup_ns = now_ns() - start;
  }
  for (const Request& q : s.requests) {
    if (q.kind != Kind::kPredict || !q.sample) continue;
    const auto model = f.service.current_model(t.names[q.tenant]);
    const Span span("nn.predict_horizon");
    const std::uint64_t start = now_ns();
    (void)model->predict_horizon(t.shadow[q.tenant], q.horizon);
    horizon_us.push_back(elapsed_s(start) * 1e6);
  }
  // Client-side codec cost per predict round trip: encode the request,
  // decode and parse a reply carrying a horizon-long forecast.
  std::string reply;
  ld::net::append_predict_ok(reply, 0, std::vector<double>(kHorizon, 1234.5));
  std::uint64_t codec_ns = 0;
  std::size_t codec_n = 0;
  {
    const Span span("net.codec");
    const std::uint64_t start = now_ns();
    std::string out;
    for (int rep = 0; rep < 4; ++rep)
      for (const Request& q : s.requests) {
        out.clear();
        ld::net::append_predict_request(out, t.names[q.tenant], kHorizon);
        const ld::net::Decoded d = ld::net::decode_frame(reply);
        codec_n += ld::net::parse_predict_ok(d.payload).forecast.size() + out.size() > 0;
      }
    codec_ns = now_ns() - start;
  }
  const double serving_p50 = percentile(predict_us, 50);
  report.layer("serving.predict_p50_us", serving_p50, "us");
  report.layer("serving.predict_p99_us", percentile(predict_us, 99), "us");
  report.layer("serving.observe_p50_us", percentile(observe_us, 50), "us");
  report.layer("serving.lookup_ns", static_cast<double>(lookup_ns) / static_cast<double>(std::max<std::uint64_t>(lookups, 1)), "ns");
  report.layer("nn.predict_horizon_us", percentile(horizon_us, 50), "us");
  report.layer("net.codec_ns", static_cast<double>(codec_ns) / static_cast<double>(std::max<std::size_t>(codec_n, 1)), "ns");
  report.layer("net.overhead_p50_us", percentile(o.nominal.predict_us, 50) - serving_p50, "us");
}

/// GEMM at the shapes of one LSTM gate product for a model of `hidden`
/// units with a 1-wide input: batch 1 (serving) and `batch` (training).
void probe_gemm(Report& report, std::size_t hidden, std::size_t batch) {
  for (const auto& [label, rows] : {std::pair<const char*, std::size_t>{"serving", 1},
                                    std::pair<const char*, std::size_t>{"training", batch}}) {
    const std::size_t k = 1 + hidden, n = 4 * hidden;
    ld::tensor::Matrix a(rows, k, 0.5), b(k, n, 0.25), c(rows, n, 0.0);
    const double flops = 2.0 * static_cast<double>(rows * k * n);
    const auto reps = static_cast<std::size_t>(std::clamp(2e8 / flops, 16.0, 200000.0));
    const Span span("tensor.gemm");
    const std::uint64_t start = now_ns();
    for (std::size_t r = 0; r < reps; ++r) ld::tensor::matmul_into(a, b, c);
    const double us = elapsed_s(start) * 1e6 / static_cast<double>(reps);
    const std::string name = std::string("tensor.gemm_") + label;
    report.layer(name + "_us", us, "us");
    report.layer(name + "_gflops", flops / (us * 1e3), "GFLOP/s");
    report.layer(name + "_bytes", 8.0 * static_cast<double>(rows * k + k * n + rows * n), "bytes");
  }
}

/// GP fit + EI maximisation per proposal at the database sizes a 12-point
/// fit reaches (5 random designs, then proposals against 5..11 points).
void probe_bayesopt(Report& report, std::uint64_t seed) {
  const ld::bayesopt::SearchSpace space =
      ld::core::HyperparameterSpace::reduced().to_search_space();
  ld::bayesopt::OptimizerConfig cfg;
  cfg.max_iterations = 12;
  cfg.initial_random = 5;
  ld::bayesopt::BayesianOptimizer opt(space, cfg, seed);
  const Span span("bayesopt.optimize");
  const std::uint64_t start = now_ns();
  const auto result = opt.optimize([](const std::vector<double>& x) {
    double v = 0;
    for (const double xi : x) v += std::log1p(std::abs(xi - 7.0));
    return v;
  });
  const double ms = elapsed_s(start) * 1e3;
  report.layer("bayesopt.propose_ms",
               ms / static_cast<double>(result.history.size() - cfg.initial_random), "ms");
}

/// One journal append of an OBSERVE record of `batch` values.
void probe_wal_append(Report& report, const std::string& dir, std::size_t batch) {
  ld::wal::WalConfig cfg;
  cfg.dir = dir;
  ld::wal::Journal journal(dir, cfg);
  std::string rec;
  ld::wal::append_observe(rec, "probe", 0, std::vector<double>(batch, 42.0));
  constexpr int kAppends = 4000;
  const Span span("wal.append");
  const std::uint64_t start = now_ns();
  for (int i = 0; i < kAppends; ++i) journal.append(rec);
  report.layer("wal.append_us", elapsed_s(start) * 1e6 / kAppends, "us");
}

/// One warm retrain (the work a RETRAIN queues) on a tenant's history.
void probe_retrain(Report& report, Fixture& f, const Tenants& t) {
  const auto model = f.service.current_model(t.names[0]);
  const Span span("core.warm_retrain");
  const std::uint64_t start = now_ns();
  (void)ld::core::warm_retrain(t.shadow[0], model->hyperparameters(),
                               f.service.config().adaptive, 0);
  report.layer("core.retrain_s", elapsed_s(start), "s");
}

// --- Phases ------------------------------------------------------------------

struct ServeSpec {
  std::string phase;
  Traffic traffic;
  double nominal_rate = 0;
  double nominal_s = 0;
  double rung_s = 1.0;
  int ladder_start = 0;          ///< first grid rung the ladder offers
  std::size_t retrains = 0;      ///< RETRAIN verbs spread over the nominal run
  bool snapshot_midway = false;  ///< write_snapshot() halfway through it
};

ServeOutcome serve(Report& report, Fixture& f, Tenants& t, ServeSpec& spec, bool with_ladder,
                   std::vector<double>* snapshot_s) {
  ServeOutcome o;
  LoadGen gen(f.server->port(), kConnections, t.names);
  {
    // Warm-up at the nominal rate, checked but not timed: the first second
    // of traffic after set-up carries one-off stalls of up to a second.
    const Phase phase_span("bench.warmup");
    const Schedule warm = make_schedule(t, spec.traffic, spec.nominal_rate, kWarmupS);
    const auto models = current_models(f.service, t);
    (void)check_run(report, spec.phase + " warm-up", t, warm, gen.run(warm), models);
  }
  o.nominal_schedule = make_schedule(t, spec.traffic, spec.nominal_rate, spec.nominal_s);
  std::vector<std::uint32_t> retrained;
  for (std::size_t k = 0; k < spec.retrains; ++k) {
    const auto tenant = static_cast<std::uint32_t>(k % t.size());
    retrained.push_back(tenant);
    append_text(o.nominal_schedule,
                spec.nominal_s * static_cast<double>(k + 1) / static_cast<double>(spec.retrains + 1),
                tenant, "RETRAIN " + t.names[tenant]);
  }
  auto models = current_models(f.service, t);
  const Counters before = Counters::read(t.names);
  {
    const Phase phase_span("bench.nominal");
    std::thread sender([&] { o.nominal_run = gen.run(o.nominal_schedule, 30.0); });
    if (spec.snapshot_midway) {
      std::this_thread::sleep_for(std::chrono::duration<double>(spec.nominal_s / 2));
      const Span snap("wal.write_snapshot");
      const std::uint64_t start = now_ns();
      (void)f.service.write_snapshot();
      snapshot_s->push_back(elapsed_s(start));
    }
    sender.join();
  }
  {
    const Span span("serving.wait_idle");
    f.service.wait_idle();
  }
  o.counters = Counters::read(t.names) - before;
  // A retrained tenant may have been answered by either version.
  for (const std::uint32_t tenant : retrained)
    models[tenant].push_back(f.service.current_model(t.names[tenant]));
  o.nominal = check_run(report, spec.phase, t, o.nominal_schedule, o.nominal_run, models);
  report.check(o.counters.retrains == spec.retrains,
               spec.phase + ": expected " + std::to_string(spec.retrains) + " retrains, saw " +
                   std::to_string(o.counters.retrains));
  if (with_ladder)
    o.ladder = run_ladder(report, spec.phase, f, gen, t, spec.traffic, spec.rung_s, spec.ladder_start);
  return o;
}

/// One tenant's next forecast, as the recover check compares it: level
/// and the exact bits of every value.
std::string forecast_line(const std::string& name, const ld::serving::PredictResult& r) {
  std::string line = "forecast " + name + " " + std::to_string(static_cast<int>(r.level));
  for (const double v : r.forecast) {
    char bits[32];
    std::snprintf(bits, sizeof bits, " %a", v);
    line += bits;
  }
  return line;
}

/// Runs this binary in recover mode on `dir` and returns its output.
std::string run_recover_child(const std::string& dir, const std::string& prefix,
                              std::size_t tenants) {
  const std::string exe = fs::read_symlink("/proc/self/exe").string();
  const std::string count = std::to_string(tenants);
  std::vector<std::string> args = {exe, "--recover-child", dir, "--prefix", prefix,
                                   "--tenants", count};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int out[2];
  if (::pipe(out) != 0) throw std::runtime_error("recover: pipe() failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string text;
  if (rc == 0) {
    char buf[4096];
    for (ssize_t n; (n = ::read(out[0], buf, sizeof buf)) > 0;) text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  if (rc != 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    throw std::runtime_error("recover: the recover child failed");
  return text;
}

/// Closes `f`, then rebuilds the service from its WAL directory in seven
/// fresh processes (recover_s is the fastest: how fast a process recovers
/// was bimodal, 0.13 or 0.20 s, from one process to the next, and steady
/// within one) and once more in this process for what follows. Every
/// rebuild must give each tenant the forecast it had before, bit for bit.
std::unique_ptr<Fixture> recover(Report& report, const std::string& phase,
                                 std::unique_ptr<Fixture> f, const std::string& dir,
                                 const std::string& prefix, const Tenants& t,
                                 std::vector<double>& recover_s,
                                 ld::serving::RecoveryStats& stats) {
  std::vector<std::string> before;
  for (const std::string& name : t.names)
    before.push_back(forecast_line(name, f->service.predict_detailed(name, kHorizon)));
  f.reset();
  const auto count_changed = [&](const std::vector<std::string>& after) {
    std::size_t differing = 0;
    for (std::size_t i = 0; i < t.size(); ++i)
      differing += i >= after.size() || after[i] != before[i] ||
                   before[i].rfind("forecast " + t.names[i] + " 0 ", 0) != 0;
    report.count(t.size(), differing, phase + ": forecasts changed by recovery");
  };
  for (int rep = 0; rep < 7; ++rep) {
    const Span span("serving.recover_process");
    std::istringstream out(run_recover_child(dir, prefix, t.size()));
    std::vector<std::string> after;
    for (std::string line; std::getline(out, line);) {
      if (line.rfind("recover_s ", 0) == 0) recover_s.push_back(std::stod(line.substr(10)));
      if (line.rfind("forecast ", 0) == 0) after.push_back(line);
    }
    count_changed(after);
  }
  auto g = std::make_unique<Fixture>(service_config(dir));
  {
    const Span span("serving.recover");
    stats = g->service.recover();
  }
  std::vector<std::string> after;
  for (const std::string& name : t.names)
    after.push_back(forecast_line(name, g->service.predict_detailed(name, kHorizon)));
  count_changed(after);
  return g;
}

void report_recover(Report& report, const std::vector<double>& recover_s,
                    const std::vector<double>& snapshot_s, const ld::serving::RecoveryStats& stats) {
  report.e2e("recover_s", *std::min_element(recover_s.begin(), recover_s.end()), "s");
  std::printf("  recovered %zu tenants (%zu with models), replayed %zu records (%zu values), "
              "skipped %zu, %zu segments; recover_s runs:",
              stats.tenants, stats.models, stats.replayed_records, stats.replayed_values,
              stats.skipped_records, stats.segments);
  for (const double r : recover_s) std::printf(" %.4f", r);
  std::printf("\n");
  report.layer("wal.snapshot_s", median(snapshot_s), "s");
  report.layer("wal.replayed_records", static_cast<double>(stats.replayed_records), "count");
  report.layer("wal.replay_records_per_s",
               static_cast<double>(stats.replayed_records) / std::max(stats.seconds, 1e-9), "1/s");
}

/// The durable state behind the recover probe: 128 tenants, history
/// journaled in batches of 16, a snapshot, then a longer journal tail
/// (large enough that process start-up costs do not dominate recover_s).
void recover_probe(Report& report, const Options& opt,
                   const std::shared_ptr<ld::core::TrainedModel>& model,
                   const std::vector<double>& source) {
  const std::string dir = opt.work_dir + "/recover-probe";
  fs::remove_all(dir);
  const ld::serving::ServiceConfig cfg = service_config(dir);
  Tenants t = make_tenants("r", 128, {model}, {source}, 16, opt.seed + 5);
  auto f = std::make_unique<Fixture>(cfg);
  std::vector<double> snapshot_s, recover_s;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (round == 0) f->service.publish(t.names[i], *model);
      for (int b = 0; b < (round == 0 ? 64 : 256); ++b) {
        std::vector<double> batch(16);
        for (double& v : batch) v = t.next_value(static_cast<std::uint32_t>(i));
        f->service.observe_many(t.names[i], batch);
      }
    }
    if (round == 0) {
      const Span span("wal.write_snapshot");
      const std::uint64_t start = now_ns();
      (void)f->service.write_snapshot();
      snapshot_s.push_back(elapsed_s(start));
    }
  }
  ld::serving::RecoveryStats stats;
  const Phase phase_span("bench.recover_probe");
  (void)recover(report, "recover probe", std::move(f), dir, "r", t, recover_s, stats);
  report_recover(report, recover_s, snapshot_s, stats);
}

struct FitInput {
  TraceKind kind;
  std::size_t interval;
  double days;
};

struct PreparedTrace {
  TraceKind kind;
  ld::workloads::TraceSplit split;
};

std::vector<PreparedTrace> prepare_traces(const std::vector<FitInput>& inputs, std::uint64_t seed) {
  std::vector<PreparedTrace> out;
  for (const FitInput& in : inputs)
    out.push_back({in.kind, ld::workloads::split_trace(ld::workloads::generate(
                                in.kind, in.interval, {.days = in.days, .seed = seed}))});
  return out;
}

struct FitRound {
  double seconds = 0;
  double mape_pct = 0;
  std::size_t iterations = 0;
  std::string signature;  ///< chosen hyperparameters and MAPE bits, per trace
};

/// The paper's loop (Fig. 6) on each trace: LoadDynamics::fit over the
/// reduced space, then the walk-forward test MAPE of the chosen model.
FitRound fit_round(const std::vector<PreparedTrace>& traces) {
  FitRound round;
  std::vector<double> mapes;
  const std::uint64_t start = now_ns();
  for (const PreparedTrace& trace : traces) {
    const ld::workloads::TraceSplit& split = trace.split;
    ld::core::LoadDynamicsConfig cfg;
    cfg.space = ld::core::HyperparameterSpace::reduced();
    if (trace.kind == TraceKind::kFacebook) {
      cfg.space.history_max = 24;
      cfg.space.batch_max = 64;
    }
    cfg.max_iterations = 12;
    cfg.initial_random = 5;
    cfg.batch_size = 4;
    cfg.training.trainer.max_epochs = 10;
    cfg.training.trainer.patience = 4;
    cfg.training.trainer.learning_rate = 1e-2;
    cfg.training.trainer.min_updates = 120;
    cfg.training.max_train_windows = 400;
    cfg.seed = kFitSeed;
    const ld::core::FitResult fit = [&] {
      const Span span("core.fit");
      return ld::core::LoadDynamics(cfg).fit(split.train, split.validation);
    }();
    const std::vector<double> series = split.all();
    const std::vector<double> preds = [&] {
      const Span span("core.predict_series");
      return fit.predictor().predict_series(series, split.test_start());
    }();
    const double mape = ld::metrics::mape(split.test, preds);
    std::printf("    %-6s %6.3f s  %s  test MAPE %.3f%%\n", ld::workloads::trace_kind_name(trace.kind),
                fit.search_seconds, fit.best_record().hyperparameters.to_string().c_str(), mape);
    mapes.push_back(mape);
    round.iterations += fit.database.size();
    char bits[32];
    std::snprintf(bits, sizeof bits, "%a", mape);
    round.signature += std::string(ld::workloads::trace_kind_name(trace.kind)) + " " +
                       fit.best_record().hyperparameters.to_string() + " " + bits + "; ";
  }
  round.seconds = elapsed_s(start);
  round.mape_pct = mean(mapes);
  return round;
}

/// Runs fit rounds (at least `min_rounds`, more while `budget_s` lasts) and
/// checks that every round chose the same hyperparameters and MAPE.
void fit_phase(Report& report, const std::string& phase, const std::vector<PreparedTrace>& traces,
               std::size_t min_rounds, double budget_s) {
  const Phase phase_span("bench.fit");
  std::vector<double> seconds;
  std::vector<FitRound> rounds;
  const std::uint64_t start = now_ns();
  while (rounds.size() < min_rounds || elapsed_s(start) + mean(seconds) < budget_s) {
    rounds.push_back(fit_round(traces));
    seconds.push_back(rounds.back().seconds);
    std::printf("  %s round %zu: %.3f s, %zu configurations, mean test MAPE %.4f%%\n",
                phase.c_str(), rounds.size(), rounds.back().seconds, rounds.back().iterations,
                rounds.back().mape_pct);
    report.check(rounds.back().signature == rounds.front().signature,
                 phase + ": a repeated fit chose differently");
  }
  std::printf("  %s chose: %s\n", phase.c_str(), rounds.front().signature.c_str());
  // The fastest round: host stalls only add time.
  const double fastest = *std::min_element(seconds.begin(), seconds.end());
  report.e2e("tune_s", fastest, "s");
  report.e2e("mape_pct", rounds.front().mape_pct, "%");
  report.layer("core.fit_iterations", static_cast<double>(rounds.front().iterations), "count");
  report.layer("core.iteration_s", fastest / static_cast<double>(rounds.front().iterations),
               "s");
}

/// The fit probe of the serving workloads: three rounds on one trace. Its
/// input is fixed, not drawn from the run's seed: which configurations BO
/// visits changes a fit's cost several-fold from seed to seed, and a
/// reference probe has to cost the same on every run.
void fit_probe(Report& report) {
  fit_phase(report, "fit probe", prepare_traces({{TraceKind::kFacebook, 5, 3.0}}, kFitSeed), 3,
            0);
}

// --- Workloads -------------------------------------------------------------------

/// One small fixed-architecture model shared by every tenant of a fleet.
constexpr ld::core::Hyperparameters kFleetHp{.history_length = 16, .cell_size = 12,
                                             .num_layers = 1, .batch_size = 32};

struct Fleet {
  std::shared_ptr<ld::core::TrainedModel> model;
  std::vector<double> series;
};

Fleet fleet_model(std::uint64_t seed) {
  const Phase phase_span("bench.train_fleet_model");
  Fleet fl;
  fl.series = make_series(TraceKind::kWikipedia, 30, 60.0, seed);
  fl.model = train_model(fl.series, kFleetHp, 12, seed);
  return fl;
}

/// A fleet of `tenants` sharing one model, each with a 32-value warm
/// history, served open-loop: 7 predicts to 1 single-value observe.
void fleet_serve(Report& report, const Options& opt, const Fleet& fl, std::size_t tenants,
                 double nominal_rate, double nominal_s, double rung_s, int ladder_start,
                 bool subject) {
  Tenants t = make_tenants("w", tenants, {fl.model}, {fl.series}, 32, opt.seed);
  const ld::serving::ServiceConfig cfg = service_config("");
  std::vector<double> setup_s, publish_us;
  std::unique_ptr<Fixture> f;
  if (subject) {
    f = timed_setup(cfg, t, "", 3, setup_s, publish_us);
    report.e2e("setup_s", median(setup_s), "s");
  } else {
    f = build_state(cfg, t, publish_us);
  }
  ServeSpec spec{.phase = subject ? "fleet" : "serve probe",
                 .traffic = {.pattern = "PPPPPPPO", .batch = 1, .sample_every = 16},
                 .nominal_rate = nominal_rate,
                 .nominal_s = nominal_s,
                 .rung_s = rung_s,
                 .ladder_start = ladder_start};
  const ServeOutcome o = serve(report, *f, t, spec, opt.trace, nullptr);
  report_serve(report, o);
  report.layer("core.retrains", static_cast<double>(o.counters.retrains), "count");
  report.layer("serving.publish_p50_us", percentile(publish_us, 50), "us");
  report.layer("serving.publish_p99_us", percentile(publish_us, 99), "us");
  f->stop_server();
  if (opt.trace) {
    probe_serving_layers(report, *f, t, o);
    probe_retrain(report, *f, t);
  }
}

void run_fleet_predict(const Options& opt, Report& report) {
  const Fleet fl = fleet_model(opt.seed);
  fleet_serve(report, opt, fl, 10000, 4000, opt.seconds * 0.3, 1.0, 24, true);
  recover_probe(report, opt, fl.model, fl.series);
  fit_probe(report);
  if (opt.trace) {
    probe_gemm(report, kFleetHp.cell_size, kFleetHp.batch_size);
    probe_bayesopt(report, opt.seed);
    probe_wal_append(report, opt.work_dir + "/wal-probe", 1);
  }
}

void run_ingest_durable(const Options& opt, Report& report) {
  // Three distinct models over three trace kinds (an odd count keeps the
  // median request inside one model's cost); 48 tenants with histories
  // at the service's max_history, journaled and checkpointed.
  const std::vector<std::pair<TraceKind, ld::core::Hyperparameters>> kinds = {
      {TraceKind::kWikipedia, {.history_length = 16, .cell_size = 12, .num_layers = 1, .batch_size = 32}},
      {TraceKind::kGoogle, {.history_length = 24, .cell_size = 16, .num_layers = 1, .batch_size = 32}},
      {TraceKind::kAzure, {.history_length = 32, .cell_size = 16, .num_layers = 2, .batch_size = 32}}};
  std::vector<std::shared_ptr<ld::core::TrainedModel>> models;
  std::vector<std::vector<double>> sources;
  {
    const Phase train_span("bench.train_models");
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      sources.push_back(make_series(kinds[i].first, 10, 70.0, opt.seed + i));
      models.push_back(train_model(
          {sources.back().begin(), sources.back().begin() + 2400}, kinds[i].second, 8,
          opt.seed + i));
    }
  }
  const std::string dir = opt.work_dir + "/ingest";
  const ld::serving::ServiceConfig cfg = service_config(dir);
  Tenants t = make_tenants("tenant", 48, models, sources, cfg.max_history, opt.seed);
  std::vector<double> setup_s, publish_us, snapshot_s, recover_s;
  // Five builds: each one fsyncs 48 checkpoints, and fsync time is noisy.
  std::unique_ptr<Fixture> f = timed_setup(cfg, t, dir, 5, setup_s, publish_us);
  report.e2e("setup_s", median(setup_s), "s");
  // Write back what set-up wrote, so the first journal fsync of the
  // measured phase does not pay for three set-ups' worth of dirty pages.
  f->service.flush_wal();
  ::sync();

  // The end-to-end latencies come from a quiescent window (with the
  // mid-run snapshot); the RETRAIN window that follows is printed as a
  // report line, because how hard a retrain hits the event loop depends on
  // where the scheduler puts its threads and swings several-fold between
  // runs.
  ServeSpec spec{.phase = "ingest",
                 .traffic = {.pattern = "POOO", .batch = 8, .sample_every = 8},
                 .nominal_rate = 2000,
                 .nominal_s = opt.seconds * 0.25,
                 .rung_s = 1.0,
                 .ladder_start = 32,
                 .snapshot_midway = true};
  ServeOutcome o = serve(report, *f, t, spec, false, &snapshot_s);
  ServeSpec retrain_spec{.phase = "ingest retrain",
                         .traffic = spec.traffic,
                         .nominal_rate = spec.nominal_rate,
                         .nominal_s = opt.seconds * 0.15,
                         .retrains = 4};
  const ServeOutcome overlapped = serve(report, *f, t, retrain_spec, false, nullptr);
  spec.traffic = retrain_spec.traffic;
  std::printf("  RETRAIN window: predict p90 %.1f us, observe p90 %.1f us (quiescent: %.1f, %.1f)\n",
              windowed_percentile(overlapped.nominal.predict_us, 90),
              windowed_percentile(overlapped.nominal.observe_us, 90),
              windowed_percentile(o.nominal.predict_us, 90),
              windowed_percentile(o.nominal.observe_us, 90));
  f->stop_server();
  ld::serving::RecoveryStats stats;
  {
    const Phase phase_span("bench.recover");
    f = recover(report, "ingest", std::move(f), dir, "tenant", t, recover_s, stats);
  }
  report_recover(report, recover_s, snapshot_s, stats);

  // In the traced run, the recovered service serves the rate ladder.
  if (opt.trace) {
    f->start_server();
    {
      LoadGen gen(f->server->port(), kConnections, t.names);
      o.ladder =
          run_ladder(report, "ingest", *f, gen, t, spec.traffic, spec.rung_s, spec.ladder_start);
    }
    f->stop_server();
  }
  report_serve(report, o);
  report.layer("core.retrains", static_cast<double>(overlapped.counters.retrains), "count");
  report.layer("serving.publish_p50_us", percentile(publish_us, 50), "us");
  report.layer("serving.publish_p99_us", percentile(publish_us, 99), "us");
  if (opt.trace) {
    probe_serving_layers(report, *f, t, o);
    probe_retrain(report, *f, t);
  }
  f.reset();

  fit_probe(report);
  if (opt.trace) {
    probe_gemm(report, kinds[0].second.cell_size, kinds[0].second.batch_size);
    probe_bayesopt(report, opt.seed);
    probe_wal_append(report, opt.work_dir + "/wal-probe", spec.traffic.batch);
  }
}

void run_tune(const Options& opt, Report& report) {
  const std::vector<FitInput> inputs = {{TraceKind::kWikipedia, 30, 12.0},
                                        {TraceKind::kGoogle, 30, 12.0},
                                        {TraceKind::kAzure, 60, 24.0},
                                        {TraceKind::kLcg, 30, 12.0},
                                        {TraceKind::kFacebook, 5, 3.0}};
  // Set-up: the five input traces, generated and split. They are the same
  // on every run: which configurations BO visits, and so what a fit costs,
  // follows the data, and tune_s swung from 8.1 to 19.1 s over ten seeds.
  std::vector<double> setup_s;
  std::vector<PreparedTrace> traces;
  for (int rep = 0; rep < 5; ++rep) {
    const Span span("bench.setup_one");
    const std::uint64_t start = now_ns();
    traces = prepare_traces(inputs, kFitSeed);
    setup_s.push_back(elapsed_s(start));
  }
  report.e2e("setup_s", median(setup_s), "s");
  fit_phase(report, "tune", traces, 2, opt.seconds * 0.6);

  const Fleet fl = fleet_model(opt.seed);
  fleet_serve(report, opt, fl, 1000, 3000, opt.seconds * 0.1, 1.0, 32, false);
  recover_probe(report, opt, fl.model, fl.series);
  if (opt.trace) {
    probe_gemm(report, 32, 64);
    probe_bayesopt(report, opt.seed);
    probe_wal_append(report, opt.work_dir + "/wal-probe", 1);
  }
}

}  // namespace

int recover_child(const std::string& dir, const std::string& prefix, std::size_t tenants) {
  ld::serving::PredictionService service(service_config(dir));
  const std::uint64_t start = now_ns();
  (void)service.recover();
  std::printf("recover_s %.9f\n", elapsed_s(start));
  for (std::size_t i = 0; i < tenants; ++i) {
    const std::string name = tenant_name(prefix, i);
    std::printf("%s\n", forecast_line(name, service.predict_detailed(name, kHorizon)).c_str());
  }
  return 0;
}

void run_workload(const Options& opt, Report& report) {
  fs::create_directories(opt.work_dir);
  const std::uint64_t start = now_ns();
  if (opt.workload == "fleet_predict")
    run_fleet_predict(opt, report);
  else if (opt.workload == "ingest_durable")
    run_ingest_durable(opt, report);
  else if (opt.workload == "tune")
    run_tune(opt, report);
  else
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  report.e2e("rss_mb", peak_rss_mb(), "MB");
  std::printf("workload %s finished in %.2f s\n", opt.workload.c_str(), elapsed_s(start));
  if (opt.trace) {
    const double span_cost_ns = [] {
      // What one recorded span costs the thread that records it.
      const std::uint64_t begin = now_ns();
      for (int i = 0; i < 20000; ++i) const Span span("bench.span_cost");
      return static_cast<double>(now_ns() - begin) / 20000.0;
    }();
    report.layer("bench.spans", static_cast<double>(Spans::count()), "count");
    report.layer("bench.span_cost_ns", span_cost_ns, "ns");
  }
}

}  // namespace perfbench
