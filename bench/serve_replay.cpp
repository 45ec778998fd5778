// Replay load generator for the serving layer: streams synthetic traces
// through a PredictionService from concurrent client threads — observers
// ingesting actuals (which can trigger drift retrains in the background) and
// predictors hammering forecasts — then reports per-workload and aggregate
// throughput plus p50/p95/p99 prediction latency.
//
//   serve_replay [--threads 4] [--requests 2000] [--horizon 4] [--workloads 2|3]
//                [--epochs 12] [--no-retrain] [--seed 2020]
//                [--trace out.json] [--faults SPEC] [--fault-seed 42]
//                [--retrain-timeout S] [--checkpoint-dir D] [--wal-dir D]
//                [--wal-fsync always|interval|never]
//   serve_replay --connect [--curve 1000,5000,10000] [--threads 4]
//                [--requests 2000] [--horizon 4] [--shards N] [--epochs 12]
//                [--bench-out bench/BENCH_fleet.json] [--trace out.json]
//   serve_replay --register 100000 [--shards N] [--warm 8] [--epochs 6]
//                [--max-seconds 60] [--max-publish-p99-ms 1]
//
// --connect mode is the fleet-scale benchmark (DESIGN.md §13): it starts an
// in-process net::Server on an ephemeral port, registers the requested
// workload counts (one small shared model fanned out under distinct names,
// each with a short warm history), and drives binary-framed BPREDICT /
// BOBSERVE traffic through real client sockets. For every point on the
// curve it prints client-observed p50/p95/p99 latency and throughput, so
// the output is a latency-vs-workload-count curve over TCP. Each point also
// times every publish in its registration sweep and reports the exact
// p50/p99 (reg_p50_us/reg_p99_us in --bench-out): the registration-latency
// curve that bench_check.py --fleet gates for sub-linear publish cost
// (DESIGN.md §16 — under the pre-PR-10 copy-on-write registry this grew
// linearly with occupancy).
//
// --register mode is the onboarding smoke (no sockets): register N tenants
// (all sharing one trained model) and fail unless the sweep finishes under
// --max-seconds and the production ld_registry_publish_latency histogram —
// which times each tenant-table insert done at registration — keeps its
// fleet-wide p99 under --max-publish-p99-ms. CI runs it with 100k tenants under
// LD_METRICS_MAX_SERIES=5000 so the cardinality governor is exercised too.
//
// Chaos mode (--faults / LD_FAULTS, see docs/API.md): injects checkpoint
// failures, retrain hangs, NaN forecasts, etc. The exit code asserts the
// fault-tolerance contract — 0 only when every PREDICT returned a finite
// forecast and the final one-step forecast per workload is finite.
//
// Latency is recorded through the obs::MetricsRegistry
// (ld_replay_predict_latency_seconds{workload=,phase=}) and split into
// "quiescent" vs "retrain_overlapped" phases: a request counts as overlapped
// when a retrain was pending on its workload at any point during the call,
// so the tail the background trainer inflicts is visible separately instead
// of polluting the steady-state percentiles.
//
// Acceptance shape: >= 2 concurrent workloads with background retraining
// enabled (a mid-stream RETRAIN is forced per workload so a retrain always
// overlaps the measured predictions, even when drift alone wouldn't fire).
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/metrics.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "fault/fallback.hpp"
#include "fault/injector.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serving/service.hpp"

namespace {

using namespace ld;

struct WorkloadSetup {
  std::string name;
  workloads::TraceKind kind;
};

std::vector<std::size_t> parse_curve(const std::string& spec) {
  std::vector<std::size_t> counts;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token = spec.substr(pos, comma == std::string::npos
                                                   ? std::string::npos
                                                   : comma - pos);
    if (!token.empty()) counts.push_back(static_cast<std::size_t>(std::stoull(token)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (counts.empty()) throw std::invalid_argument("serve_replay: empty --curve");
  for (std::size_t i = 1; i < counts.size(); ++i)
    if (counts[i] <= counts[i - 1])
      throw std::invalid_argument("serve_replay: --curve must be strictly increasing");
  return counts;
}

/// Exact percentile of an unsorted sample (sorts in place; p in [0, 100]).
double exact_percentile(std::vector<double>& sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(sample.size()));
  return sample[std::min(rank, sample.size() - 1)];
}

/// Fleet-scale TCP benchmark: register `--curve` workload counts against an
/// in-process server and measure client-observed binary-frame latency.
int run_connect_mode(const cli::Args& args) {
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 4));
  const auto requests = static_cast<std::size_t>(args.get_int("requests", 2000));
  const auto horizon = static_cast<std::size_t>(args.get_int("horizon", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
  const auto epochs = static_cast<std::size_t>(args.get_int("epochs", 12));
  const std::vector<std::size_t> curve = parse_curve(args.get("curve", "1000,5000,10000"));
  // Scope-bound: LD_TRACE_SAMPLE-governed request flows land in this file
  // when the function unwinds (--connect --trace is the stitching testbed
  // for tools/check_trace.py).
  const ld::obs::TraceSession trace_session(args.get("trace", ""));

  fault::init_from_env();
  const std::string faults = args.get("faults", "");
  if (!faults.empty())
    fault::Injector::instance().configure(
        faults, static_cast<std::uint64_t>(args.get_int("fault-seed", 42)));
  // Under chaos, dropped connections and shed requests are the point, not a
  // contract violation: the pass criterion degrades to "the server survives
  // and a fresh client still gets a finite forecast afterwards".
  const bool chaos = fault::Injector::enabled();

  // Registration dominates setup at 10k tenants, so the fleet shares one
  // small trained model under distinct names; the latency being measured is
  // the serving path (socket -> frame -> shard lookup -> forecast), which is
  // identical whether the snapshots are distinct or shared.
  serving::ServiceConfig cfg;
  cfg.background_retrain = false;  // keep the curve free of retrain noise
  cfg.shards = static_cast<std::size_t>(args.get_int("shards", 0));
  cfg.adaptive.base.seed = seed;
  serving::PredictionService service(cfg);

  const workloads::Trace trace =
      workloads::generate(workloads::TraceKind::kWikipedia, 30, {.days = 10.0, .seed = seed});
  const workloads::TraceSplit split = workloads::split_trace(trace);
  core::LoadDynamicsConfig ld_cfg;
  ld_cfg.training.trainer.max_epochs = epochs;
  ld_cfg.training.trainer.min_updates = 200;
  ld_cfg.seed = seed;
  const core::Hyperparameters hp{.history_length = 16, .cell_size = 12, .num_layers = 1,
                                 .batch_size = 32};
  std::printf("training one shared model (%zu epochs)...\n", epochs);
  const auto model = core::LoadDynamics(ld_cfg).train_one(split.train, split.validation, hp);
  const std::vector<double>& warm_src = split.train;
  const std::size_t warm_len = std::min<std::size_t>(32, warm_src.size());
  const std::vector<double> warm(warm_src.end() - static_cast<std::ptrdiff_t>(warm_len),
                                 warm_src.end());

  net::ServerConfig server_cfg;
  server_cfg.port = 0;  // ephemeral
  server_cfg.max_connections = std::max<std::size_t>(64, threads * 2);
  net::Server server(service, server_cfg);
  std::thread server_thread([&server] { server.run(); });
  std::printf("fleet server on 127.0.0.1:%u, %zu shards, curve:", server.port(),
              service.config().shards);
  for (const std::size_t c : curve) std::printf(" %zu", c);
  std::printf("\n\n%10s %10s %10s %12s %10s %10s %10s %10s\n", "workloads", "requests",
              "elapsed", "req/s", "p50(us)", "p95(us)", "p99(us)", "max(us)");

  std::size_t registered = 0;
  std::atomic<std::size_t> errors{0};      ///< bad replies on a live connection
  std::atomic<std::size_t> shed{0};        ///< 503 SHED replies
  std::atomic<std::size_t> disconnects{0}; ///< connections lost mid-request
  struct FleetPoint {
    std::size_t workloads = 0;
    std::size_t requests = 0;
    double elapsed = 0, req_per_s = 0, p50_us = 0, p95_us = 0, p99_us = 0,
           max_us = 0, reg_seconds = 0, reg_p50_us = 0, reg_p99_us = 0;
    std::size_t shed = 0;
  };
  std::vector<FleetPoint> points;
  for (const std::size_t target : curve) {
    const std::size_t shed_before = shed.load();
    // Per-publish wall time for this sweep segment (exact percentiles, not
    // bucketed): at point k the shard occupancy spans [curve[k-1], curve[k]),
    // so the curve of reg_p99_us across points IS publish latency as a
    // function of resident tenants.
    std::vector<double> publish_seconds;
    publish_seconds.reserve(target - registered);
    const Stopwatch reg_clock;
    for (; registered < target; ++registered) {
      char name[24];
      std::snprintf(name, sizeof name, "w%05zu", registered);
      const Stopwatch publish_clock;
      service.publish(name, *model);
      publish_seconds.push_back(publish_clock.seconds());
      service.observe_many(name, warm);
    }
    const double reg_seconds = reg_clock.seconds();
    const double reg_p50_us = exact_percentile(publish_seconds, 50) * 1e6;
    const double reg_p99_us = exact_percentile(publish_seconds, 99) * 1e6;

    // Client threads each own a socket and stride deterministically across
    // the whole fleet; every 8th request also ships a BOBSERVE so ingest
    // shares the connections like a real tenant mix.
    std::vector<metrics::LatencyHistogram> lat(threads,
                                               metrics::LatencyHistogram(1e-7, 10.0));
    const std::size_t per_thread = (requests + threads - 1) / threads;
    const Stopwatch clock;
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        std::unique_ptr<net::Client> client;
        const double value = warm.back();
        for (std::size_t r = 0; r < per_thread; ++r) {
          const std::size_t wi = (t * per_thread * 7919 + r * 31) % target;
          char name[24];
          std::snprintf(name, sizeof name, "w%05zu", wi);
          try {
            if (!client) client = std::make_unique<net::Client>("127.0.0.1", server.port());
            Stopwatch request_clock;
            const net::Client::PredictReply reply = client->predict(name, horizon);
            lat[t].record(request_clock.seconds());
            if (reply.shed)
              shed.fetch_add(1, std::memory_order_relaxed);
            else if (!reply.error.empty() || reply.forecast.size() != horizon ||
                     !fault::all_finite(reply.forecast))
              errors.fetch_add(1, std::memory_order_relaxed);
            if (r % 8 == 7) {
              const net::Client::ObserveReply obs =
                  client->observe(name, std::vector<double>{value});
              if (obs.shed)
                shed.fetch_add(1, std::memory_order_relaxed);
              else if (!obs.error.empty())
                errors.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (const std::exception&) {
            // Connection refused or killed (net.accept / net.read under
            // chaos): drop the socket and reconnect on the next request.
            disconnects.fetch_add(1, std::memory_order_relaxed);
            client.reset();
          }
        }
      });
    }
    for (auto& th : clients) th.join();
    const double elapsed = clock.seconds();

    const metrics::LatencyHistogram merged = metrics::LatencyHistogram::merged(lat);
    std::printf("%10zu %10zu %9.2fs %12.0f %10.1f %10.1f %10.1f %10.1f"
                "   (+%zu registered in %.2fs, publish p50 %.1fus p99 %.1fus)\n",
                target, merged.count(), elapsed,
                static_cast<double>(merged.count()) / elapsed, merged.percentile(50) * 1e6,
                merged.percentile(95) * 1e6, merged.percentile(99) * 1e6,
                merged.max() * 1e6, registered, reg_seconds, reg_p50_us, reg_p99_us);
    points.push_back({target, merged.count(), elapsed,
                      static_cast<double>(merged.count()) / elapsed,
                      merged.percentile(50) * 1e6, merged.percentile(95) * 1e6,
                      merged.percentile(99) * 1e6, merged.max() * 1e6, reg_seconds,
                      reg_p50_us, reg_p99_us, shed.load() - shed_before});
  }

  // Survival probe: whatever the chaos did, a fresh client against the still
  // running server must get a finite forecast.
  bool probe_ok = false;
  try {
    net::Client probe("127.0.0.1", server.port());
    const net::Client::PredictReply reply = probe.predict("w00000", horizon);
    probe_ok = reply.error.empty() && !reply.shed &&
               reply.forecast.size() == horizon && fault::all_finite(reply.forecast);
  } catch (const std::exception& e) {
    std::printf("survival probe failed: %s\n", e.what());
  }

  server.stop();
  server_thread.join();
  service.wait_idle();

  // Machine-readable curve for tools/bench_check.py --fleet: per-point
  // percentiles plus the shed count, which the gate treats as a hard failure.
  const std::string bench_out = args.get("bench-out", "");
  if (!bench_out.empty()) {
    std::ofstream out(bench_out);
    if (!out) {
      std::printf("serve_replay: cannot write --bench-out '%s'\n", bench_out.c_str());
      return 1;
    }
    out << "{\"fleet\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const FleetPoint& p = points[i];
      out << (i == 0 ? "" : ",") << "{\"workloads\":" << p.workloads
          << ",\"requests\":" << p.requests << ",\"elapsed_s\":" << p.elapsed
          << ",\"req_per_s\":" << p.req_per_s << ",\"p50_us\":" << p.p50_us
          << ",\"p95_us\":" << p.p95_us << ",\"p99_us\":" << p.p99_us
          << ",\"max_us\":" << p.max_us << ",\"reg_seconds\":" << p.reg_seconds
          << ",\"reg_p50_us\":" << p.reg_p50_us << ",\"reg_p99_us\":" << p.reg_p99_us
          << ",\"shed\":" << p.shed << "}";
    }
    out << "]}\n";
    std::printf("wrote fleet curve to %s\n", bench_out.c_str());
  }
  if (chaos || errors.load() > 0 || shed.load() > 0 || disconnects.load() > 0)
    std::printf("\nchaos summary: faults=%s injected=%llu bad_replies=%zu shed=%zu "
                "disconnects=%zu probe=%s\n",
                chaos ? fault::Injector::instance().status().c_str() : "off",
                static_cast<unsigned long long>(fault::Injector::instance().total_fires()),
                errors.load(), shed.load(), disconnects.load(),
                probe_ok ? "ok" : "FAILED");
  const bool ok =
      probe_ok && (chaos || (errors.load() == 0 && shed.load() == 0 &&
                             disconnects.load() == 0));
  if (!ok) {
    std::printf("serve_replay --connect: FLEET SERVING CONTRACT VIOLATED\n");
    return 1;
  }
  std::printf("\nOK fleet curve complete (%zu workloads registered)\n", registered);
  return 0;
}

/// Onboarding smoke: register `--register N` tenants as fast as possible and
/// gate the sweep's wall-clock and the production publish-latency histogram.
/// No sockets, no request traffic — this times the fleet-registration path
/// alone (ISSUE 10 acceptance: 100k tenants < 60s, publish p99 < 1ms).
int run_register_mode(const cli::Args& args) {
  const auto tenants = static_cast<std::size_t>(args.get_int("register", 100000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
  const auto epochs = static_cast<std::size_t>(args.get_int("epochs", 6));
  const auto warm_n = static_cast<std::size_t>(args.get_int("warm", 8));
  const double max_seconds = args.get_double("max-seconds", 0.0);
  const double max_publish_p99_ms = args.get_double("max-publish-p99-ms", 0.0);

  serving::ServiceConfig cfg;
  cfg.background_retrain = false;
  cfg.shards = static_cast<std::size_t>(args.get_int("shards", 0));
  cfg.adaptive.base.seed = seed;
  serving::PredictionService service(cfg);

  const workloads::Trace trace =
      workloads::generate(workloads::TraceKind::kWikipedia, 30, {.days = 10.0, .seed = seed});
  const workloads::TraceSplit split = workloads::split_trace(trace);
  core::LoadDynamicsConfig ld_cfg;
  ld_cfg.training.trainer.max_epochs = epochs;
  ld_cfg.training.trainer.min_updates = 200;
  ld_cfg.seed = seed;
  const core::Hyperparameters hp{.history_length = 16, .cell_size = 12, .num_layers = 1,
                                 .batch_size = 32};
  std::printf("training one shared model (%zu epochs)...\n", epochs);
  const auto model = core::LoadDynamics(ld_cfg).train_one(split.train, split.validation, hp);
  const std::size_t warm_len = std::min(warm_n, split.train.size());
  const std::vector<double> warm(split.train.end() - static_cast<std::ptrdiff_t>(warm_len),
                                 split.train.end());

  std::printf("registering %zu tenants across %zu shards (warm history %zu)...\n",
              tenants, service.config().shards, warm.size());
  std::vector<double> publish_seconds;
  publish_seconds.reserve(tenants);
  const Stopwatch sweep_clock;
  for (std::size_t i = 0; i < tenants; ++i) {
    char name[24];
    std::snprintf(name, sizeof name, "w%06zu", i);
    const Stopwatch publish_clock;
    service.publish(name, *model);
    publish_seconds.push_back(publish_clock.seconds());
    if (!warm.empty()) service.observe_many(name, warm);
  }
  const double sweep_seconds = sweep_clock.seconds();

  // The gated percentile comes from the production histogram — the same
  // series the ops endpoints expose — merged across shards; the Stopwatch
  // percentiles are exact and printed for the curve-vs-occupancy story.
  std::vector<metrics::LatencyHistogram> shard_hists;
  for (std::size_t s = 0; s < service.config().shards; ++s)
    shard_hists.push_back(obs::MetricsRegistry::global()
                              .histogram("ld_registry_publish_latency",
                                         {{"shard", std::to_string(s)}}, 1e-7, 1e2)
                              .snapshot());
  const metrics::LatencyHistogram fleet_publish =
      metrics::LatencyHistogram::merged(shard_hists);

  const double p50_us = exact_percentile(publish_seconds, 50) * 1e6;
  const double p99_us = exact_percentile(publish_seconds, 99) * 1e6;
  std::printf("registered %zu tenants in %.2fs (%.0f/s)\n", tenants, sweep_seconds,
              static_cast<double>(tenants) / sweep_seconds);
  std::printf("  service.publish wall  p50 %8.1fus  p99 %8.1fus\n", p50_us, p99_us);
  std::printf("  ld_registry_publish_latency (merged, %zu samples)  p50 %8.1fus  "
              "p99 %8.1fus\n",
              fleet_publish.count(), fleet_publish.percentile(50) * 1e6,
              fleet_publish.percentile(99) * 1e6);

  bool ok = true;
  if (max_seconds > 0 && sweep_seconds > max_seconds) {
    std::printf("FAIL: registration sweep took %.2fs (budget %.2fs)\n", sweep_seconds,
                max_seconds);
    ok = false;
  }
  const double hist_p99_ms = fleet_publish.percentile(99) * 1e3;
  if (max_publish_p99_ms > 0 && hist_p99_ms > max_publish_p99_ms) {
    std::printf("FAIL: ld_registry_publish_latency p99 %.3fms (budget %.3fms)\n",
                hist_p99_ms, max_publish_p99_ms);
    ok = false;
  }
  if (!ok) {
    std::printf("serve_replay --register: ONBOARDING BUDGET VIOLATED\n");
    return 1;
  }
  std::printf("OK registration smoke (%zu tenants)\n", tenants);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv);
  if (args.get_bool("connect")) return run_connect_mode(args);
  if (args.get_int("register", 0) > 0) return run_register_mode(args);
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 4));
  const auto requests = static_cast<std::size_t>(args.get_int("requests", 2000));
  const auto horizon = static_cast<std::size_t>(args.get_int("horizon", 4));
  const auto n_workloads = std::min<std::size_t>(3, std::max<std::size_t>(
      2, static_cast<std::size_t>(args.get_int("workloads", 2))));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
  const auto epochs = static_cast<std::size_t>(args.get_int("epochs", 12));
  const ld::obs::TraceSession trace_session(args.get("trace", ""));

  fault::init_from_env();
  const std::string faults = args.get("faults", "");
  if (!faults.empty())
    fault::Injector::instance().configure(
        faults, static_cast<std::uint64_t>(args.get_int("fault-seed", 42)));
  const bool chaos = fault::Injector::enabled();

  const std::vector<WorkloadSetup> setups{
      {"wiki", workloads::TraceKind::kWikipedia},
      {"google", workloads::TraceKind::kGoogle},
      {"azure", workloads::TraceKind::kAzure}};

  // Serving config: small warm retrains so a background retrain completes
  // within the bench window and actually overlaps the predictions.
  serving::ServiceConfig cfg;
  cfg.background_retrain = !args.get_bool("no-retrain");
  cfg.adaptive.base.space = core::HyperparameterSpace::reduced();
  cfg.adaptive.base.seed = seed;
  cfg.adaptive.base.training.trainer.max_epochs = 4;
  cfg.adaptive.refresh_candidates = 1;
  cfg.adaptive.retrain_history_cap = 160;
  cfg.checkpoint_dir = args.get("checkpoint-dir", "");
  cfg.retrain_timeout_seconds = args.get_double("retrain-timeout", 0.0);
  // WAL passthrough: measures journaling overhead on the ingest path (the
  // bench_check.py budget gate) and feeds the crash-recovery CI drill.
  cfg.wal.dir = args.get("wal-dir", "");
  cfg.wal.fsync = ld::wal::parse_fsync(args.get("wal-fsync", ""));
  serving::PredictionService service(cfg);

  // Quick-train one small model per workload and split its trace into warmup
  // history (ingested up front) and a replay tail (streamed live).
  std::printf("preparing %zu workloads (quick single-config training)...\n", n_workloads);
  std::vector<std::string> names;
  std::vector<std::vector<double>> replays;
  for (std::size_t i = 0; i < n_workloads; ++i) {
    const workloads::Trace trace =
        workloads::generate(setups[i].kind, 30, {.days = 10.0, .seed = seed + i});
    const workloads::TraceSplit split = workloads::split_trace(trace);

    core::LoadDynamicsConfig ld_cfg;
    ld_cfg.training.trainer.max_epochs = epochs;
    ld_cfg.training.trainer.min_updates = 200;
    ld_cfg.seed = seed + i;
    const core::Hyperparameters hp{.history_length = 16, .cell_size = 12, .num_layers = 1,
                                   .batch_size = 32};
    const auto model =
        core::LoadDynamics(ld_cfg).train_one(split.train, split.validation, hp);
    service.publish(setups[i].name, *model);
    service.observe_many(setups[i].name, split.train_and_validation());
    names.push_back(setups[i].name);
    replays.push_back(split.test);
    std::printf("  %-8s validation MAPE %.2f%%, %zu warmup + %zu replay intervals\n",
                setups[i].name.c_str(), model->validation_mape(),
                split.train_and_validation().size(), split.test.size());
  }

  // One observer thread per workload streams the replay tail and forces one
  // mid-stream retrain; `threads` predictor threads round-robin forecasts.
  std::atomic<bool> done{false};
  std::vector<std::thread> observers;
  for (std::size_t i = 0; i < names.size(); ++i) {
    observers.emplace_back([&, i] {
      const std::vector<double>& tail = replays[i];
      for (std::size_t t = 0; t < tail.size(); ++t) {
        service.observe(names[i], tail[t]);
        if (t == tail.size() / 2) (void)service.request_retrain(names[i]);
        if (done.load(std::memory_order_relaxed)) break;
        std::this_thread::yield();
      }
    });
  }

  // Latency series live in the process registry (thread-sharded histograms),
  // split by whether a retrain overlapped the request. Resolve every series
  // up front so the hot loop never touches the registry mutex.
  constexpr const char* kPhases[2] = {"quiescent", "retrain_overlapped"};
  std::vector<std::array<obs::Histogram*, 2>> latency(names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t p = 0; p < 2; ++p)
      latency[i][p] = &obs::MetricsRegistry::global().histogram(
          "ld_replay_predict_latency_seconds",
          {{"workload", names[i]}, {"phase", kPhases[p]}}, 1e-7, 10.0);
  std::atomic<std::size_t> errors{0};
  std::atomic<std::size_t> non_finite{0};
  std::atomic<std::size_t> degraded{0};

  Stopwatch clock;
  std::vector<std::thread> predictors;
  const std::size_t per_thread = (requests + threads - 1) / threads;
  for (std::size_t t = 0; t < threads; ++t) {
    predictors.emplace_back([&, t] {
      for (std::size_t r = 0; r < per_thread; ++r) {
        const std::size_t wi = (t + r) % names.size();
        // A pending retrain before or after the call means the background
        // trainer was live at some point during it.
        const bool pending_before = service.stats(names[wi]).retrain_pending;
        Stopwatch lat;
        try {
          const auto result = service.predict_detailed(names[wi], horizon);
          const double seconds = lat.seconds();
          const bool overlapped =
              pending_before || service.stats(names[wi]).retrain_pending;
          latency[wi][overlapped ? 1 : 0]->observe(seconds);
          if (result.level != fault::DegradationLevel::kLive)
            degraded.fetch_add(1, std::memory_order_relaxed);
          if (!fault::all_finite(result.forecast))
            non_finite.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : predictors) th.join();
  const double elapsed = clock.seconds();
  done.store(true);
  for (auto& th : observers) th.join();
  service.wait_idle();

  metrics::LatencyHistogram all(1e-7, 10.0);
  for (const auto& per_phase : latency)
    for (const obs::Histogram* h : per_phase) all.merge(h->snapshot());

  std::printf("\n%zu predictor threads, horizon %zu, %zu requests in %.2fs -> %.0f req/s"
              " (%zu errors)\n",
              threads, horizon, all.count(), elapsed,
              static_cast<double>(all.count()) / elapsed, errors.load());
  std::printf("%-10s %-18s %10s %10s %10s %10s %10s %9s\n", "workload", "phase",
              "requests", "p50(us)", "p95(us)", "p99(us)", "max(us)", "retrains");
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto stats = service.stats(names[i]);
    for (std::size_t p = 0; p < 2; ++p) {
      const metrics::LatencyHistogram h = latency[i][p]->snapshot();
      if (h.count() == 0) {
        std::printf("%-10s %-18s %10zu %10s %10s %10s %10s %9zu\n", names[i].c_str(),
                    kPhases[p], h.count(), "-", "-", "-", "-", stats.retrains);
        continue;
      }
      std::printf("%-10s %-18s %10zu %10.1f %10.1f %10.1f %10.1f %9zu\n",
                  names[i].c_str(), kPhases[p], h.count(), h.percentile(50) * 1e6,
                  h.percentile(95) * 1e6, h.percentile(99) * 1e6, h.max() * 1e6,
                  stats.retrains);
    }
  }
  std::printf("%-10s %-18s %10zu %10.1f %10.1f %10.1f %10.1f\n", "all", "both",
              all.count(), all.percentile(50) * 1e6, all.percentile(95) * 1e6,
              all.percentile(99) * 1e6, all.max() * 1e6);

  // Contract check (meaningful under --faults, cheap insurance without):
  // every PREDICT answered, every forecast finite, and one more finite
  // one-step forecast per workload after the dust settles.
  std::size_t final_non_finite = 0;
  for (const std::string& name : names) {
    try {
      const auto result = service.predict_detailed(name, 1);
      if (!fault::all_finite(result.forecast)) ++final_non_finite;
    } catch (const std::exception& e) {
      ++final_non_finite;
      std::printf("final forecast for %s FAILED: %s\n", name.c_str(), e.what());
    }
  }
  if (chaos || errors.load() > 0 || non_finite.load() > 0 || final_non_finite > 0) {
    std::printf("\nchaos summary: faults=%s injected=%llu errors=%zu non_finite=%zu "
                "degraded=%zu final_non_finite=%zu\n",
                chaos ? fault::Injector::instance().status().c_str() : "off",
                static_cast<unsigned long long>(fault::Injector::instance().total_fires()),
                errors.load(), non_finite.load(), degraded.load(), final_non_finite);
  }
  const bool ok = errors.load() == 0 && non_finite.load() == 0 && final_non_finite == 0;
  if (!ok) std::printf("serve_replay: FAULT-TOLERANCE CONTRACT VIOLATED\n");
  return ok ? 0 : 1;
}
