#include "serving/service.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/serialization.hpp"
#include "fault/injector.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "tensor/matrix.hpp"
#include "verify/ulp.hpp"

namespace ld::serving {

namespace {

obs::Gauge& retrain_queue_gauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("ld_serving_retrain_queue_depth");
  return gauge;
}

/// Burn-rate tracker for the predict-latency SLO ("99% of predicts under
/// ServiceConfig::slo_predict_p99_seconds"). Budget 0.01 = 1% may breach.
obs::SloTracker& predict_slo() {
  static obs::SloTracker& tracker = obs::slo_tracker("predict_p99", {0.01, 60, 3600});
  return tracker;
}

void validate_name(const std::string& name) {
  if (name.empty()) throw std::invalid_argument("serving: empty workload name");
  for (const char c : name)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-' && c != '.')
      throw std::invalid_argument("serving: invalid workload name '" + name +
                                  "' (use letters, digits, '_', '-', '.')");
  if (name.front() == '.')
    throw std::invalid_argument("serving: workload name must not start with '.'");
}

std::atomic<int> g_verify_diff{-1};  ///< -1 = consult LD_VERIFY_DIFF on first use

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Recompute `blocked` with the reference kernels and report a divergence
/// beyond the documented ULP bound. Never throws, never alters the forecast.
void diff_check_forecast(const std::string& name, const PublishedModel& model,
                         std::span<const double> history, std::size_t horizon,
                         std::span<const double> live) {
  // When the live predict ran the fused single-timestep path, its regrouped
  // accumulation diverges further from the layered reference than
  // blocked-vs-reference does — pick the bound that matches what actually
  // ran.
  const std::uint64_t bound = core::TrainedModel::fused_predict_live()
                                  ? verify::kFusedPredictUlpBound
                                  : verify::kPredictUlpBound;
  std::vector<double> reference;
  try {
    const tensor::ScopedKernelMode guard(tensor::KernelMode::kReference);
    reference = model.predict_horizon(history, horizon);
  } catch (const std::exception& e) {
    log::warn("serving: verify-diff reference predict for '", name, "' threw: ", e.what());
  }
  const bool mismatch = reference.size() != live.size() ||
                        verify::max_ulp_distance(live, reference) > bound;
  if (!mismatch) return;
  obs::MetricsRegistry::global()
      .counter("ld_verify_diff_mismatch_total", {{"workload", name}})
      .inc();
  log::warn("serving: verify-diff mismatch on '", name, "' (horizon ", horizon,
            "): live and reference kernels disagree beyond ", bound, " ULPs");
}

}  // namespace

void set_verify_diff(bool enabled) noexcept {
  g_verify_diff.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool verify_diff_enabled() noexcept {
  int v = g_verify_diff.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("LD_VERIFY_DIFF");
    v = (env != nullptr && env[0] == '1') ? 1 : 0;
    g_verify_diff.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

PredictionService::Tenant::Tenant(const core::DriftConfig& drift, const std::string& name,
                                  std::size_t shard_index)
    : shard(shard_index), monitor(drift) {
  auto& reg = obs::MetricsRegistry::global();
  const obs::Labels labels{{"workload", name}};
  obs.predict_latency =
      &reg.histogram("ld_serving_predict_latency_seconds", labels, 1e-7, 1e2);
  obs.retrain_seconds = &reg.histogram("ld_serving_retrain_seconds", labels, 1e-4, 1e4);
  obs.predictions = &reg.counter("ld_serving_predictions_total", labels);
  obs.observations = &reg.counter("ld_serving_observations_total", labels);
  obs.drift = &reg.counter("ld_serving_drift_total", labels);
  obs.retrains = &reg.counter("ld_serving_retrains_total", labels);
  obs.rejected = &reg.counter("ld_rejected_samples_total", labels);
  obs.degraded = &reg.counter("ld_degraded_predictions_total", labels);
  obs.retrain_failures = &reg.counter("ld_serving_retrain_failures_total", labels);
  obs.retrain_retries = &reg.counter("ld_serving_retrain_retries_total", labels);
  obs.retrain_timeouts = &reg.counter("ld_serving_retrain_timeouts_total", labels);
}

PredictionService::PredictionService(ServiceConfig config)
    : config_(std::move(config)),
      tenants_(config_.shards) {
  if (config_.max_history < 16)
    throw std::invalid_argument("serving: max_history must be >= 16");
  if (!config_.checkpoint_dir.empty())
    std::filesystem::create_directories(config_.checkpoint_dir);
  const std::size_t n = tenants_.shard_count();
  config_.shards = n;
  shards_.reserve(n);
  auto& reg = obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    // Per-shard RNG streams keep retry jitter deterministic per shard no
    // matter how drain tasks interleave across shards.
    shard->backoff_rng = Rng(config_.adaptive.base.seed + 0xbac0ff + i);
    const obs::Labels labels{{"shard", std::to_string(i)}};
    shard->predict_latency = &reg.histogram("ld_predict_latency", labels, 1e-7, 1e2);
    shard->queue_depth = &reg.gauge("ld_shard_queue_depth", labels);
    shards_.push_back(std::move(shard));
  }
  for (const auto level : {fault::DegradationLevel::kLive, fault::DegradationLevel::kSnapshot,
                           fault::DegradationLevel::kBaseline})
    level_counters_[static_cast<std::size_t>(level)] = &reg.counter(
        "ld_predictions_by_level_total", {{"level", fault::to_string(level)}});
  if (config_.wal.enabled()) {
    wal_ = std::make_unique<wal::WalManager>(config_.wal, n);
    wal_append_failures_ = &reg.counter("ld_wal_append_failures_total");
    recovery_seconds_gauge_ = &reg.gauge("ld_recovery_seconds");
    snapshot_age_gauge_ = &reg.gauge("ld_snapshot_age_seconds");
    wal_segments_gauge_ = &reg.gauge("ld_wal_segments");
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

PredictionService::~PredictionService() {
  {
    std::scoped_lock lock(sched_mu_);
    stop_ = true;
  }
  sched_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Drain tasks run on the shared pool and hold `this`: wait them out.
  // Each exits at its next between-jobs stop check (queued jobs are
  // abandoned on shutdown, as the single worker did).
  {
    std::unique_lock lock(sched_mu_);
    idle_cv_.wait(lock, [this] { return active_drains_ == 0; });
  }
  if (wal_) {
    // Best-effort final flush so a graceful exit loses nothing even under
    // fsync=never; the journals fsync again in their own destructors.
    try {
      wal_->sync_all();
    } catch (const std::exception& e) {
      log::warn("serving: WAL flush on shutdown failed: ", e.what());
    }
  }
}

PredictionService::Tenant& PredictionService::ensure_tenant(const std::string& name) {
  if (Tenant* t = tenants_.find(name).get()) return *t;
  validate_name(name);
  return *tenants_.insert(name, [&] {
    auto t = std::make_shared<Tenant>(config_.adaptive.drift_config(), name,
                                      tenants_.shard_of(name));
    // Journal the registration under the shard's writer lock, before the
    // tenant is visible: per-shard registration order matches apply order
    // on replay. Replayed registrations are already durable (they came FROM
    // the journal) and are not re-appended.
    if (wal_ && !wal_replaying_.load(std::memory_order_relaxed)) {
      std::string rec;
      wal::append_register(rec, name);
      wal_append(name, rec);
    }
    return t;
  });
}

PredictionService::Tenant& PredictionService::tenant(const std::string& name) const {
  Tenant* t = tenants_.find(name).get();
  if (t == nullptr) throw std::runtime_error("serving: unknown workload '" + name + "'");
  return *t;
}

std::shared_ptr<const PublishedModel> PredictionService::current_model(
    const std::string& name) const {
  Tenant* t = tenants_.find(name).get();
  if (t == nullptr) return nullptr;
  std::scoped_lock lock(t->mu);
  return t->model;
}

std::string PredictionService::checkpoint_path(const std::string& name) const {
  return (std::filesystem::path(config_.checkpoint_dir) / (name + ".ldm")).string();
}

bool PredictionService::add_workload(const std::string& name) {
  Tenant& t = ensure_tenant(name);
  if (current_model(name)) return true;
  if (!config_.checkpoint_dir.empty()) {
    const std::string path = checkpoint_path(name);
    std::error_code ec;
    if (std::filesystem::exists(path, ec) || std::filesystem::exists(path + ".prev", ec)) {
      try {
        std::string loaded_from;
        // Restored from our own checkpoint — don't immediately rewrite it.
        publish_model(t, name, core::load_checkpoint(path, &loaded_from),
                      /*count_retrain=*/false, /*write_checkpoint=*/false);
        log::info("serving: warm-started '", name, "' from ", loaded_from);
        return true;
      } catch (const std::exception& e) {
        // A cold start beats refusing to serve: the workload still registers
        // and can train from scratch.
        log::warn("serving: warm start of '", name, "' failed: ", e.what());
      }
    }
  }
  return false;
}

void PredictionService::load_workload(const std::string& name, const std::string& path) {
  Tenant& t = ensure_tenant(name);
  publish_model(t, name, core::load_model_file(path), /*count_retrain=*/false,
                /*write_checkpoint=*/true);
}

void PredictionService::publish(const std::string& name, const core::TrainedModel& model) {
  Tenant& t = ensure_tenant(name);
  // A copy of a TrainedModel shares its (const, packed) network: cheap, and
  // tenants published from one model share one set of weights.
  publish_model(t, name, std::make_shared<const core::TrainedModel>(model),
                /*count_retrain=*/false, /*write_checkpoint=*/true);
}

void PredictionService::publish_model(Tenant& t, const std::string& name,
                                      std::shared_ptr<const core::TrainedModel> model,
                                      bool count_retrain, bool write_checkpoint) {
  const double validation_mape = model->validation_mape();
  std::scoped_lock checkpoint_lock(t.checkpoint_mu);

  std::uint64_t version = 0;
  std::shared_ptr<const PublishedModel> displaced;
  {
    std::scoped_lock lock(t.mu);
    version = ++t.version;
    auto published = PublishedModel::make(model, version);
    if (t.model) {
      // The displaced version becomes the fallback snapshot: it served fine
      // until a moment ago, which is more than the new version can claim.
      displaced = std::exchange(t.last_good, std::move(t.model));
    }
    t.model = std::move(published);
    t.baseline_mape = validation_mape;
    t.last_fit_step = t.observations;
    t.monitor.reset();
    if (count_retrain) {
      ++t.retrains;
      t.obs.retrains->inc();
    }
  }
  // The version falling out of last_good is dropped here, outside the
  // tenant mutex; make()'s deleter guards a throwing destructor, so a bad
  // teardown costs a counter bump, not the process.
  displaced.reset();

  if (write_checkpoint && !config_.checkpoint_dir.empty()) {
    try {
      core::save_model_file(*model, checkpoint_path(name));
    } catch (const std::exception& e) {
      log::warn("serving: checkpoint of '", name, "' failed: ", e.what());
    }
  }

  // Journal the promotion so a recovered service knows the retrain happened
  // (version + retrain count survive even when the checkpoint write raced
  // the crash — the model itself comes back from the .ldm checkpoint).
  if (count_retrain && wal_ && !wal_replaying_.load(std::memory_order_relaxed)) {
    std::scoped_lock lock(t.mu);
    std::string rec;
    wal::append_promote(rec, name, version);
    wal_append(name, rec);
  }
}

void PredictionService::observe(const std::string& name, double value) {
  observe_many(name, std::span<const double>(&value, 1));
}

void PredictionService::observe_many(const std::string& name,
                                     std::span<const double> values) {
  if (values.empty()) return;
  Tenant& w = ensure_tenant(name);
  // A single NaN in the history poisons every later forecast, so bad
  // samples are rejected at the door (counted, never ingested).
  csv::SanitizeStats rejected;
  const std::vector<double> clean =
      csv::sanitize_loads(std::vector<double>(values.begin(), values.end()), &rejected);
  if (rejected.total() > 0) {
    w.obs.rejected->inc(rejected.total());
    {
      std::scoped_lock lock(w.mu);
      w.rejected += rejected.total();
    }
    log::warn("serving: rejected ", rejected.total(), " bad samples for '", name,
              "' (nan=", rejected.rejected_nan, " inf=", rejected.rejected_inf,
              " negative=", rejected.rejected_negative, ")");
  }
  if (clean.empty()) return;
  w.obs.observations->inc(clean.size());
  bool queue_retrain = false;
  double priority = 0.0;
  {
    std::scoped_lock lock(w.mu);
    w.history.insert(w.history.end(), clean.begin(), clean.end());
    w.observations += clean.size();
    // Trim in chunks so steady-state ingestion stays amortized O(1).
    if (w.history.size() > config_.max_history + config_.max_history / 4)
      w.history.erase(w.history.begin(),
                      w.history.end() - static_cast<std::ptrdiff_t>(config_.max_history));
    // Journal the batch inside the same critical section that mutated the
    // history: per-tenant record order == apply order, and `first_step` (the
    // absolute index of values[0]) makes replay idempotent — a snapshot is
    // always captured at a batch boundary, so a record either precedes the
    // snapshot entirely (skipped) or follows it entirely (applied whole).
    if (wal_ && !wal_replaying_.load(std::memory_order_relaxed)) {
      std::string rec;
      wal::append_observe(rec, name, w.observations - clean.size(), clean);
      wal_append(name, rec);
    }
    if (config_.background_retrain && w.version > 0 && !w.retrain_pending) {
      const std::size_t first_step = w.observations - w.history.size();
      const core::DriftDecision drift =
          w.monitor.evaluate(w.history, w.baseline_mape, w.last_fit_step, first_step);
      if (drift.should_retrain) {
        w.retrain_pending = true;
        queue_retrain = true;
        // Shard-queue priority: drift severity (how far past baseline the
        // recent error is; changepoints jump the line) × observed traffic
        // (busy tenants amortize a retrain over more forecasts).
        double severity = 1.0;
        if (drift.recent_mape > 0.0 && w.baseline_mape > 0.0)
          severity = drift.recent_mape / w.baseline_mape;
        if (drift.changepoint) severity = std::max(severity, 2.0);
        priority = severity * (1.0 + static_cast<double>(w.predictions));
        w.obs.drift->inc();
        LD_TRACE_INSTANT("serve.drift");
        log::info("serving: drift on '", name, "' (recent MAPE ", drift.recent_mape,
                  "% vs baseline ", w.baseline_mape, "%",
                  drift.changepoint ? ", changepoint" : "", "), retrain queued");
      }
    }
  }
  if (queue_retrain) enqueue_retrain(name, priority);
}

std::vector<double> PredictionService::predict(const std::string& name,
                                               std::size_t horizon) {
  return predict_detailed(name, horizon).forecast;
}

PredictResult PredictionService::predict_detailed(const std::string& name,
                                                  std::size_t horizon) {
  if (horizon == 0) throw std::invalid_argument("serving: horizon must be >= 1");
  LD_TRACE_SPAN("serve.predict");
  obs::touch_workload(name);  // heavy-hitter hook (one relaxed load when off)
  const Stopwatch clock;
  if (const std::uint64_t rid = obs::RequestScope::current(); rid != 0) {
    auto& tracer = obs::Tracer::instance();
    tracer.record_flow("req.shard", 't', rid, static_cast<double>(tenants_.shard_of(name)));
    tracer.record_flow("req.predict", 't', rid);
  }
  Tenant* const tenant = tenants_.find(name).get();
  std::shared_ptr<const PublishedModel> model;
  std::vector<double> history;
  std::size_t now = 0;
  std::shared_ptr<const PublishedModel> last_good;
  if (tenant != nullptr) {
    std::scoped_lock lock(tenant->mu);
    model = tenant->model;
    history = tenant->history;
    now = tenant->observations;
    last_good = tenant->last_good;
  }
  if (!model) throw std::runtime_error("serving: no model published for '" + name + "'");
  Tenant& w = *tenant;
  if (history.empty())
    throw std::runtime_error("serving: no observations for '" + name + "' yet");

  const auto usable = [](const std::vector<double>& f) {
    return !f.empty() && fault::all_finite(f);
  };

  // Fallback chain: current model -> last-known-good snapshot -> baseline.
  PredictResult result;
  result.version = model->version();
  try {
    result.forecast = model->predict_horizon(history, horizon);
    if (verify_diff_enabled() && !result.forecast.empty())
      diff_check_forecast(name, *model, history, horizon, result.forecast);
  } catch (const std::exception& e) {
    log::warn("serving: live predict for '", name, "' threw: ", e.what());
    result.forecast.clear();
  }
  if (LD_FAULT_FIRES("predict.nan"))
    result.forecast.assign(horizon, std::numeric_limits<double>::quiet_NaN());
  if (!usable(result.forecast)) {
    result.level = fault::DegradationLevel::kSnapshot;
    result.forecast.clear();
    if (last_good) {
      try {
        std::vector<double> fallback = last_good->predict_horizon(history, horizon);
        if (usable(fallback)) {
          result.forecast = std::move(fallback);
          result.version = last_good->version();
        }
      } catch (const std::exception& e) {
        log::warn("serving: snapshot fallback for '", name, "' threw: ", e.what());
      }
    }
  }
  if (!usable(result.forecast)) {
    result.level = fault::DegradationLevel::kBaseline;
    result.version = 0;
    result.forecast = fault::baseline_forecast(history, horizon, config_.baseline_ewma_alpha);
  }

  {
    std::scoped_lock lock(w.mu);
    ++w.predictions;
    // The first element is the one-step forecast of the next actual; the
    // drift monitor scores it once that actual is observed.
    w.monitor.record(now, result.forecast.front());
    w.last_level = result.level;
    if (result.level != fault::DegradationLevel::kLive) ++w.degraded;
  }
  if (result.level != fault::DegradationLevel::kLive) {
    w.obs.degraded->inc();
    log::warn("serving: '", name, "' answered degraded (", fault::to_string(result.level),
              ")");
  }
  w.obs.predictions->inc();
  level_counters_[static_cast<std::size_t>(result.level)]->inc();
  const double seconds = clock.seconds();
  w.obs.predict_latency->observe(seconds);
  shards_[w.shard]->predict_latency->observe(seconds);
  if (config_.slo_predict_p99_seconds > 0) {
    const bool breach = seconds > config_.slo_predict_p99_seconds;
    predict_slo().record(breach);
    if (breach) {
      // Slow-request exemplar: an instant event a trace viewer can jump to,
      // plus a structured log line (throttled to one per second — overload
      // is exactly when per-request logging would make things worse).
      LD_TRACE_INSTANT("serve.slow_request");
      static std::atomic<std::uint64_t> last_log_s{0};
      const std::uint64_t now_s = obs::slo_now_s();
      std::uint64_t prev = last_log_s.load(std::memory_order_relaxed);
      if (now_s != prev && last_log_s.compare_exchange_strong(prev, now_s,
                                                              std::memory_order_relaxed))
        log::warn("serving: slow predict workload='", name, "' shard=", w.shard,
                  " level=", fault::to_string(result.level), " latency_ms=",
                  seconds * 1e3, " target_ms=", config_.slo_predict_p99_seconds * 1e3);
    }
  }
  return result;
}

std::vector<PredictResponse> PredictionService::predict_batch(
    std::span<const PredictRequest> requests) {
  std::vector<PredictResponse> out(requests.size());
  ThreadPool::global().parallel_for(0, requests.size(), [&](std::size_t i) {
    try {
      PredictResult result = predict_detailed(requests[i].workload, requests[i].horizon);
      out[i].forecast = std::move(result.forecast);
      out[i].level = result.level;
    } catch (const std::exception& e) {
      out[i].error = e.what();
    }
  });
  return out;
}

bool PredictionService::request_retrain(const std::string& name) {
  Tenant* const w = tenants_.find(name).get();
  if (w == nullptr) return false;
  double priority = 0.0;
  {
    std::scoped_lock lock(w->mu);
    if (!w->model || w->retrain_pending) return false;
    w->retrain_pending = true;
    // Manual request: neutral severity, still traffic-weighted.
    priority = 1.0 + static_cast<double>(w->predictions);
  }
  enqueue_retrain(name, priority);
  return true;
}

void PredictionService::enqueue_retrain(const std::string& name, double priority) {
  // Chaos site: a stalled shard queue delays scheduling, never drops work
  // (delay-only — observe() must not unwind).
  LD_FAULT_DELAY("shard.queue");
  if (const std::uint64_t rid = obs::RequestScope::current(); rid != 0)
    obs::Tracer::instance().record_flow("req.retrain_enqueue", 't', rid, priority);
  const std::size_t si = tenants_.shard_of(name);
  Shard& shard = *shards_[si];
  {
    std::scoped_lock lock(sched_mu_);
    shard.queue.push_back({priority, ++job_seq_, name});
    std::push_heap(shard.queue.begin(), shard.queue.end());
    ++pending_jobs_;
    shard.queue_depth->set(static_cast<double>(shard.queue.size()));
    retrain_queue_gauge().set(static_cast<double>(pending_jobs_));
  }
  sched_cv_.notify_all();
}

void PredictionService::wait_idle() {
  std::unique_lock lock(sched_mu_);
  idle_cv_.wait(lock, [this] { return pending_jobs_ == 0 && active_drains_ == 0; });
}

void PredictionService::dispatcher_loop() {
  std::vector<std::size_t> to_start;
  for (;;) {
    {
      std::unique_lock lock(sched_mu_);
      sched_cv_.wait(lock, [this] {
        if (stop_) return true;
        for (const auto& shard : shards_)
          if (!shard->queue.empty() && !shard->drain_active) return true;
        return false;
      });
      if (stop_) return;
      to_start.clear();
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& shard = *shards_[i];
        if (!shard.queue.empty() && !shard.drain_active) {
          shard.drain_active = true;
          ++active_drains_;
          to_start.push_back(i);
        }
      }
    }
    // Submit outside sched_mu_: on a worker-less pool (single-core hosts)
    // submit() executes inline on this thread, and the drain locks sched_mu_.
    for (const std::size_t i : to_start)
      (void)ThreadPool::global().submit([this, i] { drain_shard(i); });
  }
}

void PredictionService::drain_shard(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    std::string name;
    {
      std::scoped_lock lock(sched_mu_);
      if (stop_ || shard.queue.empty()) {
        shard.drain_active = false;
        --active_drains_;
        idle_cv_.notify_all();
        break;
      }
      std::pop_heap(shard.queue.begin(), shard.queue.end());
      name = std::move(shard.queue.back().name);
      shard.queue.pop_back();
      --pending_jobs_;
      shard.queue_depth->set(static_cast<double>(shard.queue.size()));
      retrain_queue_gauge().set(static_cast<double>(pending_jobs_));
    }
    try {
      run_retrain(name, shard.backoff_rng);
    } catch (const std::exception& e) {
      log::warn("serving: retrain of '", name, "' failed: ", e.what());
    }
  }
}

void PredictionService::run_retrain(const std::string& name, Rng& backoff_rng) {
  LD_TRACE_SPAN("serve.retrain");
  Tenant& w = tenant(name);
  const Stopwatch clock;
  std::size_t retrain_index = 0;
  auto history = std::make_shared<std::vector<double>>();
  std::shared_ptr<const PublishedModel> incumbent;
  {
    std::scoped_lock lock(w.mu);
    *history = w.history;
    retrain_index = w.retrains;
    incumbent = w.model;
  }

  std::shared_ptr<core::TrainedModel> model;
  if (incumbent) {
    // Attempt closures are self-contained (no service state) so a timed-out
    // attempt orphaned by the supervisor can finish — or keep hanging —
    // without touching anything the service might mutate or destroy.
    const auto hp = std::make_shared<const core::Hyperparameters>(incumbent->hyperparameters());
    const auto adaptive = std::make_shared<const core::AdaptiveConfig>(config_.adaptive);
    const fault::RetryPolicy& policy = config_.retrain_retry;
    const std::size_t max_attempts = std::max<std::size_t>(1, policy.max_attempts);
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) {
        w.obs.retrain_retries->inc();
        {
          std::scoped_lock lock(w.mu);
          ++w.retrain_retries;
        }
        const double wait = fault::backoff_seconds(policy, attempt - 1, backoff_rng);
        log::info("serving: retrain of '", name, "' retry ", attempt, " in ", wait, "s");
        fault::cancellable_sleep(wait);
      }
      auto slot = std::make_shared<std::shared_ptr<core::TrainedModel>>();
      const auto attempt_fn = [slot, history, hp, adaptive, retrain_index, attempt] {
        LD_FAULT_POINT("retrain.hang");
        LD_FAULT_POINT("retrain.fail");
        // The expensive part: runs with no service lock held, so predictions
        // and ingestion proceed untouched on the incumbent snapshot.
        // `+ attempt` gives a retry fresh candidate probes (attempt 0 keeps
        // the historical seeding).
        *slot = core::warm_retrain(*history, *hp, *adaptive, retrain_index + attempt);
      };
      std::string error;
      bool permanent = false;
      const fault::TaskStatus status =
          supervisor_.run(attempt_fn, config_.retrain_timeout_seconds, &error, &permanent);
      if (status == fault::TaskStatus::kCompleted) {
        std::shared_ptr<core::TrainedModel> candidate = *slot;
        if (!candidate) {
          // No candidate converged: the historical quiet outcome, not a
          // fault — the incumbent simply stays. Don't burn retries on it.
          log::warn("serving: warm retrain of '", name, "' produced no model");
          break;
        }
        bool valid = true;
        if (LD_FAULT_FIRES("retrain.nan")) {
          error = "injected non-finite weights";
          valid = false;
        }
        if (valid) {
          const core::ModelSnapshot snap = candidate->snapshot();
          if (!fault::all_finite(snap.weights) || !std::isfinite(snap.validation_mape)) {
            error = "model has non-finite weights or validation MAPE";
            valid = false;
          }
        }
        if (valid) {
          model = std::move(candidate);
          break;
        }
      } else if (status == fault::TaskStatus::kTimedOut) {
        w.obs.retrain_timeouts->inc();
        {
          std::scoped_lock lock(w.mu);
          ++w.retrain_timeouts;
        }
        error = "cancelled by watchdog after " +
                std::to_string(config_.retrain_timeout_seconds) + "s";
      }
      w.obs.retrain_failures->inc();
      {
        std::scoped_lock lock(w.mu);
        ++w.retrain_failures;
      }
      log::warn("serving: retrain attempt ", attempt + 1, "/", max_attempts, " for '", name,
                "' failed: ", error);
      if (permanent) {
        log::warn("serving: retrain of '", name, "' skipped: ", error);
        break;
      }
    }
  }
  if (model) publish_model(w, name, model, /*count_retrain=*/true, /*write_checkpoint=*/true);
  w.obs.retrain_seconds->observe(clock.seconds());
  std::uint64_t version = 0;
  {
    std::scoped_lock lock(w.mu);
    w.retrain_pending = false;
    version = w.version;
  }
  if (model)
    log::info("serving: '", name, "' retrained (v", version, ", validation MAPE ",
              model->validation_mape(), "%)");
}

WorkloadStats PredictionService::stats(const std::string& name) const {
  Tenant& w = tenant(name);
  std::scoped_lock lock(w.mu);
  return {.version = w.version,
          .observations = w.observations,
          .predictions = w.predictions,
          .retrains = w.retrains,
          .history_size = w.history.size(),
          .baseline_mape = w.baseline_mape,
          .retrain_pending = w.retrain_pending,
          .rejected = w.rejected,
          .degraded = w.degraded,
          .retrain_failures = w.retrain_failures,
          .retrain_retries = w.retrain_retries,
          .retrain_timeouts = w.retrain_timeouts,
          .last_level = w.last_level};
}

std::vector<std::string> PredictionService::workload_names() const {
  return tenants_.names();
}

std::vector<std::string> PredictionService::shard_workload_names(std::size_t shard) const {
  return tenants_.shard_names(shard);
}

metrics::LatencyHistogram PredictionService::fleet_predict_latency() const {
  std::vector<metrics::LatencyHistogram> parts;
  parts.reserve(shards_.size());
  for (const auto& shard : shards_) parts.push_back(shard->predict_latency->snapshot());
  return metrics::LatencyHistogram::merged(parts);
}

std::vector<std::size_t> PredictionService::shard_queue_depths() const {
  std::vector<std::size_t> depths(shards_.size(), 0);
  std::scoped_lock lock(sched_mu_);
  for (std::size_t i = 0; i < shards_.size(); ++i) depths[i] = shards_[i]->queue.size();
  return depths;
}

void PredictionService::save_workload(const std::string& name,
                                      const std::string& path) const {
  const std::shared_ptr<const PublishedModel> model = current_model(name);
  if (!model) throw std::runtime_error("serving: no model published for '" + name + "'");
  core::save_model_file(model->model(), path);
}

// --- Durability (DESIGN.md §15) ----------------------------------------------

void PredictionService::wal_append(const std::string& name,
                                   const std::string& encoded) noexcept {
  try {
    wal_->shard(tenants_.shard_of(name)).append(encoded);
  } catch (const std::exception& e) {
    // Durability degrades, availability doesn't: the in-memory mutation that
    // triggered this append already happened and keeps serving.
    wal_append_failures_->inc();
    log::warn("serving: WAL append for '", name, "' failed: ", e.what());
  }
}

void PredictionService::restore_tenant(const wal::TenantState& tenant,
                                       RecoveryStats& stats) {
  try {
    // add_workload registers the tenant and, when the manifest says a
    // checkpoint existed, warm-starts its model (falling back to `.prev` or a
    // cold start exactly like a normal boot).
    const bool live = add_workload(tenant.name);
    if (tenant.has_model && !live)
      log::warn("serving: manifest promises a model for '", tenant.name,
                "' but no checkpoint restored — serving degraded");
    if (live) ++stats.models;
    Tenant& w = this->tenant(tenant.name);
    std::scoped_lock lock(w.mu);
    // add_workload's publish bumped w.version to 1; the manifest knows the
    // real pre-crash version. Never go backwards.
    w.version = std::max<std::uint64_t>(w.version, tenant.version);
    w.history = tenant.history;
    w.observations = tenant.observations;
    w.retrains = tenant.retrains;
    w.baseline_mape = tenant.baseline_mape;
    w.last_fit_step = tenant.last_fit_step;
    w.monitor.reset();  // drift state restarts clean from the restored baseline
    ++stats.tenants;
  } catch (const std::exception& e) {
    log::warn("serving: could not restore tenant '", tenant.name, "': ", e.what());
  }
}

void PredictionService::apply_record(const wal::Record& rec, RecoveryStats& stats) {
  switch (rec.type) {
    case wal::RecordType::kRegister:
      add_workload(rec.name);
      break;
    case wal::RecordType::kObserve: {
      Tenant& w = ensure_tenant(rec.name);
      std::scoped_lock lock(w.mu);
      // Idempotence: a batch applies only when it continues the tenant's
      // history exactly. first_step < observations is a duplicate (already in
      // the snapshot); > observations would leave a gap (possible only after
      // a quarantined segment swallowed records) — skip whole either way.
      if (rec.first_step != w.observations) {
        ++stats.skipped_records;
        return;
      }
      w.history.insert(w.history.end(), rec.values.begin(), rec.values.end());
      w.observations += rec.values.size();
      if (w.history.size() > config_.max_history + config_.max_history / 4)
        w.history.erase(w.history.begin(),
                        w.history.end() - static_cast<std::ptrdiff_t>(config_.max_history));
      stats.replayed_values += rec.values.size();
      break;
    }
    case wal::RecordType::kPromote: {
      Tenant& w = ensure_tenant(rec.name);
      std::scoped_lock lock(w.mu);
      // The model bytes came back from the checkpoint (or didn't — then the
      // old model keeps serving); the WAL restores the accounting.
      if (rec.version > w.version) {
        w.version = rec.version;
        ++w.retrains;
      } else {
        ++stats.skipped_records;
      }
      break;
    }
  }
}

RecoveryStats PredictionService::recover() {
  if (!wal_) throw std::runtime_error("serving: recover() requires ServiceConfig::wal.dir");
  const Stopwatch clock;
  RecoveryStats stats;
  wal_replaying_.store(true, std::memory_order_relaxed);

  // Phase 1: the snapshot manifest — registry membership, checkpoints,
  // histories, counters as of the last compaction.
  const std::string path = wal::manifest_path(config_.wal.dir);
  std::vector<std::uint64_t> from_seq(shards_.size(), 0);
  std::error_code ec;
  if (std::filesystem::exists(path, ec) ||
      std::filesystem::exists(path + ".prev", ec)) {
    try {
      std::string loaded_from;
      const wal::Manifest manifest = wal::load_manifest(path, &loaded_from);
      if (manifest.shard_wal_seq.size() != shards_.size())
        throw std::runtime_error(
            "manifest written under " + std::to_string(manifest.shard_wal_seq.size()) +
            " shards, service has " + std::to_string(shards_.size()) +
            " (workload placement differs — refusing to mix)");
      from_seq = manifest.shard_wal_seq;
      for (const wal::TenantState& tenant : manifest.tenants)
        restore_tenant(tenant, stats);
      stats.snapshot_loaded = true;
      log::info("serving: restored ", stats.tenants, " tenants (", stats.models,
                " with models) from ", loaded_from);
    } catch (const std::exception& e) {
      // Replay everything still on disk; tenants whose segments were
      // compacted under the unreadable manifest are lost — say so loudly.
      log::warn("serving: snapshot manifest unusable (", e.what(),
                ") — cold-starting from WAL tails alone");
      std::fill(from_seq.begin(), from_seq.end(), 0);
    }
  }

  // Phase 2: per-shard WAL tails, replayed in parallel — shards never share
  // tenants, so the only cross-shard state is the stats aggregation below.
  std::vector<wal::ReplayStats> shard_stats(shards_.size());
  std::vector<RecoveryStats> shard_applied(shards_.size());
  ThreadPool::global().parallel_for(0, shards_.size(), [&](std::size_t i) {
    shard_stats[i] = wal_->shard(i).replay(
        from_seq[i],
        [&, i](const wal::Record& rec) { apply_record(rec, shard_applied[i]); });
  });
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    stats.segments += shard_stats[i].segments;
    stats.replayed_records += shard_stats[i].records;
    stats.torn_segments += shard_stats[i].torn_segments;
    stats.quarantined_segments += shard_stats[i].quarantined_segments;
    stats.replayed_values += shard_applied[i].replayed_values;
    stats.skipped_records += shard_applied[i].skipped_records;
  }

  wal_replaying_.store(false, std::memory_order_relaxed);
  stats.seconds = clock.seconds();
  recovery_seconds_gauge_->set(stats.seconds);
  // Until the next write_snapshot, "age" dates from this recovery — the
  // manifest just consumed is exactly as stale as the replayed tail is long.
  last_snapshot_steady_.store(steady_seconds(), std::memory_order_relaxed);
  {
    std::scoped_lock lock(recovery_mu_);
    recovery_ = stats;
  }
  log::info("serving: recovery done in ", stats.seconds, "s — ", stats.replayed_records,
            " records (", stats.replayed_values, " values) replayed, ",
            stats.skipped_records, " skipped, ", stats.torn_segments, " torn, ",
            stats.quarantined_segments, " quarantined across ", stats.segments,
            " segments");
  return stats;
}

std::string PredictionService::write_snapshot() {
  if (!wal_)
    throw std::runtime_error("serving: write_snapshot() requires ServiceConfig::wal.dir");
  std::scoped_lock snapshot_lock(snapshot_mu_);

  // Order is the whole correctness argument (DESIGN.md §15):
  //  1. rotate every journal — records appended after this instant land in
  //     segments >= the boundary and stay out of this snapshot's scope;
  //  2. capture tenant state — each tenant is read under w.mu, so every
  //     captured history sits at a batch boundary at or after its rotation;
  //  3. durably write the manifest;
  //  4. only then delete segments below the boundary. A crash anywhere
  //     before 4 leaves extra segments, which idempotent replay absorbs.
  wal::Manifest manifest;
  manifest.shard_wal_seq.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i)
    manifest.shard_wal_seq[i] = wal_->shard(i).rotate();

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (const auto& [name, t] : tenants_.shard_snapshot(i)->sorted_entries()) {
      wal::TenantState tenant;
      tenant.name = name;
      {
        std::scoped_lock lock(t->mu);
        tenant.has_model = t->model != nullptr;
        tenant.version = t->version;
        tenant.observations = t->observations;
        tenant.retrains = t->retrains;
        tenant.baseline_mape = t->baseline_mape;
        tenant.last_fit_step = t->last_fit_step;
        tenant.history = t->history;
      }
      manifest.tenants.push_back(std::move(tenant));
    }
  }

  const std::string path = wal::manifest_path(config_.wal.dir);
  wal::save_manifest(manifest, path);  // throws before any segment is deleted

  for (std::size_t i = 0; i < shards_.size(); ++i)
    wal_->shard(i).remove_segments_below(manifest.shard_wal_seq[i]);
  last_snapshot_steady_.store(steady_seconds(), std::memory_order_relaxed);
  log::info("serving: snapshot of ", manifest.tenants.size(), " tenants written to ",
            path);
  return path;
}

void PredictionService::flush_wal() {
  if (!wal_)
    throw std::runtime_error("serving: flush_wal() requires ServiceConfig::wal.dir");
  wal_->sync_all();
}

RecoveryStats PredictionService::last_recovery() const {
  std::scoped_lock lock(recovery_mu_);
  return recovery_;
}

void PredictionService::refresh_wal_gauges() const {
  if (!wal_) return;
  wal_segments_gauge_->set(static_cast<double>(wal_->total_segments()));
  const double at = last_snapshot_steady_.load(std::memory_order_relaxed);
  snapshot_age_gauge_->set(at < 0.0 ? -1.0 : steady_seconds() - at);
}

}  // namespace ld::serving
