#include "verify/gates.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/checksum.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "core/loaddynamics.hpp"
#include "core/serialization.hpp"
#include "obs/registry.hpp"
#include "serving/protocol.hpp"
#include "serving/service.hpp"
#include "tensor/matrix.hpp"
#include "workloads/generators.hpp"
#include "workloads/trace.hpp"

namespace ld::verify {

namespace {

// ---------------------------------------------------------------------------
// The pinned gate protocol. Every constant here is part of the golden
// contract: changing any of them requires an ld_golden --regen and shows up
// as a reviewable golden-file diff (see EXPERIMENTS.md, "Golden gates").

constexpr std::uint64_t kGateSeed = 2020;

struct GateConfig {
  workloads::TraceKind kind;
  std::size_t interval_minutes;
  double days;
  const char* label;
};

// One workload per trace family, at the granularity the paper emphasizes for
// it. Short traces keep a full --check under ~2 minutes on a laptop.
constexpr GateConfig kGateWorkloads[] = {
    {workloads::TraceKind::kGoogle, 30, 6.0, "GL-30"},
    {workloads::TraceKind::kWikipedia, 60, 8.0, "Wiki-60"},
    {workloads::TraceKind::kAzure, 30, 6.0, "AZ-30"},
    {workloads::TraceKind::kFacebook, 60, 1.0, "FB-60"},
};

core::LoadDynamicsConfig gate_loaddynamics_config(workloads::TraceKind kind) {
  core::LoadDynamicsConfig cfg;
  cfg.space = core::HyperparameterSpace::reduced();
  if (kind == workloads::TraceKind::kFacebook) {
    cfg.space.history_max = 24;
    cfg.space.batch_max = 64;
  }
  cfg.max_iterations = 6;
  cfg.initial_random = 3;
  cfg.training.trainer.max_epochs = 10;
  cfg.training.trainer.patience = 4;
  cfg.training.trainer.learning_rate = 1e-2;
  cfg.training.trainer.min_updates = 400;
  cfg.training.max_train_windows = 800;
  cfg.seed = kGateSeed;
  cfg.batch_size = 1;
  return cfg;
}

// Default tolerances for MAPE fields: absolute floor for near-zero errors
// (Wikipedia sits around 1%), relative band for the rest. Chosen to absorb
// cross-compiler/architecture floating-point drift (FMA contraction,
// vectorization) while staying far below any behavioral change a code bug
// produces — see EXPERIMENTS.md for the calibration notes.
constexpr double kMapeAbsTol = 0.25;  // percentage points
constexpr double kMapeRelTol = 0.05;  // 5% of the golden value

/// Train a deterministic micro-model for the checkpoint/metrics gates
/// (milliseconds, not minutes — its exact weights are part of the golden
/// contract via the checkpoint CRC).
std::shared_ptr<core::TrainedModel> train_tiny_model() {
  // Pin the blocked kernel: the exact weights (and their checkpoint
  // CRC) were goldened under the blocked kernels, and training is chaotic
  // enough that any few-ULP GEMM difference diverges the CRC.
  const tensor::ScopedKernelMode pinned(tensor::KernelMode::kBlocked);
  std::vector<double> series;
  series.reserve(96);
  for (int i = 0; i < 96; ++i)
    series.push_back(100.0 + 12.0 * std::sin(i / 6.0) + (i % 5));
  core::Hyperparameters hp;
  hp.history_length = 6;
  hp.cell_size = 4;
  hp.num_layers = 1;
  hp.batch_size = 8;
  core::ModelTrainingConfig config;
  config.trainer.max_epochs = 4;
  config.trainer.learning_rate = 1e-2;
  return std::make_shared<core::TrainedModel>(
      std::span<const double>(series.data(), 72),
      std::span<const double>(series.data() + 72, 24), hp, config, kGateSeed);
}

Snapshot fig9_gate(GateCache& cache) {
  Snapshot snap;
  double total = 0.0;
  for (const GateCache::Fit& fit : cache.fits()) {
    snap.set("fig9." + fit.label + ".mape", fit.test_mape, kMapeAbsTol, kMapeRelTol);
    total += fit.test_mape;
  }
  snap.set("fig9.average.mape", total / static_cast<double>(cache.fits().size()),
           kMapeAbsTol, kMapeRelTol);
  return snap;
}

Snapshot table4_gate(GateCache& cache) {
  Snapshot snap;
  for (const GateCache::Fit& fit : cache.fits())
    snap.set_text("table4." + fit.label + ".selected", fit.selected_hp);
  return snap;
}

Snapshot checkpoint_gate(GateCache& cache) {
  Snapshot snap;
  const std::shared_ptr<core::TrainedModel> model = cache.tiny_model();

  std::ostringstream rendered;
  core::save_model(*model, rendered);
  const std::string bytes = rendered.str();
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08" PRIx32, crc32(bytes));
  snap.set_text("checkpoint.crc32", crc_hex);
  snap.set("checkpoint.bytes", static_cast<double>(bytes.size()));
  snap.set("checkpoint.weights", static_cast<double>(model->snapshot().weights.size()));

  // Round-trip identity: load the rendered file and render it again — any
  // byte of drift (precision loss, field reordering) breaks warm restarts'
  // bit-identical-forecast guarantee.
  std::istringstream in(bytes);
  const std::shared_ptr<core::TrainedModel> reloaded = core::load_model(in);
  std::ostringstream again;
  core::save_model(*reloaded, again);
  snap.set("checkpoint.roundtrip_identical", again.str() == bytes ? 1.0 : 0.0);

  // Legacy v1 (no footer) must keep loading.
  const std::size_t nl = bytes.find('\n');
  const std::size_t footer = bytes.rfind("\ncrc32 ");
  std::string v1 = bytes.substr(0, nl);
  v1.resize(v1.rfind(' ') + 1);
  v1 += '1';
  v1 += bytes.substr(nl, footer + 1 - nl);
  bool v1_ok = false;
  try {
    std::istringstream v1_in(v1);
    v1_ok = core::load_model(v1_in) != nullptr;
  } catch (const std::exception&) {
    v1_ok = false;
  }
  snap.set("checkpoint.v1_loads", v1_ok ? 1.0 : 0.0);
  return snap;
}

/// Strip a Prometheus exposition down to its shape: per sample line keep
/// "name{labels}" and drop the value; keep TYPE comments verbatim.
std::string exposition_shape(const std::string& text,
                             const std::vector<std::string>& prefixes) {
  std::istringstream lines(text);
  std::string line, shape;
  const auto matches = [&prefixes](const std::string& name) {
    for (const std::string& p : prefixes)
      if (name.rfind(p, 0) == 0) return true;
    return false;
  };
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      if (matches(rest)) shape += line + '\n';
      continue;
    }
    if (line[0] == '#') continue;
    if (!matches(line)) continue;
    const std::size_t cut = line.rfind(' ');
    shape += (cut == std::string::npos ? line : line.substr(0, cut)) + '\n';
  }
  return shape;
}

Snapshot metrics_gate(GateCache& cache) {
  // A miniature serve session against the tiny model: publish, ingest,
  // predict (single + batch + degraded-free), scrape. Everything the session
  // registers is deterministic, so the shape of the ld_serving_* exposition
  // is a golden artifact even though the values are timing-dependent.
  serving::ServiceConfig config;
  config.background_retrain = false;
  serving::PredictionService service(config);
  service.publish("golden", *cache.tiny_model());
  serving::LineProtocol protocol(service);
  std::ostringstream sink;
  for (const char* line : {
           "INGEST golden 100 104 109 113 110 106 101 99 103 108",
           "OBSERVE golden 111.5",
           "OBSERVE golden nan",  // exercises the rejected-samples series
           "PREDICT golden 4",
           "BATCH 2 golden golden",
           "STATS golden",
           "WORKLOADS",
       })
    protocol.handle(line, sink);

  Snapshot snap;
  snap.set_text("metrics.exposition_shape",
                exposition_shape(obs::MetricsRegistry::global().prometheus_text(),
                                 {"ld_serving_", "ld_rejected_samples",
                                  "ld_degraded_predictions"}));
  return snap;
}

}  // namespace

const std::vector<GateCache::Fit>& GateCache::fits() {
  if (!fits_.empty()) return fits_;
  const std::size_t count = std::size(kGateWorkloads);
  fits_.resize(count);
  // Same fan-out as the fig9 bench: workloads are independent and each
  // derives every seed from kGateSeed, so results are thread-count-invariant.
  ThreadPool::global().parallel_for(0, count, [this](std::size_t i) {
    // Pinned per worker thread (kernel mode is thread-local): the fig9/table4
    // goldens were recorded under the blocked tier, and full BO-driven
    // training amplifies any kernel rounding difference into different
    // selected hyperparameters.
    const tensor::ScopedKernelMode pinned(tensor::KernelMode::kBlocked);
    const GateConfig& gc = kGateWorkloads[i];
    const workloads::Trace trace = workloads::generate(
        gc.kind, gc.interval_minutes, {.days = gc.days, .seed = kGateSeed, .scale = 1.0});
    const workloads::TraceSplit split = workloads::split_trace(trace);
    const std::vector<double> series = split.all();

    const core::LoadDynamics framework(gate_loaddynamics_config(gc.kind));
    const core::FitResult fit = framework.fit(split.train, split.validation);

    const std::vector<double> preds =
        fit.predictor().predict_series(series, split.test_start());
    fits_[i] = {gc.label, metrics::mape(split.test, preds),
                fit.best_record().hyperparameters.to_string()};
  });
  return fits_;
}

std::shared_ptr<core::TrainedModel> GateCache::tiny_model() {
  if (!tiny_model_) tiny_model_ = train_tiny_model();
  return tiny_model_;
}

std::vector<std::string> gate_names() { return {"fig9", "table4", "checkpoint", "metrics"}; }

Snapshot run_gate(const std::string& name, GateCache& cache) {
  if (name == "fig9") return fig9_gate(cache);
  if (name == "table4") return table4_gate(cache);
  if (name == "checkpoint") return checkpoint_gate(cache);
  if (name == "metrics") return metrics_gate(cache);
  throw std::invalid_argument("unknown gate '" + name + "'");
}

}  // namespace ld::verify
