// Serving layer: lock-free registry semantics, service bit-identity with the
// underlying model, concurrent predict/observe/retrain safety (the TSan CI
// job runs this suite), checkpoint restart, and the line protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numbers>
#include <sstream>
#include <thread>
#include <vector>

#include "app/serve_app.hpp"
#include "core/serialization.hpp"
#include "serving/protocol.hpp"
#include "serving/registry.hpp"
#include "serving/service.hpp"
#include "tensor/matrix.hpp"
#include "test_util.hpp"

namespace {

using namespace ld;

std::vector<double> seasonal(std::size_t n, double level = 100.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = level + 0.3 * level *
                         std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 12.0);
  return out;
}

/// Small, fast model — enough to serve from; accuracy is not under test here.
std::shared_ptr<core::TrainedModel> quick_model(std::span<const double> series,
                                                std::uint64_t seed = 7) {
  core::ModelTrainingConfig training;
  training.trainer.max_epochs = 6;
  const core::Hyperparameters hp{.history_length = 12, .cell_size = 8, .num_layers = 1,
                                 .batch_size = 32};
  const std::size_t n_train = series.size() * 3 / 4;
  return std::make_shared<core::TrainedModel>(series.subspan(0, n_train),
                                              series.subspan(n_train), hp, training, seed);
}

/// Service config with cheap warm retrains so background work finishes fast.
serving::ServiceConfig quick_service(bool background_retrain = false) {
  serving::ServiceConfig cfg;
  cfg.background_retrain = background_retrain;
  cfg.adaptive.base.space = core::HyperparameterSpace::reduced();
  cfg.adaptive.base.space.history_max = 16;
  cfg.adaptive.base.space.cell_max = 12;
  cfg.adaptive.base.space.layers_max = 1;
  cfg.adaptive.base.training.trainer.max_epochs = 3;
  cfg.adaptive.refresh_candidates = 1;
  cfg.adaptive.retrain_history_cap = 120;
  cfg.adaptive.drift.monitor_window = 16;
  cfg.adaptive.drift.min_scored = 6;
  cfg.adaptive.drift.cooldown = 8;
  cfg.adaptive.drift.degradation_factor = 1.5;
  cfg.adaptive.drift.absolute_mape_floor = 10.0;
  return cfg;
}

TEST(ServingRegistry, InFlightSnapshotSurvivesPublish) {
  const auto series = seasonal(240);
  const auto model_v1 = quick_model(series);
  const auto model_v2 = quick_model(series, 8);

  serving::PredictionService service(quick_service());
  EXPECT_EQ(service.current_model("web"), nullptr);

  service.publish("web", *model_v1);
  const auto v1 = service.current_model("web");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version(), 1u);
  const double before = v1->predict_next(series);

  service.publish("web", *model_v2);
  const auto v2 = service.current_model("web");
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v2->predict_next(series), model_v2->predict_next(series));

  // RCU semantics: the old version stays fully usable for in-flight readers.
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->predict_next(series), before);

  EXPECT_EQ(service.workload_names(), std::vector<std::string>{"web"});
}

TEST(ServingRegistry, PublishedForecastsBitIdenticalToSourceModel) {
  const auto series = seasonal(240);
  const auto model = quick_model(series);
  serving::PredictionService service(quick_service());
  service.publish("web", *model);
  const auto published = service.current_model("web");
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->validation_mape(), model->validation_mape());
  EXPECT_EQ(published->hyperparameters(), model->hyperparameters());

  for (const std::size_t len : {40u, 100u, 240u}) {
    const std::span<const double> hist(series.data(), len);
    EXPECT_EQ(published->predict_next(hist), model->predict_next(hist));
  }
  const auto direct = model->predict_horizon(series, 5);
  const auto via = published->predict_horizon(series, 5);
  ASSERT_EQ(via.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(via[i], direct[i]);
}

// Const inference: one PublishedModel, and clones of one TrainedModel (which
// share its network), serve any number of threads at once with per-thread
// scratch. Runs under the packed kernel (the fused single-timestep path) and
// under a per-thread kReference guard (the layered path with thread-local
// caches); every result must be bit-equal to a serial run.
TEST(ServingConcurrency, ConstInferenceBitIdenticalToSerialOnEveryPath) {
  const auto series = seasonal(240);
  const std::shared_ptr<const core::TrainedModel> model = quick_model(series);
  const auto published = serving::PublishedModel::make(model, 1);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 6;
  const std::vector<std::size_t> lengths = {13, 40, 100, 240};

  for (const tensor::KernelMode mode :
       {tensor::KernelMode::kPacked, tensor::KernelMode::kReference}) {
    std::vector<std::vector<double>> horizons;
    std::vector<double> next;
    std::vector<double> walk;
    {
      const tensor::ScopedKernelMode guard(mode);
      for (const std::size_t len : lengths) {
        const std::span<const double> hist(series.data(), len);
        horizons.push_back(model->predict_horizon(hist, 6));
        next.push_back(model->predict_next(hist));
      }
      walk = model->predict_series(series, 180);
    }

    std::vector<std::unique_ptr<ts::Predictor>> clones;
    for (std::size_t t = 0; t < kThreads; ++t) clones.push_back(model->clone());
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const tensor::ScopedKernelMode guard(mode);
        for (std::size_t round = 0; round < kRounds; ++round) {
          for (std::size_t k = 0; k < lengths.size(); ++k) {
            const std::span<const double> hist(series.data(), lengths[k]);
            if (published->predict_horizon(hist, 6) != horizons[k]) ++mismatches;
            if (clones[t]->predict_next(hist) != next[k]) ++mismatches;
          }
          if (model->predict_series(series, 180) != walk) ++mismatches;
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0u)
        << (mode == tensor::KernelMode::kPacked ? "packed" : "reference");
  }
}

// Acceptance (a): predictions through the service are bit-identical to
// calling the underlying TrainedModel directly.
TEST(Serving, PredictionsBitIdenticalToDirectModel) {
  const auto series = seasonal(240);
  const auto model = quick_model(series);
  const testutil::ScopedTempDir tmp("serving_direct");
  const auto path = tmp.file("m.ldm");
  core::save_model_file(*model, path);
  const auto direct = core::load_model_file(path);

  serving::PredictionService service(quick_service());
  service.load_workload("web", path);
  service.observe_many("web", series);

  const auto got = service.predict("web", 6);
  const auto want = direct->predict_horizon(series, 6);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "service must add zero numeric drift (step " << i << ")";
  std::filesystem::remove(path);
}

TEST(Serving, ValidatesNamesHorizonsAndMissingModels) {
  serving::PredictionService service(quick_service());
  EXPECT_THROW(service.observe("bad name", 1.0), std::invalid_argument);
  EXPECT_THROW(service.observe(".hidden", 1.0), std::invalid_argument);
  EXPECT_THROW((void)service.predict("nope", 1), std::runtime_error);

  service.observe("web", 42.0);  // registers the workload, no model yet
  EXPECT_THROW((void)service.predict("web", 1), std::runtime_error);
  EXPECT_THROW((void)service.predict("web", 0), std::invalid_argument);
  EXPECT_FALSE(service.request_retrain("web")) << "no model -> nothing to retrain";
  EXPECT_FALSE(service.add_workload("web")) << "no checkpoint dir -> no warm start";

  const auto stats = service.stats("web");
  EXPECT_EQ(stats.version, 0u);
  EXPECT_EQ(stats.observations, 1u);

  serving::ServiceConfig tiny;
  tiny.max_history = 4;
  EXPECT_THROW(serving::PredictionService bad(tiny), std::invalid_argument);
}

TEST(Serving, HistoryCapTrimsButKeepsAbsoluteSteps) {
  auto cfg = quick_service();
  cfg.max_history = 64;
  serving::PredictionService service(cfg);
  const auto series = seasonal(400);
  service.observe_many("web", series);
  const auto stats = service.stats("web");
  EXPECT_EQ(stats.observations, 400u);
  EXPECT_LE(stats.history_size, 64u + 64u / 4u);
  EXPECT_GE(stats.history_size, 64u);
}

// Acceptance (b): a background retrain never blocks or corrupts concurrent
// predictions — exercised with real thread overlap; the TSan CI job runs
// this suite to prove data-race freedom.
TEST(Serving, ConcurrentPredictObserveRetrainIsSafe) {
  const auto series = seasonal(200);
  serving::PredictionService service(quick_service());
  const std::vector<std::string> names{"alpha", "beta"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto model = quick_model(series, 7 + i);
    service.publish(names[i], *model);
    service.observe_many(names[i], series);
  }

  constexpr std::size_t kPredictors = 3;
  constexpr std::size_t kPredictsEach = 30;
  constexpr std::size_t kObserved = 100;
  std::atomic<std::size_t> bad{0};

  std::vector<std::thread> threads;
  for (const std::string& name : names) {
    threads.emplace_back([&, name] {
      const auto tail = seasonal(kObserved, 140.0);
      for (std::size_t t = 0; t < kObserved; ++t) {
        service.observe(name, tail[t]);
        std::this_thread::yield();
      }
    });
  }
  for (std::size_t p = 0; p < kPredictors; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t r = 0; r < kPredictsEach; ++r) {
        const auto forecast = service.predict(names[(p + r) % names.size()], 3);
        if (forecast.size() != 3 || !std::isfinite(forecast[0]))
          bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Force retrains that overlap the predictions above.
  EXPECT_TRUE(service.request_retrain("alpha"));
  (void)service.request_retrain("beta");
  for (auto& t : threads) t.join();
  service.wait_idle();

  EXPECT_EQ(bad.load(), 0u);
  std::size_t predictions = 0;
  for (const std::string& name : names) {
    const auto stats = service.stats(name);
    EXPECT_EQ(stats.observations, series.size() + kObserved);
    EXPECT_FALSE(stats.retrain_pending);
    EXPECT_GE(stats.version, 1u);
    predictions += stats.predictions;
  }
  EXPECT_EQ(predictions, kPredictors * kPredictsEach);
}

TEST(Serving, DriftTriggersBackgroundRetrain) {
  const auto calm = seasonal(240, 100.0);
  serving::PredictionService service(quick_service(/*background_retrain=*/true));
  service.publish("web", *quick_model(calm));
  service.observe_many("web", calm);
  EXPECT_EQ(service.stats("web").retrains, 0u);

  // 3x level jump: the model keeps forecasting ~100 while actuals are ~300,
  // so the drift monitor must queue a retrain once enough forecasts score.
  const auto shifted = seasonal(80, 300.0);
  for (const double actual : shifted) {
    (void)service.predict("web", 1);
    service.observe("web", actual);
  }
  service.wait_idle();
  const auto stats = service.stats("web");
  EXPECT_GE(stats.retrains, 1u) << "3x regime change must trigger a background retrain";
  EXPECT_GE(stats.version, 2u);
  EXPECT_FALSE(stats.retrain_pending);
}

// Acceptance (c): a service restarted from its persisted checkpoints resumes
// with bit-identical forecasts.
TEST(Serving, RestartFromCheckpointResumesIdenticalForecasts) {
  const testutil::ScopedTempDir tmp("serving_restart");
  const std::filesystem::path& dir = tmp.path();
  const auto series = seasonal(240);

  std::vector<double> before;
  {
    auto cfg = quick_service();
    cfg.checkpoint_dir = dir.string();
    serving::PredictionService service(cfg);
    service.publish("web", *quick_model(series));
    service.observe_many("web", series);
    ASSERT_TRUE(service.request_retrain("web"));
    service.wait_idle();
    ASSERT_EQ(service.stats("web").version, 2u) << "manual retrain must publish v2";
    before = service.predict("web", 4);
  }
  ASSERT_TRUE(std::filesystem::exists(dir / "web.ldm"));

  auto cfg = quick_service();
  cfg.checkpoint_dir = dir.string();
  serving::PredictionService restarted(cfg);
  ASSERT_TRUE(restarted.add_workload("web")) << "checkpoint must warm-start the workload";
  restarted.observe_many("web", series);
  const auto after = restarted.predict("web", 4);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_EQ(after[i], before[i]) << "restart must resume the exact forecast (step " << i
                                   << ")";
}

TEST(Serving, RestartAfterTornCheckpointFallsBackToPreviousGood) {
  const testutil::ScopedTempDir tmp("serving_torn_restart");
  const std::filesystem::path& dir = tmp.path();
  const auto series = seasonal(240);

  std::vector<double> before;
  {
    auto cfg = quick_service();
    cfg.checkpoint_dir = dir.string();
    serving::PredictionService service(cfg);
    service.publish("web", *quick_model(series));
    service.observe_many("web", series);
    before = service.predict("web", 4);
    // A second publish displaces the first checkpoint to web.ldm.prev.
    service.publish("web", *quick_model(series, 8));
  }
  ASSERT_TRUE(std::filesystem::exists(dir / "web.ldm.prev"));

  // Simulate a crash mid-save: tear the primary checkpoint in half.
  {
    std::ifstream in(dir / "web.ldm", std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    text.resize(text.size() / 2);
    std::ofstream out(dir / "web.ldm", std::ios::binary | std::ios::trunc);
    out << text;
  }

  auto cfg = quick_service();
  cfg.checkpoint_dir = dir.string();
  serving::PredictionService restarted(cfg);
  ASSERT_TRUE(restarted.add_workload("web"))
      << "torn primary must fall back to the previous-good snapshot";
  EXPECT_TRUE(std::filesystem::exists(dir / "web.ldm.quarantine"))
      << "the torn checkpoint must be quarantined, not silently deleted";
  restarted.observe_many("web", series);
  const auto after = restarted.predict("web", 4);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_EQ(after[i], before[i])
        << "previous-good restart must reproduce v1's exact forecast (step " << i << ")";
}

TEST(Serving, PredictBatchMatchesIndividualAndReportsPerSlotErrors) {
  const auto series = seasonal(240);
  serving::PredictionService service(quick_service());
  service.publish("web", *quick_model(series));
  service.observe_many("web", series);

  const std::vector<serving::PredictRequest> requests{
      {"web", 2}, {"missing", 2}, {"web", 4}};
  const auto responses = service.predict_batch(requests);
  ASSERT_EQ(responses.size(), 3u);

  EXPECT_TRUE(responses[0].error.empty());
  EXPECT_TRUE(responses[2].error.empty());
  const auto direct = service.predict("web", 4);
  ASSERT_EQ(responses[2].forecast.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(responses[2].forecast[i], direct[i]);
  EXPECT_EQ(responses[0].forecast[0], responses[2].forecast[0]);

  EXPECT_TRUE(responses[1].forecast.empty());
  EXPECT_NE(responses[1].error.find("missing"), std::string::npos);
}

TEST(ServingProtocol, ScriptedSessionEndToEnd) {
  const auto series = seasonal(240);
  const testutil::ScopedTempDir tmp("serving_protocol");
  const std::filesystem::path& dir = tmp.path();
  const std::string model_path = (dir / "web.ldm").string();
  const std::string saved_path = (dir / "saved.ldm").string();
  core::save_model_file(*quick_model(series), model_path);

  serving::PredictionService service(quick_service());
  serving::LineProtocol protocol(service);

  std::ostringstream values;
  values.precision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < 40; ++i) values << ' ' << series[i];

  std::istringstream in("# warm start\n"
                        "LOAD web " + model_path + "\n"
                        "INGEST web" + values.str() + "\n"
                        "observe web 123.5\n"
                        "PREDICT web 3\n"
                        "STATS web\n"
                        "WORKLOADS\n"
                        "SAVE web " + saved_path + "\n"
                        "BOGUS\n"
                        "PREDICT nope 2\n"
                        "PREDICT web 2.5\n"
                        "QUIT\n"
                        "PREDICT web 1\n");
  std::ostringstream out;
  EXPECT_EQ(protocol.run(in, out), 11u) << "comments don't count; QUIT ends the session";

  const std::string reply = out.str();
  EXPECT_NE(reply.find("OK web v1\n"), std::string::npos);
  EXPECT_NE(reply.find("OK 40\n"), std::string::npos);
  EXPECT_NE(reply.find("PRED web "), std::string::npos);
  EXPECT_NE(reply.find("STATS web version=1 observed=41 predictions=1"),
            std::string::npos);
  EXPECT_NE(reply.find("WORKLOADS web\n"), std::string::npos);
  EXPECT_NE(reply.find("OK saved " + saved_path), std::string::npos);
  EXPECT_NE(reply.find("ERR unknown command 'BOGUS'\n"), std::string::npos);
  EXPECT_NE(reply.find("ERR serving: no model published for 'nope'\n"), std::string::npos);
  EXPECT_NE(reply.find("ERR bad horizon '2.5'\n"), std::string::npos);
  EXPECT_NE(reply.find("OK bye\n"), std::string::npos);

  // The saved model must round-trip to the exact same forecast.
  const auto saved = core::load_model_file(saved_path);
  const std::span<const double> hist(series.data(), 41);
  std::vector<double> observed(series.begin(), series.begin() + 40);
  observed.push_back(123.5);
  EXPECT_EQ(saved->predict_next(observed), service.predict("web", 1)[0]);
}

TEST(ServingProtocol, LosslessForecastPrecisionOverText) {
  const auto series = seasonal(240);
  serving::PredictionService service(quick_service());
  service.publish("web", *quick_model(series));
  service.observe_many("web", series);

  serving::LineProtocol protocol(service);
  std::ostringstream out;
  EXPECT_TRUE(protocol.handle("PREDICT web 1", out));
  std::istringstream reply(out.str());
  std::string tag, name;
  double value = 0.0;
  ASSERT_TRUE(reply >> tag >> name >> value);
  EXPECT_EQ(tag, "PRED");
  // max_digits10 output must parse back to the identical double.
  EXPECT_EQ(value, service.predict("web", 1)[0]);
}

TEST(ServingProtocol, MetricsCommandEmitsPrometheusText) {
  const auto series = seasonal(240);
  serving::PredictionService service(quick_service());
  service.publish("web", *quick_model(series));
  service.observe_many("web", series);

  serving::LineProtocol protocol(service);
  std::ostringstream warm;
  EXPECT_TRUE(protocol.handle("PREDICT web 1", warm));

  std::ostringstream out;
  EXPECT_TRUE(protocol.handle("METRICS", out));
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE ld_serving_predict_latency_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("ld_serving_predict_latency_seconds"), std::string::npos);
  EXPECT_NE(text.find("workload=\"web\""), std::string::npos);
  EXPECT_NE(text.find("ld_serving_retrains_total"), std::string::npos);
  EXPECT_NE(text.find("ld_serving_command_latency_seconds"), std::string::npos);
  // Multi-line response ends with the protocol terminator line.
  EXPECT_NE(text.find("OK metrics\n"), std::string::npos);

  std::ostringstream json_out;
  EXPECT_TRUE(protocol.handle("METRICS JSON", json_out));
  const std::string json_line = json_out.str();
  EXPECT_EQ(json_line.rfind("METRICS {", 0), 0u) << "single-line JSON reply";
  EXPECT_EQ(std::count(json_line.begin(), json_line.end(), '\n'), 1)
      << "JSON variant stays one protocol line";
}

TEST(ServingApp, ReplayFileServesPredictionsInProcess) {
  const auto series = seasonal(240);
  const testutil::ScopedTempDir tmp("serving_app");
  const std::filesystem::path& dir = tmp.path();
  const std::string model_path = (dir / "web.ldm").string();
  core::save_model_file(*quick_model(series), model_path);

  std::ostringstream script;
  script.precision(std::numeric_limits<double>::max_digits10);
  script << "INGEST web";
  for (std::size_t i = 0; i < 60; ++i) script << ' ' << series[i];
  script << "\nPREDICT web 4\nSTATS web\nQUIT\n";
  const std::string replay_path = (dir / "replay.txt").string();
  std::ofstream(replay_path) << script.str();

  const std::string spec = "web=" + model_path;
  const char* argv[] = {"ld_serve", spec.c_str(), "--replay", replay_path.c_str(),
                        "--no-retrain"};
  std::istringstream in;
  std::ostringstream out, err;
  EXPECT_EQ(app::run_serve(5, argv, in, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("PRED web "), std::string::npos);
  EXPECT_NE(err.str().find("served 4 commands"), std::string::npos);
}

TEST(ServingApp, ResumesWorkloadsFromCheckpointDir) {
  const auto series = seasonal(240);
  const testutil::ScopedTempDir tmp("serving_app_resume");
  const std::filesystem::path& dir = tmp.path();
  const auto ckpt = dir / "ckpt";
  std::filesystem::create_directories(ckpt);
  core::save_model_file(*quick_model(series), (ckpt / "web.ldm").string());

  std::ostringstream script;
  script.precision(std::numeric_limits<double>::max_digits10);
  script << "INGEST web";
  for (std::size_t i = 0; i < 60; ++i) script << ' ' << series[i];
  script << "\nPREDICT web 2\nQUIT\n";
  const std::string replay_path = (dir / "replay.txt").string();
  std::ofstream(replay_path) << script.str();

  // No positional specs: the workload must come back from the checkpoint.
  const std::string ckpt_flag = ckpt.string();
  const char* argv[] = {"ld_serve",  "--checkpoint-dir", ckpt_flag.c_str(),
                        "--replay",  replay_path.c_str(), "--no-retrain"};
  std::istringstream in;
  std::ostringstream out, err;
  EXPECT_EQ(app::run_serve(6, argv, in, out, err), 0) << err.str();
  EXPECT_NE(err.str().find("resumed 'web'"), std::string::npos);
  EXPECT_NE(out.str().find("PRED web "), std::string::npos);
}

TEST(ServingApp, BadWorkloadSpecFailsCleanly) {
  const char* argv[] = {"ld_serve", "no-equals-sign"};
  std::istringstream in;
  std::ostringstream out, err;
  EXPECT_EQ(app::run_serve(2, argv, in, out, err), 2);
  EXPECT_NE(err.str().find("bad workload spec"), std::string::npos);
}

}  // namespace
