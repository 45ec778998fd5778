// Performance — inference latency of trained LoadDynamics models.
//
// The paper reports < 4.78 ms per inference on a 16-core Xeon. This bench
// measures predict_next latency for a range of model sizes spanning the
// Table IV selections.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/model.hpp"
#include "tensor/matrix.hpp"
#include "workloads/generators.hpp"
#include "workloads/trace.hpp"

namespace {

using namespace ld;

struct Fixture {
  std::shared_ptr<core::TrainedModel> model;
  std::vector<double> history;
};

Fixture make_fixture(std::size_t hist, std::size_t cell, std::size_t layers) {
  const auto trace = workloads::generate(workloads::TraceKind::kGoogle, 30,
                                         {.days = 6.0, .seed = 99});
  const auto split = workloads::split_trace(trace);
  core::ModelTrainingConfig training;
  training.trainer.max_epochs = 2;  // weights irrelevant for latency
  const core::Hyperparameters hp{.history_length = hist, .cell_size = cell,
                                 .num_layers = layers, .batch_size = 64};
  Fixture f;
  f.model = std::make_shared<core::TrainedModel>(split.train, split.validation, hp, training,
                                                 7);
  f.history = split.all();
  return f;
}

void BM_PredictNext(benchmark::State& state) {
  const auto f = make_fixture(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)),
                              static_cast<std::size_t>(state.range(2)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->predict_next(f.history));
  }
  state.SetLabel("n=" + std::to_string(state.range(0)) +
                 " c=" + std::to_string(state.range(1)) +
                 " L=" + std::to_string(state.range(2)) + " (paper bound: 4.78ms)");
}

// Spans the hyperparameter selections of Table IV. Runs under the default
// dispatched tier: on SIMD hosts a single-window predict takes the fused
// single-timestep path (DESIGN.md §12).
BENCHMARK(BM_PredictNext)
    ->Args({16, 8, 1})
    ->Args({35, 32, 2})
    ->Args({102, 98, 4})
    ->Args({176, 69, 4})
    ->Unit(benchmark::kMillisecond);

void BM_PredictNextUnfused(benchmark::State& state) {
  // Same serving shapes pinned to the reference kernel: the layered per-step
  // GEMM path the fused kernel must beat (and the path LD_VERIFY_DIFF
  // shadows every live predict with).
  const auto f = make_fixture(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)),
                              static_cast<std::size_t>(state.range(2)));
  const tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->predict_next(f.history));
  }
  state.SetLabel("n=" + std::to_string(state.range(0)) +
                 " c=" + std::to_string(state.range(1)) +
                 " L=" + std::to_string(state.range(2)) + " layered/reference");
}

BENCHMARK(BM_PredictNextUnfused)
    ->Args({35, 32, 2})
    ->Args({102, 98, 4})
    ->Unit(benchmark::kMillisecond);

void BM_PredictHorizon(benchmark::State& state) {
  const auto f = make_fixture(32, 32, 2);
  const auto steps = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->predict_horizon(f.history, steps));
  }
}

BENCHMARK(BM_PredictHorizon)->Arg(1)->Arg(6)->Arg(24)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
