// The parallel execution layer: ThreadPool semantics (futures, exceptions,
// inline degradation, nesting) and the determinism claims — a batched
// LoadDynamics fit produces a bit-identical model database, and a forest or
// extra-trees fit bit-identical trees, at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/loaddynamics.hpp"
#include "mlmodels/ensembles.hpp"
#include "workloads/generators.hpp"
#include "workloads/trace.hpp"

namespace {

using namespace ld;

TEST(ThreadPool, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.concurrency(), 2u);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroAndOneThreadRunInline) {
  for (const std::size_t n : {0u, 1u}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.size(), 0u) << "size " << n << " must degrade to no workers";
    EXPECT_EQ(pool.concurrency(), 1u);
    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.submit([&] { ran_on = std::this_thread::get_id(); }).get();
    EXPECT_EQ(ran_on, caller) << "no-worker pools must execute on the caller";
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<int> hits(kCount, 0);
  std::vector<std::size_t> squares(kCount, 0);
  pool.parallel_for(0, kCount, [&](std::size_t i) {
    ++hits[i];
    squares[i] = i * i;
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
    ASSERT_EQ(squares[i], i * i);
  }
}

TEST(ThreadPool, ParallelForEmptyAndSingleRange) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstErrorAfterCompleting) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 64;
  std::vector<int> hits(kCount, 0);
  try {
    pool.parallel_for(0, kCount, [&](std::size_t i) {
      ++hits[i];
      if (i == 13) throw std::runtime_error("thirteen");
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thirteen");
  }
  // A throw abandons only the remainder of its own chunk (at most
  // count/chunks - 1 indices); every other chunk completes, and no index
  // ever runs twice.
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_LE(hits[i], 1) << "index " << i;
  EXPECT_EQ(hits[13], 1);
  const int total = std::accumulate(hits.begin(), hits.end(), 0);
  EXPECT_GE(total, static_cast<int>(kCount) - 3);  // 16 chunks of 4 indices
}

TEST(ThreadPool, NestedWorkRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  // The outer chunks run on workers AND the calling thread; in both cases a
  // nested submit/parallel_for must make progress without deadlocking on the
  // occupied pool (workers run it inline; the caller drains it itself).
  pool.parallel_for(0, 8, [&](std::size_t) {
    auto f = pool.submit([&] { return inner_total.fetch_add(1) >= 0; });
    EXPECT_TRUE(f.get());
    pool.parallel_for(0, 4, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 8 * (1 + 4));
}

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

// The ISSUE's headline acceptance test: fit() with batch_size=4 on a 4-thread
// global pool must produce exactly the database (hyperparameters AND MAPEs)
// and predictions of the 1-thread run.
TEST(ParallelDeterminism, BatchedFitMatchesSerialBitForBit) {
  const workloads::Trace trace =
      workloads::generate(workloads::TraceKind::kAzure, 60, {.days = 12.0, .seed = 42});
  const workloads::TraceSplit split = workloads::split_trace(trace);
  const std::vector<double> series = split.all();

  const auto run = [&](std::size_t threads) {
    ThreadPool::set_global_size(threads);
    core::LoadDynamicsConfig cfg;
    cfg.space = core::HyperparameterSpace::reduced();
    cfg.space.history_max = 16;
    cfg.space.cell_max = 8;
    cfg.space.layers_max = 1;
    cfg.max_iterations = 5;
    cfg.initial_random = 3;
    cfg.training.trainer.max_epochs = 8;
    cfg.seed = 42;
    cfg.batch_size = 4;
    const core::LoadDynamics framework(cfg);
    return framework.fit(split.train, split.validation);
  };

  const core::FitResult serial = run(1);
  const core::FitResult parallel = run(4);
  ThreadPool::set_global_size(ThreadPool::default_threads());

  ASSERT_EQ(serial.database.size(), parallel.database.size());
  for (std::size_t i = 0; i < serial.database.size(); ++i) {
    EXPECT_EQ(serial.database[i].hyperparameters, parallel.database[i].hyperparameters)
        << "database row " << i << " explored a different configuration";
    EXPECT_EQ(serial.database[i].validation_mape, parallel.database[i].validation_mape)
        << "database row " << i << " trained to a different MAPE";
  }
  EXPECT_EQ(serial.best_index, parallel.best_index);
  EXPECT_EQ(serial.predictor().predict_series(series, split.test_start()),
            parallel.predictor().predict_series(series, split.test_start()));
}

// Random and grid strategies fan the whole design out; they must also be
// thread-count independent.
TEST(ParallelDeterminism, RandomAndGridSearchesThreadCountIndependent) {
  const workloads::Trace trace =
      workloads::generate(workloads::TraceKind::kLcg, 60, {.days = 10.0, .seed = 7});
  const workloads::TraceSplit split = workloads::split_trace(trace);

  for (const core::SearchStrategy strategy :
       {core::SearchStrategy::kRandom, core::SearchStrategy::kGrid}) {
    const auto run = [&](std::size_t threads) {
      ThreadPool::set_global_size(threads);
      core::LoadDynamicsConfig cfg;
      cfg.space = core::HyperparameterSpace::reduced();
      cfg.space.history_max = 16;
      cfg.space.cell_max = 8;
      cfg.space.layers_max = 1;
      cfg.strategy = strategy;
      cfg.max_iterations = 4;
      cfg.training.trainer.max_epochs = 6;
      cfg.seed = 7;
      const core::LoadDynamics framework(cfg);
      return framework.fit(split.train, split.validation);
    };
    const core::FitResult serial = run(1);
    const core::FitResult parallel = run(3);
    ThreadPool::set_global_size(ThreadPool::default_threads());

    ASSERT_EQ(serial.database.size(), parallel.database.size());
    for (std::size_t i = 0; i < serial.database.size(); ++i) {
      EXPECT_EQ(serial.database[i].hyperparameters, parallel.database[i].hyperparameters);
      EXPECT_EQ(serial.database[i].validation_mape, parallel.database[i].validation_mape);
    }
    EXPECT_EQ(serial.best_index, parallel.best_index);
  }
}

// Forest and extra-trees fits spread their trees over the global pool; each
// tree has its own seeded Rng and its own slot, so the fitted ensemble — and
// therefore every prediction — must not depend on the pool size.
void expect_ensemble_thread_count_independent(ml::EnsembleKind kind) {
  Rng rng(13);
  std::vector<double> series(400);
  series[0] = 100.0;
  for (std::size_t i = 1; i < series.size(); ++i)
    series[i] = 0.9 * series[i - 1] + 10.0 + rng.normal(0.0, 5.0);

  const auto run = [&](std::size_t threads) {
    ThreadPool::set_global_size(threads);
    ml::EnsembleConfig cfg =
        kind == ml::EnsembleKind::kRandomForest ? ml::random_forest_config(6, 24)
                                                : ml::extra_trees_config(6, 24);
    ml::TreeEnsemblePredictor model(cfg);
    model.fit(std::span<const double>(series).subspan(0, 300));
    std::vector<double> preds;
    for (std::size_t t = 100; t < series.size(); ++t)
      preds.push_back(model.predict_next(std::span<const double>(series).subspan(0, t)));
    return std::make_pair(model.tree_count(), preds);
  };

  const auto serial = run(1);
  for (const std::size_t threads : {3u, 4u}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, serial.first) << threads << " workers";
    EXPECT_EQ(parallel.second, serial.second)
        << "predictions differ from the serial fit on " << threads << " workers";
  }
  ThreadPool::set_global_size(ThreadPool::default_threads());
}

TEST(ParallelDeterminism, RandomForestFitThreadCountIndependent) {
  expect_ensemble_thread_count_independent(ml::EnsembleKind::kRandomForest);
}

TEST(ParallelDeterminism, ExtraTreesFitThreadCountIndependent) {
  expect_ensemble_thread_count_independent(ml::EnsembleKind::kExtraTrees);
}

}  // namespace
