// Tests for the verification harness (DESIGN.md §11/§12): the golden-file
// framework, ULP helpers, and the differential kernel suite that enforces
// the documented agreement bounds — reference vs blocked, reference and the
// std::fma chain vs the packed kernel (serial and ThreadPool-parallel), and
// the fused single-timestep inference path (fp64 and int8-quantized).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/loaddynamics.hpp"
#include "core/model.hpp"
#include "nn/network.hpp"
#include "serving/service.hpp"
#include "tensor/matrix.hpp"
#include "test_util.hpp"
#include "verify/golden.hpp"
#include "verify/ulp.hpp"

namespace {

using namespace ld;

// ---------------------------------------------------------------------------
// ULP distance

TEST(Ulp, IdenticalAndAdjacentValues) {
  EXPECT_EQ(verify::ulp_distance(1.5, 1.5), 0u);
  EXPECT_EQ(verify::ulp_distance(0.0, -0.0), 0u);
  const double up = std::nextafter(1.5, 2.0);
  EXPECT_EQ(verify::ulp_distance(1.5, up), 1u);
  EXPECT_EQ(verify::ulp_distance(up, 1.5), 1u);
}

TEST(Ulp, MeasuresThroughZeroAndFlagsNonFinite) {
  const double pos = std::nextafter(0.0, 1.0);
  const double neg = std::nextafter(0.0, -1.0);
  EXPECT_EQ(verify::ulp_distance(pos, neg), 2u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(verify::ulp_distance(nan, 1.0), ~0ULL);
  EXPECT_EQ(verify::ulp_distance(nan, nan), 0u);  // both-NaN counts as agreement
  EXPECT_EQ(verify::ulp_distance(inf, inf), 0u);
  EXPECT_EQ(verify::ulp_distance(inf, -inf), ~0ULL);
  EXPECT_EQ(verify::ulp_distance(inf, 1.0), ~0ULL);
}

TEST(Ulp, MaxOverSpansAndLengthMismatch) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b = a;
  EXPECT_EQ(verify::max_ulp_distance(a, b), 0u);
  b[1] = std::nextafter(b[1], 10.0);
  EXPECT_EQ(verify::max_ulp_distance(a, b), 1u);
  b.push_back(4.0);
  EXPECT_EQ(verify::max_ulp_distance(a, b), ~0ULL);
}

// ---------------------------------------------------------------------------
// Golden snapshot framework

TEST(Golden, ToleranceSemantics) {
  verify::Snapshot golden;
  golden.set("m.abs", 10.0, /*abs_tol=*/0.5);
  golden.set("m.rel", 100.0, /*abs_tol=*/0.0, /*rel_tol=*/0.05);

  verify::Snapshot within;
  within.set("m.abs", 10.4);
  within.set("m.rel", 104.9);
  EXPECT_TRUE(golden.check(within).empty());

  verify::Snapshot outside;
  outside.set("m.abs", 10.6);
  outside.set("m.rel", 106.0);
  const auto diffs = golden.check(outside);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0].key, "m.abs");
  EXPECT_NE(diffs[0].message.find("10.6"), std::string::npos)
      << "diff must show the actual value: " << diffs[0].message;
}

TEST(Golden, StructuralDiffs) {
  verify::Snapshot golden;
  golden.set("kept", 1.0);
  golden.set("missing_in_actual", 2.0);
  golden.set_text("kind", "text_here");

  verify::Snapshot actual;
  actual.set("kept", 1.0);
  actual.set("kind", 3.0);       // kind mismatch: golden has text
  actual.set("new_field", 4.0);  // not in the golden file

  const auto diffs = golden.check(actual);
  ASSERT_EQ(diffs.size(), 3u);  // missing + kind mismatch + new field
  bool saw_missing = false, saw_new = false;
  for (const auto& d : diffs) {
    if (d.key == "missing_in_actual") saw_missing = true;
    if (d.key == "new_field") saw_new = true;
  }
  EXPECT_TRUE(saw_missing);
  EXPECT_TRUE(saw_new);
}

TEST(Golden, JsonRoundTripIsCanonical) {
  verify::Snapshot snap;
  snap.set("pi", 3.141592653589793, 1e-12);
  snap.set("third", 1.0 / 3.0, 0.0, 1e-9);
  snap.set("huge", 1e300);
  snap.set("neg", -0.0);
  snap.set_text("label", "line1\nline2 \"quoted\"");

  const std::string json = snap.to_json();
  const verify::Snapshot reparsed = verify::Snapshot::from_json(json);
  EXPECT_EQ(reparsed.to_json(), json) << "to_json(from_json(x)) must be bit-identical";
  EXPECT_TRUE(snap.check(reparsed).empty());
  EXPECT_TRUE(reparsed.check(snap).empty());
}

TEST(Golden, FormatDoubleRoundTripsExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 1e300, 2.2250738585072014e-308, -1.5,
                         123456789.123456789, 0.0}) {
    const std::string s = verify::format_double(v);
    double back = 0.0;
    ASSERT_EQ(std::sscanf(s.c_str(), "%lf", &back), 1) << s;
    EXPECT_EQ(back, v) << "'" << s << "' must parse back to the exact double";
  }
}

TEST(Golden, SaveLoadAndPerturbationFails) {
  testutil::ScopedTempDir dir("golden_saveload");
  verify::Snapshot snap;
  snap.set("mape", 12.5, 0.0, 0.05);
  snap.set_text("crc", "deadbeef");
  const std::string path = dir.file("gate.json");
  snap.save(path);

  const verify::Snapshot loaded = verify::Snapshot::load(path);
  EXPECT_TRUE(loaded.check(snap).empty());

  verify::Snapshot perturbed;
  perturbed.set("mape", 12.5 * 1.06);  // 6% off against a 5% band
  perturbed.set_text("crc", "deadbeef");
  EXPECT_EQ(loaded.check(perturbed).size(), 1u);
}

TEST(Golden, RejectsMalformedJsonWithPosition) {
  EXPECT_THROW((void)verify::Snapshot::from_json("{\"a\": {\"value\": }}"),
               std::runtime_error);
  EXPECT_THROW((void)verify::Snapshot::from_json("not json"), std::runtime_error);
  EXPECT_THROW((void)verify::Snapshot::from_json(""), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Differential GEMM: reference scalar kernels vs production blocked kernels

// Positive operands on purpose: every dot product is a sum of positive terms,
// so no cancellation and the ULP bound measures real kernel divergence (FMA
// contraction / vectorization). With signed data a near-zero output can sit
// thousands of ULPs from an absolutely-tiny difference (see verify/ulp.hpp).
tensor::Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  tensor::Matrix m(rows, cols);
  for (double& v : m.flat()) v = rng.uniform(0.5, 2.0);
  return m;
}

TEST(DifferentialGemm, BlockedMatchesReferenceWithinBound) {
  Rng rng(42);
  for (const auto [m, k, n] : {std::array<std::size_t, 3>{1, 1, 1},
                               {3, 5, 7},
                               {17, 33, 9},
                               {64, 64, 64},
                               {120, 70, 50}}) {
    const tensor::Matrix a = random_matrix(m, k, rng);
    const tensor::Matrix b = random_matrix(k, n, rng);

    tensor::Matrix blocked;
    {
      tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
      blocked = tensor::matmul(a, b);
    }
    tensor::Matrix reference;
    {
      tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
      reference = tensor::matmul(a, b);
    }
    EXPECT_LE(verify::max_ulp_distance(blocked.flat(), reference.flat()),
              verify::kGemmUlpBound)
        << "matmul " << m << "x" << k << "x" << n;
  }
}

TEST(DifferentialGemm, TransposedVariantsMatchReference) {
  Rng rng(7);
  const std::size_t m = 31, k = 45, n = 23;
  const tensor::Matrix a = random_matrix(k, m, rng);   // used as A^T * B
  const tensor::Matrix b = random_matrix(k, n, rng);
  const tensor::Matrix c = random_matrix(m, k, rng);   // used as C * D^T
  const tensor::Matrix d = random_matrix(n, k, rng);

  tensor::Matrix atb_blocked(m, n), atb_reference(m, n);
  tensor::Matrix abt_blocked(m, n), abt_reference(m, n);
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
    tensor::matmul_at_b_into(a, b, atb_blocked);
    tensor::matmul_a_bt_into(c, d, abt_blocked);
  }
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    tensor::matmul_at_b_into(a, b, atb_reference);
    tensor::matmul_a_bt_into(c, d, abt_reference);
  }
  EXPECT_LE(verify::max_ulp_distance(atb_blocked.flat(), atb_reference.flat()),
            verify::kGemmUlpBound);
  EXPECT_LE(verify::max_ulp_distance(abt_blocked.flat(), abt_reference.flat()),
            verify::kGemmUlpBound);
}

TEST(DifferentialGemm, AccumulateVariantAgrees) {
  Rng rng(11);
  const tensor::Matrix a = random_matrix(19, 27, rng);
  const tensor::Matrix b = random_matrix(27, 13, rng);
  const tensor::Matrix seed = random_matrix(19, 13, rng);

  tensor::Matrix blocked = seed, reference = seed;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
    tensor::matmul_into(a, b, blocked, /*accumulate=*/true);
  }
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    tensor::matmul_into(a, b, reference, /*accumulate=*/true);
  }
  EXPECT_LE(verify::max_ulp_distance(blocked.flat(), reference.flat()),
            verify::kGemmUlpBound);
}

TEST(DifferentialGemm, KernelModeIsThreadLocal) {
  // Selecting the reference kernel on this thread must not leak into other
  // threads: a fresh thread still starts at the packed production kernel.
  // (A ThreadPool::submit would not prove this — it executes inline on the
  // caller when the pool has no workers.)
  Rng rng(3);
  const tensor::Matrix a = random_matrix(40, 40, rng);
  const tensor::Matrix b = random_matrix(40, 40, rng);
  tensor::Matrix packed;
  {
    tensor::ScopedKernelMode pin(tensor::KernelMode::kPacked);
    packed = tensor::matmul(a, b);
  }

  tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
  ASSERT_EQ(tensor::kernel_mode(), tensor::KernelMode::kReference);
  tensor::KernelMode seen = tensor::KernelMode::kReference;
  tensor::Matrix from_thread;
  std::thread worker([&] {
    seen = tensor::kernel_mode();
    from_thread = tensor::matmul(a, b);
  });
  worker.join();
  EXPECT_EQ(seen, tensor::KernelMode::kPacked)
      << "a fresh thread must default to the packed production kernel";
  EXPECT_EQ(verify::max_ulp_distance(from_thread.flat(), packed.flat()), 0u)
      << "cross-thread result must be bit-identical to the packed kernel";
}

// ---------------------------------------------------------------------------
// Packed kernel (DESIGN.md §12): the portable micro-tile over packed panels,
// serial and ThreadPool-parallel, against the scalar reference and against
// the std::fma chain it promises to compute exactly.

TEST(DifferentialGemm, SimdTiersMatchReferenceWithinBound) {
  Rng rng(42);
  // Shapes straddle the micro-tile geometry (4-row panels, 16-wide column
  // panels) and the small-size crossover: remainder rows, tail columns, and
  // one sub-crossover case that must delegate to the reference loop.
  for (const auto [m, k, n] : {std::array<std::size_t, 3>{1, 1, 1},
                               {3, 5, 7},
                               {8, 8, 8},
                               {17, 33, 9},
                               {64, 64, 64},
                               {120, 70, 50},
                               {65, 31, 97}}) {
    const tensor::Matrix a = random_matrix(m, k, rng);
    const tensor::Matrix b = random_matrix(k, n, rng);
    tensor::Matrix reference;
    {
      tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
      reference = tensor::matmul(a, b);
    }
    tensor::ScopedKernelMode mode(tensor::KernelMode::kPacked);
    const tensor::Matrix packed = tensor::matmul(a, b);
    EXPECT_LE(verify::max_ulp_distance(packed.flat(), reference.flat()),
              verify::kSimdGemmUlpBound)
        << "matmul " << m << "x" << k << "x" << n;
  }
}

TEST(DifferentialGemm, SimdTransposedAndAccumulateVariantsMatchReference) {
  Rng rng(7);
  const std::size_t m = 31, k = 45, n = 23;
  const tensor::Matrix a = random_matrix(k, m, rng);  // used as A^T * B
  const tensor::Matrix b = random_matrix(k, n, rng);
  const tensor::Matrix c = random_matrix(m, k, rng);  // used as C * D^T
  const tensor::Matrix d = random_matrix(n, k, rng);
  const tensor::Matrix e = random_matrix(k, n, rng);  // accumulate multiplicand
  const tensor::Matrix seed = random_matrix(m, n, rng);  // accumulate seed

  tensor::Matrix atb_ref(m, n), abt_ref(m, n);
  tensor::Matrix acc_ref = seed;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    tensor::matmul_at_b_into(a, b, atb_ref);
    tensor::matmul_a_bt_into(c, d, abt_ref);
    tensor::matmul_into(c, e, acc_ref, /*accumulate=*/true);
  }
  tensor::Matrix atb(m, n), abt(m, n);
  tensor::Matrix acc = seed;
  tensor::ScopedKernelMode mode(tensor::KernelMode::kPacked);
  tensor::matmul_at_b_into(a, b, atb);
  tensor::matmul_a_bt_into(c, d, abt);
  tensor::matmul_into(c, e, acc, /*accumulate=*/true);
  EXPECT_LE(verify::max_ulp_distance(atb.flat(), atb_ref.flat()), verify::kSimdGemmUlpBound)
      << "matmul_at_b";
  EXPECT_LE(verify::max_ulp_distance(abt.flat(), abt_ref.flat()), verify::kSimdGemmUlpBound)
      << "matmul_a_bt";
  EXPECT_LE(verify::max_ulp_distance(acc.flat(), acc_ref.flat()), verify::kSimdGemmUlpBound)
      << "matmul_into(accumulate)";
}

// The packed kernel's arithmetic contract, written out: for every C element,
// acc = std::fma(a, b, acc) over ascending p from acc = 0, then c += acc.
// `a_at(i, p)` and `b_at(p, j)` read the logical operands from their stores.
template <typename AAt, typename BAt>
tensor::Matrix fma_chain(tensor::Matrix c, std::size_t k, AAt a_at, BAt b_at) {
  for (std::size_t i = 0; i < c.rows(); ++i)
    for (std::size_t j = 0; j < c.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc = std::fma(a_at(i, p), b_at(p, j), acc);
      c(i, j) += acc;
    }
  return c;
}

// Runs all four packed entry points (fresh, accumulate, A^T·B, A·B^T) on one
// m x k x n shape and expects each to be bit-identical to `expected`'s
// counterpart: the std::fma chain at and above the crossover, the reference
// kernel below it (where the packed mode runs the reference loop).
void expect_packed_bit_identical(std::size_t m, std::size_t k, std::size_t n, Rng& rng) {
  const tensor::Matrix a = random_matrix(m, k, rng);
  const tensor::Matrix at = a.transposed();
  const tensor::Matrix b = random_matrix(k, n, rng);
  const tensor::Matrix bt = b.transposed();
  const tensor::Matrix seed = random_matrix(m, n, rng);

  const auto run = [&] {
    std::array<tensor::Matrix, 4> out = {tensor::Matrix(m, n), seed, tensor::Matrix(m, n),
                                         tensor::Matrix(m, n)};
    tensor::matmul_into(a, b, out[0]);
    tensor::matmul_into(a, b, out[1], /*accumulate=*/true);
    tensor::matmul_at_b_into(at, b, out[2]);
    tensor::matmul_a_bt_into(a, bt, out[3]);
    return out;
  };
  std::array<tensor::Matrix, 4> expected;
  if (m * k * n >= 512) {
    const auto a_rows = [&](std::size_t i, std::size_t p) { return a(i, p); };
    const auto b_rows = [&](std::size_t p, std::size_t j) { return b(p, j); };
    expected = {fma_chain(tensor::Matrix(m, n), k, a_rows, b_rows),
                fma_chain(seed, k, a_rows, b_rows),
                fma_chain(tensor::Matrix(m, n), k,
                          [&](std::size_t i, std::size_t p) { return at(p, i); }, b_rows),
                fma_chain(tensor::Matrix(m, n), k, a_rows,
                          [&](std::size_t p, std::size_t j) { return bt(j, p); })};
  } else {
    const tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    expected = run();
  }
  const tensor::ScopedKernelMode mode(tensor::KernelMode::kPacked);
  const std::array<tensor::Matrix, 4> packed = run();
  const char* const forms[] = {"matmul_into", "matmul_into(accumulate)", "matmul_at_b_into",
                               "matmul_a_bt_into"};
  for (std::size_t f = 0; f < packed.size(); ++f)
    EXPECT_EQ(verify::max_ulp_distance(packed[f].flat(), expected[f].flat()), 0u)
        << forms[f] << " " << m << "x" << k << "x" << n << " on "
        << ThreadPool::global().size() << " workers";
}

TEST(DifferentialGemm, PackedIsBitIdenticalToFmaChain) {
  // 0 ULP, not a bound: the micro-tile's std::fma rounds once on every ISA,
  // so its result is fixed by the contract alone. Shapes straddle the 4-row
  // and 16-column tile edges and the 512 multiply-add crossover (504 and
  // 1x1x511 below it; 512, 513 and up at or above).
  Rng rng(23);
  for (const auto [m, k, n] : {std::array<std::size_t, 3>{1, 1, 1},
                               {7, 9, 8},
                               {1, 511, 1},
                               {8, 8, 8},
                               {4, 8, 16},
                               {1, 513, 1},
                               {3, 5, 40},
                               {5, 17, 33},
                               {9, 64, 1},
                               {17, 33, 9},
                               {16, 16, 15},
                               {65, 31, 97},
                               {64, 64, 64}})
    expect_packed_bit_identical(m, k, n, rng);

  // One shape above kParallelMinFlops (2^22): 180*160*170 ≈ 4.9M multiply-
  // adds, so row panels spread over the pool at every size but 1.
  const std::size_t original_size = ThreadPool::global().size();
  for (const std::size_t workers : {1u, 3u, 4u}) {
    ThreadPool::set_global_size(workers);
    Rng big(29);
    expect_packed_bit_identical(180, 160, 170, big);
  }
  ThreadPool::set_global_size(original_size);
}

TEST(ParallelGemm, BitIdenticalAcrossPoolSizes) {
  // The row-panel partitioning gives every C element exactly one owning
  // micro-tile with a single ascending-k accumulation pass, so a parallel
  // GEMM is bit-identical to the serial one — for any pool size. This is the
  // determinism contract DESIGN.md §12 documents; the TSan job runs this
  // same test for data races.
  Rng rng(17);
  // Big enough to clear kParallelMinFlops (2^22): 180*160*170 ≈ 4.9M flops.
  const tensor::Matrix a = random_matrix(180, 160, rng);
  const tensor::Matrix b = random_matrix(160, 170, rng);

  tensor::Matrix reference;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    reference = tensor::matmul(a, b);
  }

  const std::size_t original_size = ThreadPool::global().size();
  tensor::ScopedKernelMode mode(tensor::KernelMode::kPacked);
  ThreadPool::set_global_size(1);
  const tensor::Matrix serial = tensor::matmul(a, b);
  for (const std::size_t workers : {4u, 3u}) {
    ThreadPool::set_global_size(workers);
    const tensor::Matrix parallel = tensor::matmul(a, b);
    EXPECT_EQ(verify::max_ulp_distance(parallel.flat(), serial.flat()), 0u)
        << "packed with " << workers << " workers";
  }
  EXPECT_LE(verify::max_ulp_distance(serial.flat(), reference.flat()),
            verify::kSimdGemmUlpBound);
  ThreadPool::set_global_size(original_size);
}

// ---------------------------------------------------------------------------
// Differential LSTM + serving predict

std::shared_ptr<core::TrainedModel> quick_model(const std::vector<double>& series) {
  core::Hyperparameters hp;
  hp.history_length = 8;
  hp.cell_size = 6;
  hp.num_layers = 2;
  hp.batch_size = 16;
  core::ModelTrainingConfig config;
  config.trainer.max_epochs = 5;
  const std::size_t split = series.size() * 3 / 4;
  return std::make_shared<core::TrainedModel>(
      std::span<const double>(series.data(), split),
      std::span<const double>(series.data() + split, series.size() - split), hp, config,
      99);
}

TEST(DifferentialLstm, ForwardPassWithinBound) {
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  double blocked = 0.0, reference = 0.0;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
    blocked = model->predict_next(series);
  }
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    reference = model->predict_next(series);
  }
  EXPECT_LE(verify::ulp_distance(blocked, reference), verify::kLstmUlpBound);
}

TEST(DifferentialLstm, WalkForwardSeriesWithinBound) {
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  std::vector<double> blocked, reference;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
    blocked = model->predict_series(series, 120);
  }
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    reference = model->predict_series(series, 120);
  }
  EXPECT_LE(verify::max_ulp_distance(blocked, reference), verify::kLstmUlpBound);
}

TEST(DifferentialLstm, RecursiveHorizonWithinPredictBound) {
  // Recursive multi-step feeds rounding differences back into the input, so
  // this path gets the wider serving bound.
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  std::vector<double> blocked, reference;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
    blocked = model->predict_horizon(series, 12);
  }
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    reference = model->predict_horizon(series, 12);
  }
  EXPECT_LE(verify::max_ulp_distance(blocked, reference), verify::kPredictUlpBound);
}

TEST(ServingDiff, LivePredictPassesDifferentialCheck) {
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  serving::ServiceConfig config;
  config.background_retrain = false;
  serving::PredictionService service(config);
  service.publish("diffcheck", *model);
  service.observe_many("diffcheck", series);

  const testutil::CounterDelta mismatches("ld_verify_diff_mismatch_total",
                                          {{"workload", "diffcheck"}});
  serving::set_verify_diff(true);
  const auto result = service.predict_detailed("diffcheck", 6);
  serving::set_verify_diff(false);

  EXPECT_EQ(result.level, fault::DegradationLevel::kLive);
  ASSERT_EQ(result.forecast.size(), 6u);
  EXPECT_EQ(mismatches.delta(), 0u)
      << "blocked and reference kernels diverged beyond kPredictUlpBound";
}

TEST(ServingDiff, FusedLivePredictPassesDifferentialCheck) {
  // Same differential check with the packed kernel live: the service predict
  // takes the fused single-timestep path while the shadow recompute runs the
  // layered reference — so LD_VERIFY_DIFF exercises exactly the fused-vs-
  // layered comparison, against the wider kFusedPredictUlpBound.
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  serving::ServiceConfig config;
  config.background_retrain = false;
  serving::PredictionService service(config);
  service.publish("fuseddiff", *model);
  service.observe_many("fuseddiff", series);

  const tensor::ScopedKernelMode mode(tensor::KernelMode::kPacked);
  const testutil::CounterDelta mismatches("ld_verify_diff_mismatch_total",
                                          {{"workload", "fuseddiff"}});
  serving::set_verify_diff(true);
  const auto result = service.predict_detailed("fuseddiff", 6);
  serving::set_verify_diff(false);

  EXPECT_EQ(result.level, fault::DegradationLevel::kLive);
  ASSERT_EQ(result.forecast.size(), 6u);
  EXPECT_EQ(mismatches.delta(), 0u)
      << "fused predict diverged from the layered reference beyond kFusedPredictUlpBound";
}

// ---------------------------------------------------------------------------
// Fused single-timestep inference (DESIGN.md §12): forward_one vs the
// layered forward, unit-level for both cell types and end-to-end through the
// trained predict path.

TEST(DifferentialFused, ForwardOneMatchesLayeredForwardBothCells) {
  // Unit-level: forward_one is scalar code, so it runs (and must agree)
  // under any kernel mode. Untrained-network outputs can sit near zero where
  // ULP distances blow up, so this test uses a relative tolerance instead
  // (the regrouped accumulation agrees to ~1e-13 relative in practice).
  nn::set_quantized_inference(false);
  for (const nn::CellType cell : {nn::CellType::kLstm, nn::CellType::kGru}) {
    nn::LstmNetworkConfig cfg;
    cfg.hidden_size = 16;
    cfg.num_layers = 2;
    cfg.cell = cell;
    nn::LstmNetwork net(cfg, 7);
    net.pack();
    Rng rng(5);
    std::vector<double> window(24);
    for (double& v : window) v = rng.uniform(0.5, 2.0);
    tensor::Matrix x(1, window.size());
    for (std::size_t t = 0; t < window.size(); ++t) x(0, t) = window[t];

    double layered = 0.0;
    {
      // kReference keeps forward() on the layered path regardless of host.
      const tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
      layered = net.forward(x)[0];
    }
    const double fused = net.forward_one(window);
    EXPECT_NEAR(fused, layered, 1e-9 * std::max(1.0, std::abs(layered)))
        << nn::cell_type_name(cell);
  }
}

TEST(DifferentialFused, TrainedPredictWithinFusedBound) {
  nn::set_quantized_inference(false);
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  double reference = 0.0;
  std::vector<double> horizon_ref;
  {
    const tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    reference = model->predict_next(series);
    horizon_ref = model->predict_horizon(series, 12);
  }
  const tensor::ScopedKernelMode mode(tensor::KernelMode::kPacked);
  const double fused = model->predict_next(series);
  const std::vector<double> horizon = model->predict_horizon(series, 12);
  EXPECT_LE(verify::ulp_distance(fused, reference), verify::kFusedPredictUlpBound)
      << "predict_next";
  EXPECT_LE(verify::max_ulp_distance(horizon, horizon_ref), verify::kFusedPredictUlpBound)
      << "predict_horizon";
}

// ---------------------------------------------------------------------------
// Quantization guardrail (ISSUE satellite): int8 row-quantized inference is
// a deliberate approximation, so it is bounded in model-quality units — the
// fig9-style walk-forward test MAPE may exceed the fp64 MAPE by at most
// verify::kQuantMapeTolerancePp percentage points.

TEST(QuantizedInference, WalkForwardMapeWithinGuardrail) {
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);
  const std::size_t test_start = 120;

  const tensor::ScopedKernelMode mode(tensor::KernelMode::kPacked);  // the fused path
  const auto walk_forward = [&](bool quantized) {
    nn::set_quantized_inference(quantized);
    std::vector<double> preds;
    preds.reserve(series.size() - test_start);
    for (std::size_t i = test_start; i < series.size(); ++i)
      preds.push_back(model->predict_next({series.data(), i}));
    return preds;
  };
  const std::vector<double> fp64_preds = walk_forward(false);
  const std::vector<double> int8_preds = walk_forward(true);
  nn::set_quantized_inference(false);

  const std::span<const double> actual(series.data() + test_start,
                                       series.size() - test_start);
  const double fp64_mape = metrics::mape(actual, fp64_preds);
  const double int8_mape = metrics::mape(actual, int8_preds);
  EXPECT_NE(fp64_preds, int8_preds)
      << "quantized inference produced bit-identical forecasts — the int8 "
         "path did not engage";
  EXPECT_LE(std::abs(int8_mape - fp64_mape), verify::kQuantMapeTolerancePp)
      << "fp64 MAPE " << fp64_mape << "% vs int8 MAPE " << int8_mape << "%";
}

// ---------------------------------------------------------------------------
// BO trajectories: the batched (constant-liar) search must retrace the
// serial search exactly — zero ULP, not merely "close".

TEST(DifferentialBo, BatchedTrajectoryMatchesSerialExactly) {
  const std::vector<double> series = testutil::seasonal_series(220, 100.0, 15.0, 24.0, 9);
  const std::span<const double> train(series.data(), 160);
  const std::span<const double> validation(series.data() + 160, 60);

  core::LoadDynamicsConfig cfg;
  cfg.space = core::HyperparameterSpace::reduced();
  cfg.max_iterations = 4;
  cfg.initial_random = 2;
  cfg.training.trainer.max_epochs = 3;
  cfg.training.max_train_windows = 400;
  cfg.seed = 31;

  cfg.batch_size = 1;
  const core::FitResult serial = core::LoadDynamics(cfg).fit(train, validation);
  cfg.batch_size = 4;
  const core::FitResult batched = core::LoadDynamics(cfg).fit(train, validation);

  EXPECT_EQ(verify::max_ulp_distance(serial.incumbent_trace(), batched.incumbent_trace()),
            0u);
  EXPECT_EQ(serial.best_record().hyperparameters, batched.best_record().hyperparameters);
}

// ---------------------------------------------------------------------------
// Metrics registry isolation (test_util satellite)

TEST(MetricsReset, RetiredCountersStopBeingScrapedButStayValid) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& before = reg.counter("ld_test_reset_total");
  before.inc(5);
  EXPECT_EQ(testutil::counter_value("ld_test_reset_total"), 5u);

  testutil::reset_metrics();
  // A cached reference survives the reset (graveyard semantics)...
  before.inc();  // must not crash
  // ...but the registry starts over: a re-resolve sees a fresh instrument.
  EXPECT_EQ(testutil::counter_value("ld_test_reset_total"), 0u);
  EXPECT_EQ(reg.prometheus_text().find("ld_test_reset_total 6"), std::string::npos);
}

TEST(MetricsReset, CounterDeltaIgnoresPriorState) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("ld_test_delta_total").inc(17);
  const testutil::CounterDelta delta("ld_test_delta_total");
  EXPECT_EQ(delta.delta(), 0u);
  reg.counter("ld_test_delta_total").inc(3);
  EXPECT_EQ(delta.delta(), 3u);
}

}  // namespace
