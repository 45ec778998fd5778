// The Bayesian optimization loop (steps 1-3 of Fig. 6, generalized):
// random initial designs, then GP fit -> acquisition maximization ->
// evaluate, for a fixed iteration budget. Also provides random and grid
// search strategies for the paper's Section III-A comparison ablation.
//
// Batched mode (OptimizerConfig::batch_size > 1): each round proposes q
// candidates with the constant-liar q-EI heuristic — after each EI argmax the
// candidate is appended to the GP's observations with the incumbent best
// value as a stand-in ("lie"), so the next argmax is pushed elsewhere — and
// the q objective evaluations run concurrently on the shared ThreadPool.
// Proposals always happen serially on the calling thread, so the optimizer's
// RNG stream (and therefore the candidate sequence) is independent of the
// pool size; only evaluation is parallel. With an IndexedObjective whose
// randomness is derived from the evaluation index, results are bit-identical
// for any thread count.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "bayesopt/gaussian_process.hpp"
#include "bayesopt/search_space.hpp"
#include "common/rng.hpp"

namespace ld::bayesopt {

/// Objective: receives actual (denormalized) parameter values, returns the
/// value to MINIMIZE (LoadDynamics uses cross-validation MAPE). Evaluated
/// serially — it may capture mutable state freely.
using Objective = std::function<double(const std::vector<double>&)>;

/// Indexed objective for batched/parallel evaluation: `index` is the global
/// 0-based evaluation number, assigned in proposal order and stable under
/// any completion order. Implementations MUST be thread-safe and should
/// derive any randomness (e.g. a training seed) from `index` alone so the
/// search is deterministic regardless of the thread count.
using IndexedObjective = std::function<double(const std::vector<double>&, std::size_t)>;

struct Observation {
  std::vector<double> unit;    ///< point in the unit cube (canonicalized)
  std::vector<double> values;  ///< actual parameter values
  double objective = 0.0;
};

struct OptimizerConfig {
  std::size_t max_iterations = 100;   ///< total evaluations (paper: maxIters = 100)
  std::size_t initial_random = 5;     ///< random designs before the GP kicks in
  std::size_t acquisition_samples = 2048;  ///< candidate points per EI maximization
  double xi = 0.01;                   ///< EI exploration parameter
  /// Proposals (and, for IndexedObjective, evaluations) per BO round.
  /// 1 reproduces the paper's strictly sequential loop.
  std::size_t batch_size = 1;
  GpConfig gp{};
};

struct OptimizationResult {
  std::vector<Observation> history;  ///< every evaluated configuration, in order
  std::size_t best_index = 0;

  [[nodiscard]] const Observation& best() const { return history.at(best_index); }
  /// Running minimum after each evaluation (for convergence plots).
  [[nodiscard]] std::vector<double> incumbent_trace() const;
};

class BayesianOptimizer {
 public:
  BayesianOptimizer(SearchSpace space, OptimizerConfig config, std::uint64_t seed);

  /// Run the full loop against `objective`. Non-finite objective values are
  /// clamped to a large penalty so one diverged training run cannot poison
  /// the GP. Evaluations stay on the calling thread even in batched mode.
  [[nodiscard]] OptimizationResult optimize(const Objective& objective);

  /// Batched/parallel variant: evaluations within a round run concurrently
  /// on ThreadPool::global(). See the IndexedObjective contract above.
  [[nodiscard]] OptimizationResult optimize(const IndexedObjective& objective);

 private:
  [[nodiscard]] OptimizationResult run(const IndexedObjective& objective, bool parallel);
  [[nodiscard]] std::vector<double> propose_next(const std::vector<Observation>& history);
  /// Constant-liar q-EI: up to `count` distinct candidates for one round.
  [[nodiscard]] std::vector<std::vector<double>> propose_batch(
      const std::vector<Observation>& history, std::size_t count);

  SearchSpace space_;
  OptimizerConfig config_;
  Rng rng_;
};

/// Pure random search over the same space/budget (ablation baseline).
[[nodiscard]] OptimizationResult random_search(const SearchSpace& space,
                                               const Objective& objective,
                                               std::size_t max_iterations, std::uint64_t seed);

/// Parallel random search: the design is drawn up front from `seed` (the
/// same stream as the serial variant) and evaluated on the pool.
[[nodiscard]] OptimizationResult random_search(const SearchSpace& space,
                                               const IndexedObjective& objective,
                                               std::size_t max_iterations, std::uint64_t seed);

/// Grid search: an evenly spaced lattice with ~max_iterations points
/// (ablation baseline; the lattice is truncated to the budget).
[[nodiscard]] OptimizationResult grid_search(const SearchSpace& space,
                                             const Objective& objective,
                                             std::size_t max_iterations);

/// Parallel grid search over the same lattice.
[[nodiscard]] OptimizationResult grid_search(const SearchSpace& space,
                                             const IndexedObjective& objective,
                                             std::size_t max_iterations);

}  // namespace ld::bayesopt
