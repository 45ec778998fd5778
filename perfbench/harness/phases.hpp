// The three benchmark workloads and the phases they are built from.
//
// Every workload runs the same three kinds of phase, at sizes that make one
// of them its subject:
//   serve   - open-loop binary TCP traffic at a nominal rate, then a rate
//             ladder (max_rps_at_slo);
//   recover - a durable service is snapshotted, journaled further, closed and
//             rebuilt by recover() (recover_s);
//   fit     - LoadDynamics::fit, the paper's BO loop (tune_s, mape_pct).
// fleet_predict's subject is serve, ingest_durable's is serve with the WAL
// on followed by recover, tune's is fit. The other phases run at a small
// fixed size so that every workload reports every end-to-end metric; they
// are reference probes and are expected to stay flat under a change that
// targets the subject of another workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  std::string work_dir;   ///< working space inside the checkout (WAL, checkpoints)
  std::string trace_out;  ///< Chrome trace written at the end of a traced run
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  /// Counts one checked operation; records `what` when it failed.
  void check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void count(std::uint64_t attempted, std::uint64_t failed, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

/// Runs `options.workload`; throws std::invalid_argument for an unknown name.
void run_workload(const Options& options, Report& report);

/// The recover phase's child process: rebuilds the service journaled under
/// `dir`, prints the time recover() took ("recover_s <s>") and the next
/// forecast of tenants <prefix>00000.. (one "forecast" line each).
int recover_child(const std::string& dir, const std::string& prefix, std::size_t tenants);

}  // namespace perfbench
