// ld_perfbench: the repository benchmark harness. See perfbench/README.md.
//
//   ld_perfbench --workload fleet_predict|ingest_durable|tune --seed N
//                --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// Prints a human-readable report, then one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// (end-to-end metrics untraced; per-layer metrics traced, plus the traced
// end-to-end figures under "traced_end_to_end" for the overhead report).
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "common/log.hpp"
#include "phases.hpp"
#include "spans.hpp"

namespace {

std::string json_metrics(const std::map<std::string, perfbench::Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : -1.0);
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + value + ",\"unit\":\"" + m.unit +
           "\"}";
    first = false;
  }
  return out + "}";
}

void print_table(const char* title, const std::map<std::string, perfbench::Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics)
    std::printf("  %-32s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string recover_dir, prefix;
  std::size_t tenants = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--recover-child") recover_dir = value;
    else if (key == "--prefix") prefix = value;
    else if (key == "--tenants") tenants = std::stoull(value);
    else if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--work-dir") opt.work_dir = value;
    else if (key == "--trace-out") opt.trace_out = value;
    else {
      std::fprintf(stderr, "ld_perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  // The program's own info logging would interleave with the report.
  ld::log::set_level(ld::log::Level::kWarn);
  if (!recover_dir.empty()) return perfbench::recover_child(recover_dir, prefix, tenants);
  if (opt.workload.empty() || opt.work_dir.empty() || opt.seconds <= 0) {
    std::fprintf(stderr, "usage: ld_perfbench --workload W --seed N --seconds S --trace 0|1 "
                         "--work-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  perfbench::Report report;
  try {
    perfbench::Spans::enable(opt.trace);
    perfbench::run_workload(opt, report);
    perfbench::Spans::enable(false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ld_perfbench: %s\n", e.what());
    return 1;
  }

  if (opt.trace) {
    std::printf("span self time (ms):\n");
    for (const auto& [name, t] : perfbench::Spans::totals())
      std::printf("  %-28s count %9llu  total %12.3f  self %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
    if (!opt.trace_out.empty() && perfbench::Spans::write_chrome_trace(opt.trace_out))
      std::printf("trace written to %s (%zu spans)\n", opt.trace_out.c_str(),
                  perfbench::Spans::count());
    print_table("per-layer metrics:", report.per_layer);
    print_table("end-to-end metrics (traced):", report.end_to_end);
  } else {
    print_table("end-to-end metrics:", report.end_to_end);
  }
  for (const std::string& f : report.failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("attempted %llu, failed %llu\n", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));

  std::string line = std::string("{\"correct\":") + (report.failed == 0 ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(report.attempted) +
                     ",\"failed\":" + std::to_string(report.failed) + ",\"metrics\":" +
                     json_metrics(opt.trace ? report.per_layer : report.end_to_end);
  if (opt.trace) line += ",\"traced_end_to_end\":" + json_metrics(report.end_to_end);
  std::printf("%s}\n", line.c_str());
  return 0;
}
