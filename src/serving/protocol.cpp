#include "serving/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <istream>
#include <limits>
#include <ostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/stopwatch.hpp"
#include "fault/injector.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace ld::serving {

namespace {

/// Per-verb span name (a static literal — TraceEvent keeps the pointer) and
/// latency series. Unknown verbs share the "other" series so a misbehaving
/// client cannot inflate label cardinality.
struct CommandInfo {
  const char* span;
  obs::Histogram* latency;
};

const CommandInfo& command_info(const std::string& verb) {
  static const std::map<std::string, CommandInfo> table = [] {
    std::map<std::string, CommandInfo> t;
    const auto add = [&t](const char* verb, const char* cmd, const char* span) {
      t.emplace(verb,
                CommandInfo{span, &obs::MetricsRegistry::global().histogram(
                                      "ld_serving_command_latency_seconds",
                                      {{"command", cmd}}, 1e-7, 1e3)});
    };
    add("LOAD", "load", "serve.cmd.load");
    add("OBSERVE", "observe", "serve.cmd.observe");
    add("INGEST", "ingest", "serve.cmd.ingest");
    add("PREDICT", "predict", "serve.cmd.predict");
    add("BATCH", "batch", "serve.cmd.batch");
    add("RETRAIN", "retrain", "serve.cmd.retrain");
    add("WAIT", "wait", "serve.cmd.wait");
    add("SAVE", "save", "serve.cmd.save");
    add("STATS", "stats", "serve.cmd.stats");
    add("SNAPSHOT", "snapshot", "serve.cmd.snapshot");
    add("WORKLOADS", "workloads", "serve.cmd.workloads");
    add("METRICS", "metrics", "serve.cmd.metrics");
    add("FAULTS", "faults", "serve.cmd.faults");
    add("QUIT", "quit", "serve.cmd.quit");
    add("", "other", "serve.cmd.other");
    return t;
  }();
  const auto it = table.find(verb);
  return it == table.end() ? table.at("") : it->second;
}

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

std::string next_token(std::istringstream& is, const char* what) {
  std::string token;
  if (!(is >> token)) throw std::invalid_argument(std::string("missing ") + what);
  return token;
}

double parse_value(const std::string& token, const char* what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("bad ") + what + " '" + token + "'");
  }
}

std::size_t parse_count(const std::string& token, const char* what) {
  const double v = parse_value(token, what);
  if (v < 0 || v != static_cast<double>(static_cast<std::size_t>(v)))
    throw std::invalid_argument(std::string("bad ") + what + " '" + token + "'");
  return static_cast<std::size_t>(v);
}

void write_forecast(std::ostream& out, const std::string& workload,
                    const std::vector<double>& forecast,
                    fault::DegradationLevel level = fault::DegradationLevel::kLive) {
  // max_digits10 keeps round-trips through the text protocol lossless, so a
  // restarted server is verifiably bit-identical from the client side too.
  const auto precision = out.precision(std::numeric_limits<double>::max_digits10);
  out << "PRED " << workload;
  for (const double v : forecast) out << ' ' << v;
  // A live answer keeps the historical line shape; the suffix only appears
  // when the fallback chain had to step in.
  if (level != fault::DegradationLevel::kLive)
    out << " degraded=" << fault::to_string(level);
  out << '\n';
  out.precision(precision);
}

/// The single-tenant STATS line, sans terminator — shared by the one-workload
/// and fleet forms so their per-workload fields can never drift apart. New
/// fields go at the END of the line: clients (and our own tests) prefix-match
/// it, and the fleet form appends its own shard= suffix after these.
void write_stats_fields(std::ostream& out, const std::string& name,
                        const WorkloadStats& s) {
  out << "STATS " << name << " version=" << s.version << " observed=" << s.observations
      << " predictions=" << s.predictions << " retrains=" << s.retrains
      << " history=" << s.history_size << " baseline_mape=" << s.baseline_mape
      << " retrain_pending=" << (s.retrain_pending ? 1 : 0)
      << " rejected=" << s.rejected << " degraded=" << s.degraded
      << " retrain_failures=" << s.retrain_failures
      << " retrain_retries=" << s.retrain_retries
      << " retrain_timeouts=" << s.retrain_timeouts
      << " degradation=" << fault::to_string(s.last_level);
}

}  // namespace

bool LineProtocol::handle(const std::string& line, std::ostream& out) {
  std::istringstream is(line);
  std::string verb;
  if (!(is >> verb) || verb.front() == '#') return true;
  verb = upper(verb);
  const CommandInfo& cmd = command_info(verb);
  const obs::ScopedSpan span(cmd.span);
  const Stopwatch clock;
  const bool keep_going = dispatch(verb, is, out);
  cmd.latency->observe(clock.seconds());
  return keep_going;
}

bool LineProtocol::dispatch(const std::string& verb, std::istringstream& is,
                            std::ostream& out) {
  try {
    if (verb == "QUIT") {
      out << "OK bye\n";
      return false;
    }
    if (verb == "LOAD") {
      const std::string name = next_token(is, "workload");
      const std::string path = next_token(is, "model path");
      service_.load_workload(name, path);
      out << "OK " << name << " v" << service_.stats(name).version << '\n';
    } else if (verb == "OBSERVE") {
      const std::string name = next_token(is, "workload");
      service_.observe(name, parse_value(next_token(is, "value"), "value"));
      out << "OK\n";
    } else if (verb == "INGEST") {
      const std::string name = next_token(is, "workload");
      std::vector<double> values;
      std::string token;
      while (is >> token) values.push_back(parse_value(token, "value"));
      if (values.empty()) throw std::invalid_argument("missing values");
      service_.observe_many(name, values);
      out << "OK " << values.size() << '\n';
    } else if (verb == "PREDICT") {
      const std::string name = next_token(is, "workload");
      const std::size_t horizon = parse_count(next_token(is, "horizon"), "horizon");
      const PredictResult result = service_.predict_detailed(name, horizon);
      write_forecast(out, name, result.forecast, result.level);
    } else if (verb == "BATCH") {
      const std::size_t horizon = parse_count(next_token(is, "horizon"), "horizon");
      std::vector<PredictRequest> requests;
      std::string name;
      while (is >> name) requests.push_back({name, horizon});
      if (requests.empty()) throw std::invalid_argument("missing workloads");
      const std::vector<PredictResponse> responses = service_.predict_batch(requests);
      for (std::size_t i = 0; i < responses.size(); ++i) {
        if (responses[i].error.empty())
          write_forecast(out, requests[i].workload, responses[i].forecast,
                         responses[i].level);
        else
          out << "ERR " << requests[i].workload << ": " << responses[i].error << '\n';
      }
    } else if (verb == "RETRAIN") {
      const std::string name = next_token(is, "workload");
      out << (service_.request_retrain(name) ? "OK queued\n" : "OK already-pending\n");
    } else if (verb == "WAIT") {
      service_.wait_idle();
      out << "OK idle\n";
    } else if (verb == "SAVE") {
      const std::string name = next_token(is, "workload");
      const std::string path = next_token(is, "path");
      service_.save_workload(name, path);
      out << "OK saved " << path << '\n';
    } else if (verb == "STATS") {
      std::string name;
      if (is >> name) {
        write_stats_fields(out, name, service_.stats(name));
        out << '\n';
      } else {
        // Fleet form: one line per workload, streamed shard-by-shard (each
        // line is written as its shard is visited — no fleet-wide string or
        // name list is ever materialized), terminated by an OK summary.
        std::size_t count = 0;
        for (std::size_t shard = 0; shard < service_.shard_count(); ++shard) {
          for (const std::string& n : service_.shard_workload_names(shard)) {
            write_stats_fields(out, n, service_.stats(n));
            out << " shard=" << shard << '\n';
            ++count;
          }
        }
        // SLO burn rates ride on the summary line (fast/slow window pairs),
        // so a fleet STATS gives the operator budget burn without a scrape.
        const obs::SloTracker::Rates predict_burn =
            obs::slo_tracker("predict_p99").rates();
        const obs::SloTracker::Rates shed_burn = obs::slo_tracker("shed_rate").rates();
        out << "OK stats " << count << " workloads " << service_.shard_count()
            << " shards predict_burn=" << predict_burn.fast << '/' << predict_burn.slow
            << " shed_burn=" << shed_burn.fast << '/' << shed_burn.slow;
        // Durability accounting rides at the END of the summary line (same
        // prefix-match contract as the per-workload fields): the last
        // recover()'s exact replay counts, for the crash-recovery tests.
        if (service_.wal_enabled()) {
          const RecoveryStats r = service_.last_recovery();
          out << " wal_recovered=" << (r.snapshot_loaded ? 1 : 0)
              << " wal_tenants=" << r.tenants << " wal_replayed=" << r.replayed_records
              << " wal_values=" << r.replayed_values
              << " wal_skipped=" << r.skipped_records << " wal_torn=" << r.torn_segments
              << " wal_quarantined=" << r.quarantined_segments;
        }
        out << '\n';
      }
    } else if (verb == "SNAPSHOT") {
      // Operator-triggered compaction: rotate the journals, write the fleet
      // manifest, drop the compacted segments. No-op argumentwise; gated on
      // the durability layer being configured.
      if (!service_.wal_enabled()) throw std::runtime_error("WAL disabled (no --wal-dir)");
      out << "OK snapshot " << service_.write_snapshot() << '\n';
    } else if (verb == "WORKLOADS") {
      out << "WORKLOADS";
      for (const std::string& name : service_.workload_names()) out << ' ' << name;
      out << '\n';
    } else if (verb == "METRICS") {
      service_.refresh_wal_gauges();  // point-in-time gauges, priced per scrape
      std::string mode;
      if (is >> mode && upper(mode) == "JSON") {
        // json() is newline-free by construction, so the response stays one
        // protocol line.
        out << "METRICS " << obs::MetricsRegistry::global().json() << '\n';
      } else {
        out << obs::MetricsRegistry::global().prometheus_text() << "OK metrics\n";
      }
    } else if (verb == "FAULTS") {
      // FAULTS STATUS | FAULTS OFF | FAULTS <spec> [seed] — runtime control
      // of the fault injector (chaos drills against a live server).
      std::string arg;
      if (!(is >> arg)) arg = "STATUS";
      const std::string mode = upper(arg);
      if (mode == "STATUS") {
        out << "FAULTS " << fault::Injector::instance().status() << '\n';
      } else if (mode == "OFF") {
        fault::Injector::instance().reset();
        out << "OK faults off\n";
      } else {
        std::uint64_t seed = 42;
        std::string seed_token;
        if (is >> seed_token)
          seed = static_cast<std::uint64_t>(parse_count(seed_token, "seed"));
        fault::Injector::instance().configure(arg, seed);
        out << "OK " << fault::Injector::instance().status() << '\n';
      }
    } else {
      out << "ERR unknown command '" << verb << "'\n";
    }
  } catch (const std::exception& e) {
    out << "ERR " << e.what() << '\n';
  }
  return true;
}

std::size_t LineProtocol::run(std::istream& in, std::ostream& out) {
  std::size_t commands = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream probe(line);
    std::string verb;
    if (!(probe >> verb) || verb.front() == '#') continue;
    ++commands;
    if (!handle(line, out)) break;
  }
  return commands;
}

}  // namespace ld::serving
