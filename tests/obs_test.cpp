// Observability layer: metrics registry (concurrent counters, sharded
// histograms, Prometheus/JSON scrape) and the tracing layer (span nesting,
// ring-buffer drops, zero cost when disabled, Chrome trace-event JSON).
//
// The registry and tracer are process-wide singletons shared by every test
// in this binary, so each test uses its own series names and restores the
// tracer to the stopped state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace {

using ld::obs::MetricsRegistry;
using ld::obs::Tracer;

// --- minimal Chrome-trace parsing -----------------------------------------
// Events carry flat fields plus at most one nested {"args":{...}} object, so
// a brace scanner that ignores one nesting level is enough.

struct ParsedEvent {
  std::string name;
  std::string phase;
  double ts = -1.0;   // microseconds
  double dur = -1.0;  // microseconds ('X' only)
  long tid = -1;
  bool has_args = false;
};

std::string field_str(const std::string& event, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = event.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size();
  return event.substr(start, event.find('"', start) - start);
}

double field_num(const std::string& event, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = event.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(event.c_str() + at + needle.size(), nullptr);
}

std::vector<ParsedEvent> parse_trace(const std::string& json) {
  std::vector<ParsedEvent> events;
  const std::size_t list = json.find("\"traceEvents\":[");
  EXPECT_NE(list, std::string::npos) << "missing traceEvents array";
  if (list == std::string::npos) return events;
  std::size_t pos = list;
  while ((pos = json.find('{', pos + 1)) != std::string::npos) {
    int depth = 1;
    std::size_t end = pos;
    while (depth > 0 && ++end < json.size()) {
      if (json[end] == '{') ++depth;
      if (json[end] == '}') --depth;
    }
    EXPECT_EQ(depth, 0) << "unbalanced braces in trace JSON";
    const std::string body = json.substr(pos, end - pos + 1);
    ParsedEvent e;
    e.name = field_str(body, "name");
    e.phase = field_str(body, "ph");
    e.ts = field_num(body, "ts");
    e.dur = field_num(body, "dur");
    e.tid = static_cast<long>(field_num(body, "tid"));
    e.has_args = body.find("\"args\"") != std::string::npos;
    events.push_back(std::move(e));
    pos = end;
  }
  return events;
}

std::string dump_trace() {
  std::ostringstream out;
  Tracer::instance().write_json(out);
  return out.str();
}

// --- registry --------------------------------------------------------------

TEST(ObsRegistry, CountersSumExactlyAcrossThreads) {
  auto& counter = MetricsRegistry::global().counter("obs_test_concurrent_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsRegistry, GaugeSetAndAdd) {
  auto& gauge = MetricsRegistry::global().gauge("obs_test_gauge");
  gauge.set(3.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.5);
  gauge.add(1.25);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.75);
  gauge.set(-2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.0);
}

TEST(ObsRegistry, HistogramMergesThreadShards) {
  auto& hist =
      MetricsRegistry::global().histogram("obs_test_sharded_seconds", {}, 1e-6, 10.0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 1; i <= kPerThread; ++i)
        hist.observe(1e-4 * (t + 1) * i / kPerThread);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const ld::metrics::LatencyHistogram merged = hist.snapshot();
  EXPECT_EQ(merged.count(), hist.count());
  EXPECT_GT(merged.percentile(50), 0.0);
  EXPECT_LE(merged.percentile(50), merged.percentile(99));
  EXPECT_DOUBLE_EQ(merged.percentile(0), merged.min());
}

TEST(ObsRegistry, SameSeriesSameInstrumentAndKindConflictThrows) {
  auto& a = MetricsRegistry::global().counter("obs_test_identity_total",
                                              {{"workload", "wiki"}, {"stage", "train"}});
  // Label order must not matter: the registry canonicalizes by key.
  auto& b = MetricsRegistry::global().counter("obs_test_identity_total",
                                              {{"stage", "train"}, {"workload", "wiki"}});
  EXPECT_EQ(&a, &b);
  auto& other = MetricsRegistry::global().counter("obs_test_identity_total",
                                                  {{"workload", "google"}});
  EXPECT_NE(&a, &other);
  EXPECT_THROW(MetricsRegistry::global().gauge("obs_test_identity_total",
                                               {{"workload", "wiki"}, {"stage", "train"}}),
               std::invalid_argument);
}

TEST(ObsRegistry, PrometheusTextFormat) {
  auto& reg = MetricsRegistry::global();
  reg.counter("obs_test_scrape_total", {{"workload", "wiki"}}).inc(42);
  reg.gauge("obs_test_scrape_depth").set(7.0);
  auto& hist = reg.histogram("obs_test_scrape_seconds", {}, 1e-6, 10.0);
  for (int i = 1; i <= 100; ++i) hist.observe(0.001 * i);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE obs_test_scrape_total counter"), std::string::npos);
  EXPECT_NE(text.find("obs_test_scrape_total{workload=\"wiki\"} 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_scrape_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("obs_test_scrape_depth 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_scrape_seconds summary"), std::string::npos);
  for (const char* q : {"0.5", "0.9", "0.95", "0.99"})
    EXPECT_NE(text.find("obs_test_scrape_seconds{quantile=\"" + std::string(q) + "\"}"),
              std::string::npos);
  EXPECT_NE(text.find("obs_test_scrape_seconds_count 100"), std::string::npos);
  EXPECT_NE(text.find("obs_test_scrape_seconds_sum "), std::string::npos);
  EXPECT_NE(text.find("obs_test_scrape_seconds_min "), std::string::npos);
  EXPECT_NE(text.find("obs_test_scrape_seconds_max "), std::string::npos);
}

TEST(ObsRegistry, JsonIsSingleLine) {
  MetricsRegistry::global().counter("obs_test_json_total").inc();
  const std::string json = MetricsRegistry::global().json();
  EXPECT_EQ(json.find('\n'), std::string::npos) << "json() must stay protocol-line safe";
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"obs_test_json_total\""), std::string::npos);
}

TEST(ObsRegistry, QuantileLabelMergesIntoSortedPosition) {
  // Histogram labels whose keys sort around "quantile" must produce one
  // canonically key-sorted label set — the extra quantile label is merged in
  // position, not appended — so scrapes are byte-stable regardless of which
  // labels a series happens to carry.
  auto& reg = MetricsRegistry::global();
  auto& hist = reg.histogram("obs_test_merge_seconds",
                             {{"workload", "wiki"}, {"command", "load"}}, 1e-6, 10.0);
  hist.observe(0.5);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(
      text.find("obs_test_merge_seconds{command=\"load\",quantile=\"0.5\",workload=\"wiki\"}"),
      std::string::npos)
      << text;
  EXPECT_EQ(text.find("quantile=\"0.5\",command="), std::string::npos)
      << "quantile must not be appended after keys that sort before it";
  // Two consecutive scrapes with no traffic in between are byte-identical.
  EXPECT_EQ(reg.prometheus_text(), reg.prometheus_text());
}

// --- cardinality governor --------------------------------------------------

/// Governor tests mutate process-global state (the series cap); reset on both
/// sides so neighbouring tests see an ungoverned registry.
struct GovernedRegistry {
  GovernedRegistry(std::size_t cap) {
    MetricsRegistry::global().reset_for_testing();
    MetricsRegistry::global().set_max_series(cap);
  }
  ~GovernedRegistry() { MetricsRegistry::global().reset_for_testing(); }
};

/// Sum of every `name{...}` sample value in a Prometheus exposition.
double sum_series(const std::string& text, const std::string& name) {
  double total = 0.0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + "{", 0) != 0 && line.rfind(name + " ", 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    total += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return total;
}

TEST(ObsGovernor, CapRollsLongTailIntoOther) {
  const GovernedRegistry guard(40);
  auto& reg = MetricsRegistry::global();
  std::uint64_t total = 0;
  for (int w = 0; w < 100; ++w) {
    char name[8];
    std::snprintf(name, sizeof name, "w%02d", w);
    reg.counter("obs_gov_total", {{"workload", name}}).inc(w + 1);
    total += static_cast<std::uint64_t>(w + 1);
  }
  EXPECT_LE(reg.exposed_series_count(), 40u);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("obs_gov_total{workload=\"__other\"}"), std::string::npos);
  // Conservation: rolling up must not lose a single count.
  EXPECT_DOUBLE_EQ(sum_series(text, "obs_gov_total"), static_cast<double>(total));
  // Self-metrics report the pressure.
  EXPECT_GT(reg.counter("ld_metrics_rollup_total").value(), 0u);
  EXPECT_NE(text.find("ld_metrics_series_total"), std::string::npos);
}

TEST(ObsGovernor, PromotionDemotionPreservesMonotonicityAndTotals) {
  const GovernedRegistry guard(20);
  auto& reg = MetricsRegistry::global();
  std::uint64_t total = 0;
  for (int w = 0; w < 20; ++w) {
    char name[8];
    std::snprintf(name, sizeof name, "w%02d", w);
    reg.counter("obs_gov2_total", {{"workload", name}}).inc(w + 1);
    total += static_cast<std::uint64_t>(w + 1);
  }
  // "w19" landed in the rolled-up tail; make it the traffic heavy hitter.
  const std::string first = reg.prometheus_text();
  EXPECT_EQ(first.find("obs_gov2_total{workload=\"w19\"}"), std::string::npos);
  EXPECT_DOUBLE_EQ(sum_series(first, "obs_gov2_total"), static_cast<double>(total));
  for (int i = 0; i < 200; ++i) ld::obs::touch_workload("w19");

  // The next scrape's rebalance promotes w19 (demoting a cold workload); a
  // fresh registration now resolves to a real series, not the __other twin.
  const std::string second = reg.prometheus_text();
  auto& promoted = reg.counter("obs_gov2_total", {{"workload", "w19"}});
  promoted.inc(5);
  total += 5;
  const std::string third = reg.prometheus_text();
  EXPECT_NE(third.find("obs_gov2_total{workload=\"w19\"} 5"), std::string::npos)
      << third;
  // One cold workload (value <= 6) was demoted; its pre-demotion value leaves
  // the sum like a Prometheus counter reset, but nothing else is lost and
  // nothing is ever double-counted. The cap still holds.
  const double after = sum_series(third, "obs_gov2_total");
  EXPECT_LE(after, static_cast<double>(total));
  EXPECT_GE(after, static_cast<double>(total - 6));
  EXPECT_LE(reg.exposed_series_count(), 20u);

  // __other never decreases across the three scrapes (counter monotonicity
  // as a scraper sees it).
  const auto other_value = [](const std::string& text) {
    const std::string needle = "obs_gov2_total{workload=\"__other\"} ";
    const std::size_t at = text.find(needle);
    return at == std::string::npos ? -1.0
                                   : std::strtod(text.c_str() + at + needle.size(), nullptr);
  };
  EXPECT_GE(other_value(second), other_value(first));
  EXPECT_GE(other_value(third), other_value(second));
}

TEST(ObsGovernor, ExpositionStaysParseableAtCap) {
  const GovernedRegistry guard(60);
  auto& reg = MetricsRegistry::global();
  for (int w = 0; w < 300; ++w) {
    const std::string name = "tenant" + std::to_string(w);
    reg.counter("obs_gov3_total", {{"workload", name}}).inc();
    reg.histogram("obs_gov3_seconds", {{"workload", name}}, 1e-6, 10.0).observe(0.01);
    ld::obs::touch_workload(name);
  }
  EXPECT_LE(reg.exposed_series_count(), 60u);
  const std::string text = reg.prometheus_text();
  // Every line is either a comment or "name[{labels}] value" with a finite
  // value — a scraper never sees a torn or unparseable line at the cap.
  std::istringstream lines(text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    ++samples;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* end = nullptr;
    const double value = std::strtod(line.c_str() + space + 1, &end);
    EXPECT_TRUE(std::isfinite(value)) << line;
    EXPECT_EQ(*end, '\0') << line;
    const std::size_t open = line.find('{');
    if (open != std::string::npos)
      EXPECT_LT(line.find('}'), space) << "unclosed label set: " << line;
  }
  // Scrape cost is O(cap): histograms expand to 8 lines each, but the number
  // of emitted series is bounded by the cap, not the 300-tenant fleet.
  EXPECT_LE(samples, 60u * 8u);
}

// --- SLO burn rates --------------------------------------------------------

TEST(ObsSlo, DualWindowBurnRatesAreDeterministic) {
  ld::obs::SloTracker tracker("obs_test_slo_local", {0.01, 60, 3600});
  EXPECT_EQ(tracker.rates_at(5000).fast, 0.0) << "idle tracker burns nothing";

  // 1% breaches against a 1% budget: burn rate exactly 1 in both windows.
  const std::uint64_t now = 10'000;
  for (int i = 0; i < 99; ++i) tracker.record_at(now, false);
  tracker.record_at(now, true);
  EXPECT_NEAR(tracker.rates_at(now).fast, 1.0, 1e-12);
  EXPECT_NEAR(tracker.rates_at(now).slow, 1.0, 1e-12);

  // Past the fast window the spike ages out of it but stays in the slow one.
  EXPECT_EQ(tracker.rates_at(now + 61).fast, 0.0);
  EXPECT_NEAR(tracker.rates_at(now + 61).slow, 1.0, 1e-12);
  EXPECT_EQ(tracker.rates_at(now + 3601).slow, 0.0);

  // An all-breach burst burns at 1/budget.
  for (int i = 0; i < 10; ++i) tracker.record_at(now + 7200, true);
  EXPECT_NEAR(tracker.rates_at(now + 7200).fast, 100.0, 1e-9);
}

TEST(ObsSlo, TrackersPublishGaugesOnScrape) {
  auto& tracker = ld::obs::slo_tracker("obs_test_slo_pub", {0.5, 60, 3600});
  tracker.record(true);
  const std::string text = MetricsRegistry::global().prometheus_text();
  EXPECT_NE(
      text.find("ld_slo_burn_rate{slo=\"obs_test_slo_pub\",window=\"fast\"} 2"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("ld_slo_burn_rate{slo=\"obs_test_slo_pub\",window=\"slow\"}"),
            std::string::npos);
}

// --- tracing ---------------------------------------------------------------

TEST(ObsTrace, SpansRecordNestingAndThreads) {
  Tracer::instance().start();
  {
    LD_TRACE_SPAN("obs_test.outer");
    {
      LD_TRACE_SPAN("obs_test.inner");
      LD_TRACE_COUNTER("obs_test.counter", 3);
    }
    std::thread([] { LD_TRACE_SPAN("obs_test.worker"); }).join();
  }
  Tracer::instance().stop();
  const std::vector<ParsedEvent> events = parse_trace(dump_trace());
  Tracer::instance().clear();

  const ParsedEvent* outer = nullptr;
  const ParsedEvent* inner = nullptr;
  const ParsedEvent* worker = nullptr;
  const ParsedEvent* counter = nullptr;
  for (const ParsedEvent& e : events) {
    if (e.name == "obs_test.outer") outer = &e;
    if (e.name == "obs_test.inner") inner = &e;
    if (e.name == "obs_test.worker") worker = &e;
    if (e.name == "obs_test.counter") counter = &e;
    if (e.phase == "X") {
      EXPECT_GE(e.ts, 0.0) << e.name;
      EXPECT_GE(e.dur, 0.0) << e.name;
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(worker, nullptr);
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(outer->phase, "X");
  EXPECT_EQ(counter->phase, "C");
  EXPECT_TRUE(counter->has_args) << "counter events carry their value in args";
  // Nesting containment: the inner span lies within the outer one.
  EXPECT_GE(inner->ts, outer->ts);
  EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur + 1e-6);
  // The worker span ran on a different thread.
  EXPECT_NE(worker->tid, outer->tid);
  EXPECT_EQ(inner->tid, outer->tid);
}

TEST(ObsTrace, DisabledSpansCostNothing) {
  Tracer::instance().stop();
  Tracer::instance().clear();
  const std::size_t threads_before = Tracer::instance().thread_count();
  std::thread([] {
    for (int i = 0; i < 1000; ++i) {
      LD_TRACE_SPAN("obs_test.disabled");
      LD_TRACE_COUNTER("obs_test.disabled_counter", i);
      LD_TRACE_INSTANT("obs_test.disabled_instant");
    }
  }).join();
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
  EXPECT_EQ(Tracer::instance().thread_count(), threads_before)
      << "disabled spans must not even register a thread buffer";
}

TEST(ObsTrace, DropsWhenFullNeverBlocks) {
  Tracer::instance().set_capacity(8);
  Tracer::instance().start();
  // A fresh thread gets a fresh (capacity-8) buffer; overflow must drop, not
  // block or overwrite.
  std::thread([] {
    for (int i = 0; i < 100; ++i) LD_TRACE_INSTANT("obs_test.flood");
  }).join();
  Tracer::instance().stop();
  EXPECT_GE(Tracer::instance().dropped_count(), 92u);
  const std::string json = dump_trace();
  Tracer::instance().clear();
  Tracer::instance().set_capacity(1 << 18);
  EXPECT_NE(json.find("obs_test.flood"), std::string::npos);
}

TEST(ObsTrace, TraceSessionActivatesFromEnv) {
  const ld::testutil::ScopedTempDir tmp("obs_trace_env");
  const std::string path = tmp.file("obs_test_trace.json");
  ASSERT_EQ(setenv("LD_TRACE", path.c_str(), 1), 0);
  {
    ld::obs::TraceSession session;
    EXPECT_TRUE(session.active());
    EXPECT_EQ(session.path(), path);
    LD_TRACE_SPAN("obs_test.session");
  }
  ASSERT_EQ(unsetenv("LD_TRACE"), 0);
  EXPECT_FALSE(Tracer::enabled()) << "session destruction stops the tracer";

  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "trace file written on session destruction";
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::vector<ParsedEvent> events = parse_trace(buffer.str());
  bool found = false;
  for (const ParsedEvent& e : events) found |= e.name == "obs_test.session";
  EXPECT_TRUE(found);
  Tracer::instance().clear();
}

TEST(ObsTrace, FlowEventsCarryRequestIdAndCategory) {
  Tracer::instance().start();
  Tracer::instance().record_flow("req.frontend", 's', 42, 7.0);
  Tracer::instance().record_flow("req.shard", 't', 42, 3.0);
  Tracer::instance().record_flow("req.done", 'f', 42);
  Tracer::instance().stop();
  const std::string json = dump_trace();
  Tracer::instance().clear();

  for (const char* needle :
       {"\"ph\":\"s\"", "\"ph\":\"t\"", "\"ph\":\"f\"", "\"cat\":\"request\"",
        "\"id\":42,\"args\":{\"value\":"})
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  // The terminating 'f' step binds to the enclosing step ("bp":"e"), which
  // Perfetto needs to draw the arrow to the last event.
  const std::size_t f_at = json.find("\"ph\":\"f\"");
  ASSERT_NE(f_at, std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\"", f_at), std::string::npos);
}

TEST(ObsTrace, DeterministicSamplerPicksEveryNth) {
  Tracer::instance().set_sample_every(4);
  EXPECT_FALSE(Tracer::sampled(4)) << "sampling requires the tracer enabled";
  Tracer::instance().start();
  EXPECT_TRUE(Tracer::sampled(4));
  EXPECT_TRUE(Tracer::sampled(8));
  EXPECT_FALSE(Tracer::sampled(1));
  EXPECT_FALSE(Tracer::sampled(7));
  Tracer::instance().set_sample_every(1);
  EXPECT_TRUE(Tracer::sampled(7)) << "1/1 sampling keeps every request";
  Tracer::instance().set_sample_every(0);  // 0 normalizes to 1
  EXPECT_EQ(Tracer::sample_every(), 1u);
  Tracer::instance().stop();
  Tracer::instance().clear();
}

TEST(ObsTrace, RequestScopeNestsAndIsThreadLocal) {
  using ld::obs::RequestScope;
  EXPECT_EQ(RequestScope::current(), 0u);
  {
    const RequestScope outer(42);
    EXPECT_EQ(RequestScope::current(), 42u);
    {
      const RequestScope inner(7);
      EXPECT_EQ(RequestScope::current(), 7u);
    }
    EXPECT_EQ(RequestScope::current(), 42u) << "scopes restore on unwind";
    std::thread([] {
      EXPECT_EQ(RequestScope::current(), 0u) << "request ids never leak across threads";
    }).join();
  }
  EXPECT_EQ(RequestScope::current(), 0u);
}

}  // namespace
