#include "obs/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace ld::obs {

namespace {

std::atomic<std::uint64_t> g_next_histogram_id{1};

// Each thread caches histogram-id → shard. Ids are never reused, so a stale
// entry for a destroyed histogram is dead weight, never a dangling access.
thread_local std::unordered_map<std::uint64_t, void*> t_shards;

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

Labels canonicalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// {quantile="0.5",workload="wiki"} — every key in sorted position. `extra`
/// is a pre-rendered pair (e.g. quantile="0.5") merged by its key so the
/// rendered key order is identical whether or not the extra is present;
/// appending it last made /metrics lines order-sensitive and unstable
/// against the canonicalized (key-sorted) user labels.
std::string render_labels(const Labels& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  const std::string extra_key =
      extra.empty() ? std::string() : extra.substr(0, extra.find('='));
  std::string out = "{";
  bool placed = extra.empty();
  const auto append_extra = [&] {
    if (out.size() > 1) out += ',';
    out += extra;
    placed = true;
  };
  for (const auto& [k, v] : labels) {
    if (!placed && extra_key < k) append_extra();
    if (out.size() > 1) out += ',';
    out += k + "=\"" + escape_label(v) + "\"";
  }
  if (!placed) append_extra();
  out += '}';
  return out;
}

constexpr const char* kWorkloadKey = "workload";
/// Admission headroom: a serving workload registers ~10 series, so a new
/// workload is only admitted while at least this many slots remain free.
constexpr std::size_t kAdmitHeadroom = 12;

constexpr double kQuantiles[] = {0.5, 0.9, 0.95, 0.99};

}  // namespace

Histogram::Histogram(double min_value, double max_value)
    : id_(g_next_histogram_id.fetch_add(1, std::memory_order_relaxed)),
      min_value_(min_value),
      max_value_(max_value) {
  // Validate bounds eagerly so a bad registration fails at the call site.
  (void)metrics::LatencyHistogram(min_value_, max_value_);
}

Histogram::Shard& Histogram::local_shard() {
  const auto it = t_shards.find(id_);
  if (it != t_shards.end()) return *static_cast<Shard*>(it->second);
  auto shard = std::make_unique<Shard>(min_value_, max_value_);
  Shard* raw = shard.get();
  {
    const std::scoped_lock lock(shards_mu_);
    shards_.push_back(std::move(shard));
  }
  t_shards.emplace(id_, raw);
  return *raw;
}

void Histogram::observe(double value) {
  Shard& shard = local_shard();
  const std::scoped_lock lock(shard.mu);
  shard.hist.record(value);
}

metrics::LatencyHistogram Histogram::snapshot() const {
  metrics::LatencyHistogram merged(min_value_, max_value_);
  const std::scoped_lock lock(shards_mu_);
  for (const auto& shard : shards_) {
    const std::scoped_lock shard_lock(shard->mu);
    merged.merge(shard->hist);
  }
  return merged;
}

std::uint64_t Histogram::count() const { return snapshot().count(); }

namespace detail {
std::atomic<bool> g_workload_governed{false};
}  // namespace detail

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();  // intentionally leaked
    if (const char* env = std::getenv("LD_METRICS_MAX_SERIES")) {
      char* end = nullptr;
      const unsigned long long cap = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0') r->set_max_series(static_cast<std::size_t>(cap));
    }
    return r;
  }();
  return *registry;
}

MetricsRegistry::Series& MetricsRegistry::find_or_create(const std::string& name,
                                                         const Labels& labels, Kind kind,
                                                         double min_value,
                                                         double max_value) {
  if (name.empty()) throw std::invalid_argument("obs: empty metric name");
  Labels canon = canonicalize(labels);
  const std::scoped_lock lock(mu_);
  Key key{name, render_labels(canon)};
  auto it = series_.find(key);
  if (it == series_.end() && max_series_ > 0 && redirect_locked(canon)) {
    key.second = render_labels(canon);
    it = series_.find(key);
  }
  if (it != series_.end()) {
    if (it->second.kind != kind)
      throw std::invalid_argument("obs: series '" + name + key.second +
                                  "' already registered as a different kind");
    return it->second;
  }
  return create_locked(key, canon, kind, min_value, max_value);
}

MetricsRegistry::Series& MetricsRegistry::create_locked(const Key& key, const Labels& canon,
                                                        Kind kind, double min_value,
                                                        double max_value) {
  Series& s = series_[key];
  s.kind = kind;
  s.labels = canon;
  for (const auto& [k, v] : canon)
    if (k == kWorkloadKey) s.workload = v;
  switch (kind) {
    case Kind::kCounter: s.counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: s.gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      s.histogram = std::make_unique<Histogram>(min_value, max_value);
      break;
  }
  return s;
}

bool MetricsRegistry::redirect_locked(Labels& canon) {
  const auto wit = std::find_if(canon.begin(), canon.end(),
                                [](const auto& kv) { return kv.first == kWorkloadKey; });
  if (wit == canon.end() || wit->second == kOtherWorkload) return false;
  const std::string& w = wit->second;
  const std::size_t exposed = series_.size() - hidden_count_;
  bool roll = false;
  if (rolled_.count(w) != 0) {
    roll = true;
  } else if (tracked_.count(w) != 0) {
    roll = exposed + 1 > max_series_;  // hard cap even for tracked workloads
  } else if (exposed + kAdmitHeadroom <= max_series_) {
    tracked_.insert(w);
  } else {
    rolled_.insert(w);
    roll = true;
  }
  if (roll) {
    wit->second = kOtherWorkload;
    if (rollup_total_ != nullptr) rollup_total_->inc();
  }
  return roll;
}

void MetricsRegistry::set_max_series(std::size_t cap) {
  // Resolve the self-metrics before taking mu_ (counter()/gauge() lock it).
  Counter* rollup = cap > 0 ? &counter("ld_metrics_rollup_total") : nullptr;
  Gauge* series = cap > 0 ? &gauge("ld_metrics_series_total") : nullptr;
  const std::scoped_lock lock(mu_);
  max_series_ = cap;
  if (cap > 0) {
    rollup_total_ = rollup;
    series_total_ = series;
  }
  detail::g_workload_governed.store(cap > 0, std::memory_order_relaxed);
}

std::size_t MetricsRegistry::max_series() const {
  const std::scoped_lock lock(mu_);
  return max_series_;
}

void MetricsRegistry::touch_workload_slow(const std::string& name) {
  const std::scoped_lock lock(sketch_mu_);
  sketch_.offer(name);
}

void MetricsRegistry::add_scrape_hook(std::function<void()> hook) {
  const std::scoped_lock lock(hooks_mu_);
  hooks_.push_back(std::move(hook));
}

void MetricsRegistry::run_scrape_hooks() {
  std::vector<std::function<void()>> hooks;
  {
    const std::scoped_lock lock(hooks_mu_);
    hooks = hooks_;
  }
  for (const auto& hook : hooks) hook();
}

void MetricsRegistry::SpaceSaving::offer(const std::string& name) {
  const auto it = counts.find(name);
  if (it != counts.end()) {
    ++it->second;
    return;
  }
  if (counts.size() < capacity) {
    counts.emplace(name, 1);
    return;
  }
  // Evict an entry holding the minimum count; the newcomer inherits min+1.
  auto victim = counts.end();
  for (auto v = counts.begin(); v != counts.end(); ++v) {
    if (v->second == min_count) {
      victim = v;
      break;
    }
  }
  if (victim == counts.end()) {  // cached minimum went stale — recompute
    victim = counts.begin();
    for (auto v = counts.begin(); v != counts.end(); ++v)
      if (v->second < victim->second) victim = v;
    min_count = victim->second;
  }
  const std::uint64_t inherited = victim->second + 1;
  counts.erase(victim);
  counts.emplace(name, inherited);
}

std::uint64_t MetricsRegistry::SpaceSaving::estimate(const std::string& name) const {
  const auto it = counts.find(name);
  return it != counts.end() ? it->second : 0;
}

void MetricsRegistry::rebalance_locked() {
  if (max_series_ == 0 || rolled_.empty() || tracked_.empty()) return;
  constexpr int kMaxSwapsPerScrape = 4;   // bound churn per scrape
  constexpr std::uint64_t kPromoteMargin = 4;  // ignore sketch noise near zero
  const std::scoped_lock sketch_lock(sketch_mu_);
  for (int swap = 0; swap < kMaxSwapsPerScrape; ++swap) {
    const std::string* hot = nullptr;
    std::uint64_t hot_count = 0;
    // Both candidate sets are unordered; break ties by name so the swap
    // choice is a function of the traffic, not of hash-bucket history.
    for (const auto& [name, count] : sketch_.counts) {
      if (rolled_.count(name) == 0) continue;
      if (hot == nullptr || count > hot_count ||
          (count == hot_count && name < *hot)) {
        hot = &name;
        hot_count = count;
      }
    }
    if (hot == nullptr) return;
    const std::string* cold = nullptr;
    std::uint64_t cold_count = 0;
    for (const auto& name : tracked_) {
      const std::uint64_t c = sketch_.estimate(name);
      if (cold == nullptr || c < cold_count ||
          (c == cold_count && name < *cold)) {
        cold = &name;
        cold_count = c;
      }
    }
    // ×2 hysteresis: a rolled-up workload must carry at least twice the
    // coldest tracked workload's traffic before it displaces it, so a
    // uniform fleet never churns series.
    if (cold == nullptr || hot_count < 2 * cold_count + kPromoteMargin) return;
    const std::string hot_name = *hot;
    const std::string cold_name = *cold;
    demote_locked(cold_name);
    promote_locked(hot_name);
  }
}

void MetricsRegistry::demote_locked(const std::string& workload) {
  tracked_.erase(workload);
  rolled_.insert(workload);
  for (auto& [key, s] : series_) {
    if (s.workload != workload || s.rolled_up) continue;
    s.rolled_up = true;
    ++hidden_count_;
    if (rollup_total_ != nullptr) rollup_total_->inc();
    if (s.kind == Kind::kCounter) {
      s.folded = s.counter->value();
      const Key twin = other_twin_key(key.first, s);
      if (series_.count(twin) == 0) {
        Labels other = s.labels;
        for (auto& kv : other)
          if (kv.first == kWorkloadKey) kv.second = kOtherWorkload;
        create_locked(twin, other, Kind::kCounter, 0, 0);
      }
    }
  }
}

void MetricsRegistry::promote_locked(const std::string& workload) {
  rolled_.erase(workload);
  tracked_.insert(workload);
  for (auto& [key, s] : series_) {
    if (s.workload != workload || !s.rolled_up) continue;
    if (s.kind == Kind::kCounter) {
      // Commit the hidden-period delta into the __other twin before the
      // series reappears, so the twin's displayed value never regresses.
      const auto it = series_.find(other_twin_key(key.first, s));
      if (it != series_.end() && it->second.kind == Kind::kCounter)
        it->second.counter->inc(s.counter->value() - s.folded);
    }
    s.rolled_up = false;
    s.folded = 0;
    --hidden_count_;
  }
}

MetricsRegistry::Key MetricsRegistry::other_twin_key(const std::string& name,
                                                     const Series& s) const {
  Labels other = s.labels;
  for (auto& kv : other)
    if (kv.first == kWorkloadKey) kv.second = kOtherWorkload;
  return Key{name, render_labels(other)};
}

std::unordered_map<const MetricsRegistry::Series*, std::uint64_t>
MetricsRegistry::scrape_extras_locked() {
  std::unordered_map<const Series*, std::uint64_t> extras;
  if (hidden_count_ == 0) return extras;
  for (const auto& [key, s] : series_) {
    if (!s.rolled_up || s.kind != Kind::kCounter) continue;
    const auto it = series_.find(other_twin_key(key.first, s));
    if (it == series_.end() || it->second.kind != Kind::kCounter) continue;
    extras[&it->second] += s.counter->value() - s.folded;
  }
  return extras;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels) {
  return *find_or_create(name, labels, Kind::kCounter, 0, 0).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  return *find_or_create(name, labels, Kind::kGauge, 0, 0).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const Labels& labels,
                                      double min_value, double max_value) {
  return *find_or_create(name, labels, Kind::kHistogram, min_value, max_value).histogram;
}

std::size_t MetricsRegistry::series_count() const {
  const std::scoped_lock lock(mu_);
  return series_.size();
}

std::size_t MetricsRegistry::exposed_series_count() const {
  const std::scoped_lock lock(mu_);
  return series_.size() - hidden_count_;
}

void MetricsRegistry::reset_for_testing() {
  {
    const std::scoped_lock lock(mu_);
    graveyard_.reserve(graveyard_.size() + series_.size());
    for (auto& [key, s] : series_) graveyard_.push_back(std::move(s));
    series_.clear();
    max_series_ = 0;
    hidden_count_ = 0;
    tracked_.clear();
    rolled_.clear();
    rollup_total_ = nullptr;
    series_total_ = nullptr;
    detail::g_workload_governed.store(false, std::memory_order_relaxed);
  }
  const std::scoped_lock sketch_lock(sketch_mu_);
  sketch_.counts.clear();
  sketch_.min_count = 0;
}

std::string MetricsRegistry::prometheus_text() {
  run_scrape_hooks();
  const std::scoped_lock lock(mu_);
  rebalance_locked();
  const auto extras = scrape_extras_locked();
  if (series_total_ != nullptr)
    series_total_->set(static_cast<double>(series_.size() - hidden_count_));
  std::ostringstream out;
  std::string last_name;
  for (const auto& [key, s] : series_) {
    if (s.rolled_up) continue;  // demoted: its delta surfaces in the __other twin
    const std::string& name = key.first;
    if (name != last_name) {  // series_ is name-sorted, so one TYPE line per name
      const char* type = s.kind == Kind::kCounter  ? "counter"
                         : s.kind == Kind::kGauge ? "gauge"
                                                  : "summary";
      out << "# TYPE " << name << ' ' << type << '\n';
      last_name = name;
    }
    const std::string labels = render_labels(s.labels);
    switch (s.kind) {
      case Kind::kCounter: {
        std::uint64_t v = s.counter->value();
        if (const auto e = extras.find(&s); e != extras.end()) v += e->second;
        out << name << labels << ' ' << v << '\n';
        break;
      }
      case Kind::kGauge:
        out << name << labels << ' ' << fmt_double(s.gauge->value()) << '\n';
        break;
      case Kind::kHistogram: {
        const metrics::LatencyHistogram h = s.histogram->snapshot();
        for (const double q : kQuantiles) {
          const std::string ql = "quantile=\"" + fmt_double(q) + "\"";
          out << name << render_labels(s.labels, ql) << ' '
              << fmt_double(h.percentile(100.0 * q)) << '\n';
        }
        out << name << "_sum" << labels << ' ' << fmt_double(h.total()) << '\n';
        out << name << "_count" << labels << ' ' << h.count() << '\n';
        out << name << "_min" << labels << ' ' << fmt_double(h.min()) << '\n';
        out << name << "_max" << labels << ' ' << fmt_double(h.max()) << '\n';
        break;
      }
    }
  }
  return out.str();
}

std::string MetricsRegistry::json() {
  run_scrape_hooks();
  const std::scoped_lock lock(mu_);
  rebalance_locked();
  const auto extras = scrape_extras_locked();
  if (series_total_ != nullptr)
    series_total_->set(static_cast<double>(series_.size() - hidden_count_));
  std::ostringstream out;
  out << "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, s] : series_) {
    if (s.rolled_up) continue;
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << key.first << "\",\"labels\":{";
    for (std::size_t i = 0; i < s.labels.size(); ++i) {
      if (i > 0) out << ',';
      out << '"' << s.labels[i].first << "\":\"" << escape_label(s.labels[i].second)
          << '"';
    }
    out << "},";
    switch (s.kind) {
      case Kind::kCounter: {
        std::uint64_t v = s.counter->value();
        if (const auto e = extras.find(&s); e != extras.end()) v += e->second;
        out << "\"type\":\"counter\",\"value\":" << v;
        break;
      }
      case Kind::kGauge:
        out << "\"type\":\"gauge\",\"value\":" << fmt_double(s.gauge->value());
        break;
      case Kind::kHistogram: {
        const metrics::LatencyHistogram h = s.histogram->snapshot();
        out << "\"type\":\"histogram\",\"count\":" << h.count()
            << ",\"sum\":" << fmt_double(h.total()) << ",\"min\":" << fmt_double(h.min())
            << ",\"max\":" << fmt_double(h.max()) << ",\"mean\":" << fmt_double(h.mean());
        for (const double q : kQuantiles)
          out << ",\"p" << fmt_double(100.0 * q)
              << "\":" << fmt_double(h.percentile(100.0 * q));
        break;
      }
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace ld::obs
