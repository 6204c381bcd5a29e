#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(index),
                   sorted.end());
  return sorted[index];
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kSim: return "sim";
    case Layer::kIngest: return "ingest";
    case Layer::kAdal: return "adal";
    case Layer::kMeta: return "meta";
    case Layer::kFed: return "fed";
    case Layer::kNet: return "net";
    case Layer::kDfs: return "dfs";
    case Layer::kMapreduce: return "mapreduce";
    case Layer::kLocal: return "local";
    case Layer::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------

void SpanRecorder::clear() {
  spans_.clear();
  open_ = -1;
  epoch_ = Clock::now();
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, Layer layer,
                           const char* name) {
  if (!recorder.enabled_) return;
  recorder_ = &recorder;
  index_ = static_cast<std::int32_t>(recorder.spans_.size());
  recorder.spans_.push_back(
      Span{name, layer, recorder.open_, recorder.now_ns(), 0});
  recorder.open_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  Span& span = recorder_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = recorder_->now_ns();
  recorder_->open_ = span.parent;
}

std::array<double, kLayerCount> SpanRecorder::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::array<double, kLayerCount> by_layer{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[static_cast<std::size_t>(spans_[i].layer)] +=
        static_cast<double>(self[i]) * 1e-9;
  }
  return by_layer;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", span.name, layer_name(span.layer),
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                  span.parent);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot snapshot;
  for (const lsdf::obs::InstrumentSnapshot& instrument :
       lsdf::obs::MetricsRegistry::global().snapshot()) {
    if (instrument.kind != lsdf::obs::InstrumentKind::kCounter) continue;
    snapshot.values_[instrument.name][lsdf::obs::format_labels(instrument.labels)] =
        instrument.value;
  }
  return snapshot;
}

CounterSnapshot CounterSnapshot::minus(const CounterSnapshot& before) const {
  CounterSnapshot delta = *this;
  for (auto& [name, by_labels] : delta.values_) {
    const auto earlier = before.values_.find(name);
    if (earlier == before.values_.end()) continue;
    for (auto& [labels, value] : by_labels) {
      const auto it = earlier->second.find(labels);
      if (it != earlier->second.end()) value -= it->second;
    }
  }
  return delta;
}

double CounterSnapshot::total(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return 0.0;
  double sum = 0.0;
  for (const auto& [labels, value] : it->second) sum += value;
  return sum;
}

double CounterSnapshot::labelled(const std::string& name,
                                 const std::string& labels) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return 0.0;
  const auto value = it->second.find(labels);
  return value == it->second.end() ? 0.0 : value->second;
}

double active_flows_now() {
  return lsdf::obs::MetricsRegistry::global().gauge_value("lsdf_net_active_flows");
}

// ---------------------------------------------------------------------------

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::add_quantiles(const std::string& name, const Samples& samples,
                           const std::string& unit) {
  add(name + ".p50", samples.quantile(0.50), unit);
  add(name + ".p99", samples.quantile(0.99), unit);
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

void add_sim_layers(Report& report, std::int64_t events, double sim_seconds) {
  report.add("sim.events", static_cast<double>(events), "count");
  report.add("sim.ns_per_event",
             events > 0 ? sim_seconds * 1e9 / static_cast<double>(events)
                        : 0.0,
             "ns");
}

void add_counter_layers(Report& report, const CounterSnapshot& delta) {
  const auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  report.add("sim.callback_heap",
             delta.total("lsdf_sim_callback_heap_total"), "count");
  report.add("net.transfers", delta.total("lsdf_net_transfers_total"),
             "count");
  report.add("net.bytes", delta.total("lsdf_net_bytes_total"), "bytes");
  report.add("net.cancelled", delta.total("lsdf_net_cancelled_total"),
             "count");
  report.add("hsm.stages", delta.total("lsdf_hsm_stages_total"), "count");
  report.add("hsm.migrations", delta.total("lsdf_hsm_migrations_total"),
             "count");
  report.add("hsm.evictions", delta.total("lsdf_hsm_evictions_total"),
             "count");
  report.add("tape.mounts", delta.total("lsdf_tape_mounts_total"), "count");
  report.add("tape.mount_hits", delta.total("lsdf_tape_mount_hits_total"),
             "count");
  for (const char* cache : {"hsm-read", "dfs-block"}) {
    const std::string labels = std::string("{cache=\"") + cache + "\"}";
    const double hits = delta.labelled("lsdf_cache_hits_total", labels);
    const double misses = delta.labelled("lsdf_cache_misses_total", labels);
    const std::string prefix = std::string("cache.") + cache;
    report.add(prefix + ".hits", hits, "count");
    report.add(prefix + ".misses", misses, "count");
    report.add(prefix + ".hit_ratio", ratio(hits, hits + misses), "ratio");
  }
  report.add("ingest.items",
             delta.labelled("lsdf_ingest_items_total", "{result=\"ok\"}"),
             "count");
  report.add("ingest.bytes", delta.total("lsdf_ingest_bytes_total"), "bytes");
  report.add("meta.lookups", delta.total("lsdf_meta_lookups_total"), "count");
  const double launched =
      delta.total("lsdf_mapreduce_speculative_launched_total");
  report.add("mapreduce.map_tasks",
             delta.total("lsdf_mapreduce_map_tasks_total"), "count");
  report.add("mapreduce.spec_launched", launched, "count");
  report.add("mapreduce.spec_won_ratio",
             ratio(delta.total("lsdf_mapreduce_speculative_won_total"),
                   launched),
             "ratio");
  report.add("mapreduce.shuffle_bytes",
             delta.total("lsdf_mapreduce_shuffle_bytes_total"), "bytes");
  report.add("exec.tasks", delta.total("lsdf_exec_tasks_total"), "count");
  report.add("exec.steals", delta.total("lsdf_exec_steals_total"), "count");
}

// ---------------------------------------------------------------------------

namespace {

// CPU brand string from CPUID, so the record needs no file outside the
// checkout.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

}  // namespace

HostRecord host_record(const std::string& git_sha) {
  HostRecord host;
  host.hardware_threads = std::thread::hardware_concurrency();
  host.cpu_model = cpu_model();
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
  host.optimized = true;
#endif
  host.git_sha = git_sha.empty() ? "unknown" : git_sha;
  return host;
}

std::string to_json(const HostRecord& host) {
  return "{\"hardware_threads\": " + std::to_string(host.hardware_threads) +
         ", \"cpu_model\": \"" + json_escape(host.cpu_model) +
         "\", \"compiler\": \"" + json_escape(host.compiler) +
         "\", \"build_type\": \"" + json_escape(host.build_type) +
         "\", \"optimized\": " + (host.optimized ? "true" : "false") +
         ", \"git_sha\": \"" + json_escape(host.git_sha) + "\"}";
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Digest::add(std::int64_t value) {
  auto bits = static_cast<std::uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    hash_ ^= bits & 0xffU;
    hash_ *= 0x100000001b3ULL;
    bits >>= 8;
  }
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::exponential(double mean) {
  return -mean * std::log1p(-unit());
}

double InputRng::normal(double mean, double stddev, double floor) {
  // Box-Muller; one value per call keeps the stream simple.
  const double u1 = 1.0 - unit();
  const double u2 = unit();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return std::max(floor, mean + stddev * z);
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

}  // namespace perfbench
