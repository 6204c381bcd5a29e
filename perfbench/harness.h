// Measurement harness of the benchmark: host timers and latency samples,
// the in-memory span recorder of traced runs, counter deltas read from
// obs::MetricsRegistry, the host record and the metric report.
//
// The benchmark measures the library from outside only: every host time
// here is taken around a call the benchmark itself makes into a public API.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Host-time samples of one kind of call.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] double sum() const;
  // Nearest-rank quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> values_;
};

// The layers the benchmark attributes host time to. A span is tagged with
// the layer whose public function it wraps; `kBench` is the benchmark's own
// workload and phase spans.
enum class Layer : std::uint8_t {
  kBench,
  kSim,
  kIngest,
  kAdal,
  kMeta,
  kFed,
  kNet,
  kDfs,
  kMapreduce,
  kLocal,
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
[[nodiscard]] const char* layer_name(Layer layer);

// Spans of one traced repetition, kept in memory and written out when the
// run ends. Spans nest on the benchmark's main thread only (LocalRunner
// functors on pool threads are timed by aggregate timers instead), so a
// span's children never overlap each other.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Disabled recorders cost one branch per scope.
  void enable(bool on) { enabled_ = on; }
  void clear();

  class Scope {
   public:
    Scope(SpanRecorder& recorder, Layer layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_ = nullptr;
    std::int32_t index_ = -1;
  };

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  // Self time per layer in seconds: each span's duration minus the part
  // of it its child spans cover.
  [[nodiscard]] std::array<double, kLayerCount> self_seconds() const;
  // Chrome trace_event JSON ("X" events, parent index in args).
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    Layer layer = Layer::kBench;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

// Counter values of the process-global obs::MetricsRegistry. The registry
// is cumulative, so per-phase figures are the difference of two snapshots.
class CounterSnapshot {
 public:
  [[nodiscard]] static CounterSnapshot take();
  // this - before, per label set.
  [[nodiscard]] CounterSnapshot minus(const CounterSnapshot& before) const;
  // Sum over every label set registered under `name`.
  [[nodiscard]] double total(const std::string& name) const;
  // One label set, rendered as obs::format_labels does ({k="v"}).
  [[nodiscard]] double labelled(const std::string& name,
                                const std::string& labels) const;

 private:
  std::map<std::string, std::map<std::string, double>> values_;
};

// Live value of the lsdf_net_active_flows gauge.
[[nodiscard]] double active_flows_now();

// One reported figure.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit);
  // p50 and p99 of `samples` as <name>.p50 / <name>.p99.
  void add_quantiles(const std::string& name, const Samples& samples,
                     const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

// Per-layer figures read from library counters over a timed phase. Every
// workload reports all of them, so a layer it does not load reads 0.
void add_counter_layers(Report& report, const CounterSnapshot& delta);

// sim.events and sim.ns_per_event of a timed phase.
void add_sim_layers(Report& report, std::int64_t events, double sim_seconds);

// The host a result was measured on (ROADMAP aim 1): a change of host must
// read as a host change, not as a regression.
struct HostRecord {
  unsigned hardware_threads = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool optimized = false;
  std::string git_sha;
};
[[nodiscard]] HostRecord host_record(const std::string& git_sha);
[[nodiscard]] std::string to_json(const HostRecord& host);

// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

// FNV-1a over 64-bit fields: the outcome digest of a repetition.
class Digest {
 public:
  void add(std::int64_t value);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// SplitMix64: the benchmark's own input generator, so the inputs depend
// only on the workload seed and this file, never on library code.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  // Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  // Exponential with the given mean.
  double exponential(double mean);
  // Normal(mean, stddev), clamped to at least `floor`.
  double normal(double mean, double stddev, double floor);

 private:
  std::uint64_t state_;
};

[[nodiscard]] std::string json_escape(const std::string& text);
// Shortest round-tripping decimal form of a finite double.
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
