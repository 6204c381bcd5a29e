// Shared helpers for the experiment harnesses: table printing and
// paper-vs-measured reporting. Each bench binary reproduces one figure or
// claim from the paper (see DESIGN.md §3) and prints the same rows/series
// the paper reports, plus an explicit comparison line.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace lsdf::bench {

inline void headline(const std::string& experiment,
                     const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

inline void section(const std::string& title) {
  std::printf("\n-- %s --\n", title.c_str());
}

// printf-style row.
inline void row(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

// The per-experiment verdict recorded in EXPERIMENTS.md.
inline void compare(const std::string& metric, double paper,
                    double measured, const std::string& unit) {
  const double ratio = paper != 0.0 ? measured / paper : 0.0;
  std::printf("[paper-vs-measured] %-34s paper=%-10.4g measured=%-10.4g %s"
              "  (x%.2f)\n",
              metric.c_str(), paper, measured, unit.c_str(), ratio);
}

// --- Command-line flags ------------------------------------------------------
//
// Each bench lists the flags it understands. An unknown flag, or a value
// flag with its value missing, prints usage to stderr and exits 2: a typo
// must not turn into a default run that writes nothing.

struct FlagSpec {
  const char* name;
  bool takes_value = false;
};

// The observability flags obs_init() reads, plus a bench's own `extra`.
inline std::vector<FlagSpec> obs_flags(std::vector<FlagSpec> extra = {}) {
  for (const char* name : {"--trace", "--metrics", "--metrics-csv",
                           "--flight"}) {
    extra.push_back({name, true});
  }
  return extra;
}

class Flags {
 public:
  Flags(int argc, char** argv, std::vector<FlagSpec> known)
      : program_(argv[0]), known_(std::move(known)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") usage_exit("", 0);
      const auto spec =
          std::find_if(known_.begin(), known_.end(),
                       [&arg](const FlagSpec& f) { return arg == f.name; });
      if (spec == known_.end()) {
        reject("unknown flag " + arg);
      }
      if (!spec->takes_value) {
        values_.emplace_back(arg, "");
        continue;
      }
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        reject(arg + " needs a value");
      }
      values_.emplace_back(arg, argv[++i]);
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return std::any_of(values_.begin(), values_.end(),
                       [&name](const auto& v) { return v.first == name; });
  }
  // The last value given for `name`; empty when the flag is absent.
  [[nodiscard]] std::string value(const std::string& name) const {
    std::string found;
    for (const auto& [flag, value] : values_) {
      if (flag == name) found = value;
    }
    return found;
  }

  // Prints `error` and usage to stderr and exits 2: for a flag value the
  // bench cannot use.
  [[noreturn]] void reject(const std::string& error) const {
    usage_exit(error, 2);
  }

 private:
  [[noreturn]] void usage_exit(const std::string& error, int code) const {
    std::FILE* out = code == 0 ? stdout : stderr;
    if (!error.empty()) {
      std::fprintf(out, "%s: %s\n", program_.c_str(), error.c_str());
    }
    std::fprintf(out, "usage: %s", program_.c_str());
    for (const FlagSpec& flag : known_) {
      std::fprintf(out, " [%s%s]", flag.name,
                   flag.takes_value ? " <value>" : "");
    }
    std::fprintf(out, "\n");
    std::exit(code);
  }

  std::string program_;
  std::vector<FlagSpec> known_;
  std::vector<std::pair<std::string, std::string>> values_;
};

// --- Run reports (--json <path>) ---------------------------------------------
//
// bench_perf and E12 take `--json <path>` and then write one whole file for
// the run: a `host` object saying where the numbers were measured, then the
// run's sections, each a flat object of numeric metrics:
//   { "host": { "hw_threads": 8, "compiler": "gcc 13.2.0", "ndebug": 1 },
//     "perf_dispatch": { "events": 8000000, ... }, ... }
// Without the flag nothing is written: a bench run leaves the checkout as
// it found it. A requested report that cannot be written makes write()
// return false, and the bench exits non-zero.

using Metrics = std::vector<std::pair<std::string, double>>;

class JsonReport {
 public:
  explicit JsonReport(const Flags& flags) : path_(flags.value("--json")) {}

  void add(std::string name, Metrics metrics) {
    sections_.emplace_back(std::move(name), std::move(metrics));
  }

  // Writes the file; a no-op without --json. False if the write failed.
  [[nodiscard]] bool write() const {
    if (path_.empty()) return true;
#if defined(__clang__)
    const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char* compiler = "gcc " __VERSION__;
#else
    const char* compiler = "unknown";
#endif
#ifdef NDEBUG
    const int ndebug = 1;
#else
    const int ndebug = 0;
#endif
    std::string text = "{\n  \"host\": {\n    \"hw_threads\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\n    \"compiler\": " + quoted(compiler) +
                       ",\n    \"ndebug\": " + std::to_string(ndebug) +
                       "\n  }";
    for (const auto& [name, metrics] : sections_) {
      text += ",\n  " + quoted(name) + ": {";
      const char* separator = "\n    ";
      for (const auto& [key, value] : metrics) {
        char rendered[64];
        std::snprintf(rendered, sizeof rendered, "%.10g", value);
        text += separator + quoted(key) + ": " + rendered;
        separator = ",\n    ";
      }
      text += "\n  }";
    }
    text += "\n}\n";
    const Status written = write_file_atomic(path_, text);
    if (written.is_ok()) {
      row("report: wrote %zu section(s) to %s", sections_.size(),
          path_.c_str());
    } else {
      row("report: FAILED to write %s: %s", path_.c_str(),
          written.message().c_str());
    }
    return written.is_ok();
  }

 private:
  static std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

  std::string path_;
  std::vector<std::pair<std::string, Metrics>> sections_;
};

// --- Observability hooks (lsdf::obs) -----------------------------------------
//
// A bench whose flags include obs_flags() accepts:
//   --trace <file.json>    span timeline (Chrome trace_event; open in
//                          chrome://tracing or https://ui.perfetto.dev)
//   --metrics <file>       final metrics registry, Prometheus text format
//   --metrics-csv <file>   same, as name,labels,field,value CSV
//   --flight <dir>         flight-recorder postmortems and final timeline
//                          (an existing directory; otherwise usage, exit 2)
// Call obs_init(flags) at the top of main and obs_dump(options) at the
// bottom; obs_dump() returns false if a requested file could not be
// written, and the bench then exits non-zero. The tracer stays fully
// disabled unless --trace is given.

struct ObsOptions {
  std::string trace_path;
  std::string metrics_path;
  std::string metrics_csv_path;
  std::string flight_dir;
  [[nodiscard]] bool tracing() const { return !trace_path.empty(); }
  [[nodiscard]] bool flight() const { return !flight_dir.empty(); }
};

inline ObsOptions obs_init(const Flags& flags) {
  ObsOptions options;
  options.trace_path = flags.value("--trace");
  options.metrics_path = flags.value("--metrics");
  options.metrics_csv_path = flags.value("--metrics-csv");
  options.flight_dir = flags.value("--flight");
  if (options.flight() && !std::filesystem::is_directory(options.flight_dir)) {
    flags.reject("--flight directory " + options.flight_dir +
                 " does not exist");
  }
  if (options.tracing()) obs::Tracer::global().enable(true);
  if (options.flight()) {
    // Postmortems (contract failures, injected faults) land in the given
    // directory; a final timeline is dumped there on obs_dump().
    obs::FlightRecorder::global().set_postmortem_dir(options.flight_dir);
    obs::FlightRecorder::global().enable(true);
  }
  return options;
}

// Scoped sim-clock binding for the tracer: spans emitted while the guard
// lives carry this simulator's virtual time. The destructor drops the
// clock closure before the simulator can go out of scope (the tracer must
// never hold a dangling clock). No-op when tracing is off.
class ScopedSimTraceClock {
 public:
  explicit ScopedSimTraceClock(sim::Simulator& sim) {
    if (obs::Tracer::global().enabled()) {
      bound_ = true;
      obs::Tracer::global().use_sim_clock(
          [&sim] { return sim.now().nanos(); });
    }
  }
  ~ScopedSimTraceClock() {
    if (bound_) obs::Tracer::global().use_steady_clock();
  }
  ScopedSimTraceClock(const ScopedSimTraceClock&) = delete;
  ScopedSimTraceClock& operator=(const ScopedSimTraceClock&) = delete;

 private:
  bool bound_ = false;
};

// Print the non-zero counters whose names start with `prefix` ("" = all) —
// the quick "did the run actually exercise X" check.
inline void metrics_digest(const std::string& prefix = "") {
  section("metrics digest (non-zero counters)");
  for (const auto& snap : obs::MetricsRegistry::global().snapshot()) {
    if (snap.kind != obs::InstrumentKind::kCounter || snap.value == 0.0) {
      continue;
    }
    if (!prefix.empty() && snap.name.rfind(prefix, 0) != 0) continue;
    row("%-44s %16.0f", (snap.name + obs::format_labels(snap.labels)).c_str(),
        snap.value);
  }
}

// Per-tenant tail-latency table from an HdrHistogram family labelled by
// `tenant` — the A4/E2 fairness evidence. Prints count/p50/p90/p99/p999/max
// per tenant plus Jain's fairness index over mean latencies (1.0 = every
// tenant sees the same mean; 1/n = one tenant absorbs everything).
inline void tenant_latency_table(const std::string& metric_name,
                                 double scale = 1e3,
                                 const char* unit = "ms") {
  struct Row {
    std::string tenant;
    double count, p50, p90, p99, p999, max, mean;
  };
  std::vector<Row> rows;
  for (const auto& snap : obs::MetricsRegistry::global().snapshot()) {
    if (snap.kind != obs::InstrumentKind::kHdrHistogram ||
        snap.name != metric_name || snap.count == 0) {
      continue;
    }
    std::string tenant;
    for (const auto& [key, value] : snap.labels) {
      if (key == "tenant") tenant = value;
    }
    if (tenant.empty()) continue;
    const double count = static_cast<double>(snap.count);
    Row r{tenant, count, 0, 0, 0, 0, snap.max * scale,
          count > 0 ? snap.value / count * scale : 0.0};
    for (const auto& [q, v] : snap.quantiles) {
      if (q == 0.5) r.p50 = v * scale;
      if (q == 0.9) r.p90 = v * scale;
      if (q == 0.99) r.p99 = v * scale;
      if (q == 0.999) r.p999 = v * scale;
    }
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.tenant < b.tenant; });
  section("per-tenant tail latency: " + metric_name + " (" + unit + ")");
  if (rows.empty()) {
    row("(no per-tenant samples recorded)");
    return;
  }
  row("%-14s %10s %10s %10s %10s %10s %10s", "tenant", "count", "p50", "p90",
      "p99", "p999", "max");
  double sum = 0.0, sum_sq = 0.0;
  for (const Row& r : rows) {
    row("%-14s %10.0f %10.3f %10.3f %10.3f %10.3f %10.3f", r.tenant.c_str(),
        r.count, r.p50, r.p90, r.p99, r.p999, r.max);
    sum += r.mean;
    sum_sq += r.mean * r.mean;
  }
  const double n = static_cast<double>(rows.size());
  const double jain = sum_sq > 0.0 ? (sum * sum) / (n * sum_sq) : 1.0;
  row("Jain fairness index over mean latency: %.4f  (1.0 = perfectly fair, "
      "%.2f = worst)",
      jain, 1.0 / n);
}

[[nodiscard]] inline bool obs_dump(const ObsOptions& options) {
  bool ok = true;
  if (!options.metrics_path.empty()) {
    const Status written = write_file_atomic(
        options.metrics_path, obs::MetricsRegistry::global().to_prometheus());
    if (written.is_ok()) {
      row("metrics: wrote %zu instruments to %s",
          obs::MetricsRegistry::global().instrument_count(),
          options.metrics_path.c_str());
    } else {
      row("metrics: FAILED to write %s: %s", options.metrics_path.c_str(),
          written.message().c_str());
      ok = false;
    }
  }
  if (!options.metrics_csv_path.empty()) {
    const Status written = write_file_atomic(
        options.metrics_csv_path, obs::MetricsRegistry::global().to_csv());
    if (written.is_ok()) {
      row("metrics: wrote CSV to %s", options.metrics_csv_path.c_str());
    } else {
      row("metrics: FAILED to write %s: %s",
          options.metrics_csv_path.c_str(), written.message().c_str());
      ok = false;
    }
  }
  if (options.flight()) {
    obs::FlightRecorder& recorder = obs::FlightRecorder::global();
    const std::string path = options.flight_dir + "/flight-final.txt";
    const Status written = recorder.dump_to_file(path);
    if (written.is_ok()) {
      row("flight: wrote %llu recorded event(s) to %s",
          static_cast<unsigned long long>(recorder.recorded()), path.c_str());
    } else {
      row("flight: FAILED to write %s: %s", path.c_str(),
          written.message().c_str());
      ok = false;
    }
    recorder.enable(false);
  }
  if (options.tracing()) {
    obs::Tracer& tracer = obs::Tracer::global();
    const Status written = tracer.write_chrome_json(options.trace_path);
    if (written.is_ok()) {
      row("trace: wrote %zu events to %s (open in chrome://tracing or "
          "ui.perfetto.dev)",
          tracer.event_count(), options.trace_path.c_str());
    } else {
      row("trace: FAILED to write %s: %s", options.trace_path.c_str(),
          written.message().c_str());
      ok = false;
    }
    tracer.enable(false);
    tracer.use_steady_clock();  // drop any sim-clock closure before exit
  }
  return ok;
}

}  // namespace lsdf::bench
