// perfbench: the liblsdf benchmark. Runs one workload repeatedly for a fixed
// host-time budget, checks every repetition's simulated outcome, and prints
// every metric by name with its unit; the last stdout line is one JSON
// object {correct, attempted, failed, metrics}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--git-sha <sha>] [--out-dir <dir>]
//   perfbench --selftest
//
// --trace 0 reports the end-to-end metrics, measured untraced. --trace 1
// alternates untraced and traced repetitions and reports the per-layer
// metrics, the per-layer self-time table and obs.trace_overhead.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <regex>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "harness.h"
#include "outcome.h"
#include "workloads.h"

namespace perfbench {

double RepResult::sim_s() const {
  return std::accumulate(sim_slices_s.begin(), sim_slices_s.end(), 0.0);
}

void RepResult::end_slice(Clock::time_point start) {
  sim_slices_s.push_back(seconds_since(start));
}

namespace {

struct WorkloadEntry {
  const char* name;
  WorkloadFn run;
  // The user-facing call whose host latency is op_p50_us / op_p99_us, and
  // the data counted by mb_per_s.
  const char* op;
  const char* throughput;
  // Host seconds of one full-size repetition, as measured when the
  // workload was sized (4-vCPU x86-64 VM, RelWithDebInfo). A run makes a
  // repetition count fixed by --seconds and this constant, never by how
  // fast the code under test is, so the fastest-per-slice estimator always
  // takes its minimum over the same number of samples.
  double nominal_rep_s;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"ingest_archive", run_ingest_archive, "Adal::read call",
     "ingested MB per host second of simulation", 3.3},
    {"federation_day", run_federation_day, "MetadataStore::query",
     "replicated MB per host second of simulation", 3.6},
    {"analysis_cluster", run_analysis_cluster,
     "DfsCluster::read_block until served",
     "k-mer input MB per host second of LocalRunner::run", 2.0},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// BENCHMARK.json "end_to_end", reported with --trace 0, in this order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"sim_s", "s"},         {"op_p50_us", "us"},
    {"op_p99_us", "us"},     {"mb_per_s", "MB/s"},   {"peak_rss_mb", "MB"},
};

// BENCHMARK.json "per_layer", reported with --trace 1. Every workload
// reports every name; a layer the workload does not load reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.callback_heap", "count"},
    {"net.transfers", "count"},
    {"net.bytes", "bytes"},
    {"net.cancelled", "count"},
    {"net.active_flows_peak", "count"},
    {"net.resync_us", "us"},
    {"hsm.stages", "count"},
    {"hsm.migrations", "count"},
    {"hsm.evictions", "count"},
    {"tape.mounts", "count"},
    {"tape.mount_hits", "count"},
    {"cache.hsm-read.hits", "count"},
    {"cache.hsm-read.misses", "count"},
    {"cache.hsm-read.hit_ratio", "ratio"},
    {"cache.dfs-block.hits", "count"},
    {"cache.dfs-block.misses", "count"},
    {"cache.dfs-block.hit_ratio", "ratio"},
    {"adal.read_us.p50", "us"},
    {"adal.read_us.p99", "us"},
    {"adal.migrate_us.p50", "us"},
    {"adal.migrate_us.p99", "us"},
    {"ingest.submit_us.p50", "us"},
    {"ingest.submit_us.p99", "us"},
    {"ingest.items", "count"},
    {"ingest.bytes", "bytes"},
    {"meta.register_us.p50", "us"},
    {"meta.register_us.p99", "us"},
    {"meta.query_eq_us.p50", "us"},
    {"meta.query_eq_us.p99", "us"},
    {"meta.query_range_us.p50", "us"},
    {"meta.query_range_us.p99", "us"},
    {"meta.query_tag_us.p50", "us"},
    {"meta.query_tag_us.p99", "us"},
    {"meta.lookups", "count"},
    {"fed.resolve_all_s", "s"},
    {"fed.resolutions", "count"},
    {"fed.scheduled", "count"},
    {"fed.replicated", "count"},
    {"fed.lost", "count"},
    {"fed.retries", "count"},
    {"fed.useful_ratio", "ratio"},
    {"dfs.read_block_us.p50", "us"},
    {"dfs.read_block_us.p99", "us"},
    {"mapreduce.job_host_s", "s"},
    {"mapreduce.map_tasks", "count"},
    {"mapreduce.spec_launched", "count"},
    {"mapreduce.spec_won_ratio", "ratio"},
    {"mapreduce.shuffle_bytes", "bytes"},
    {"local.map_s", "s"},
    {"local.reduce_s", "s"},
    {"local.runner_s", "s"},
    {"exec.tasks", "count"},
    {"exec.steals", "count"},
    {"obs.trace_overhead", "ratio"},
    {"self_s.bench", "s"},
    {"self_s.sim", "s"},
    {"self_s.ingest", "s"},
    {"self_s.adal", "s"},
    {"self_s.meta", "s"},
    {"self_s.fed", "s"},
    {"self_s.net", "s"},
    {"self_s.dfs", "s"},
    {"self_s.mapreduce", "s"},
    {"self_s.local", "s"},
};

// A run stops early once it has used this much host time, so it ends well
// inside the 180 s a run may take even if the code under test is several
// times slower than when the workload was sized. Only then does the
// repetition count differ from the fixed one.
constexpr double kMaxRunSeconds = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  std::string git_sha;
  std::string out_dir = ".bench_out";
};

// Timed repetitions of a run (besides the warm-up): as many full-size
// repetitions as fit in `seconds` at the workload's nominal cost, at least
// one; in traced mode an even count, half of them traced.
int repetitions(const WorkloadEntry& entry, const Args& args) {
  const int fit = static_cast<int>(args.seconds / entry.nominal_rep_s);
  const int reps = std::max(args.trace ? 2 : 1, fit);
  return args.trace ? reps - reps % 2 : reps;
}

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--selftest") {
      args.selftest = true;
    } else if (!has_value) {
      error = "missing value for " + flag;
      return false;
    } else {
      const std::string value = argv[++i];
      char* end = nullptr;
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::strtoull(value.c_str(), &end, 10);
      } else if (flag == "--seconds") {
        args.seconds = std::strtod(value.c_str(), &end);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          error = "--trace takes 0 or 1";
          return false;
        }
        args.trace = value == "1";
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        error = "unknown flag " + flag;
        return false;
      }
      if (end != nullptr && (*end != '\0' || value.empty())) {
        error = "bad number for " + flag + ": " + value;
        return false;
      }
    }
  }
  if (!args.selftest && args.workload.empty()) {
    error = "--workload is required";
    return false;
  }
  if (!(args.seconds > 0.0)) {
    error = "--seconds must be positive";
    return false;
  }
  return true;
}

bool valid_metric_name(const std::string& name) {
  static const std::regex pattern("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  return std::regex_match(name, pattern);
}

bool valid_unit(const std::string& unit) {
  static const std::regex pattern("[A-Za-z0-9_/%.-]{1,16}");
  return std::regex_match(unit, pattern);
}

int run_selftest() {
  std::vector<std::string> failures = self_test();
  for (const MetricSpec& spec : kEndToEnd) {
    if (!valid_metric_name(spec.name) || !valid_unit(spec.unit)) {
      failures.push_back(std::string("bad end-to-end metric ") + spec.name);
    }
  }
  for (const MetricSpec& spec : kPerLayer) {
    if (!valid_metric_name(spec.name) || !valid_unit(spec.unit)) {
      failures.push_back(std::string("bad per-layer metric ") + spec.name);
    }
  }
  for (const std::string& failure : failures) {
    std::printf("selftest FAILED: %s\n", failure.c_str());
  }
  std::printf("selftest %s\n", failures.empty() ? "ok" : "FAILED");
  return failures.empty() ? 0 : 1;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           json_escape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("  %-28s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

// The repetitions of a run replay the identical simulation (their outcome
// digests are equal), so slice i is the same work in each. Per slice, the
// fastest repetition is the one least disturbed by other load on the host;
// summing these is steadier on a shared host than any whole-run statistic.
// Empty when the repetitions disagree on the slice count.
std::vector<double> fastest_per_slice(
    const std::vector<std::vector<double>>& reps) {
  if (reps.empty()) return {};
  std::vector<double> best = reps.front();
  for (const std::vector<double>& rep : reps) {
    if (rep.size() != best.size()) return {};
    for (std::size_t i = 0; i < rep.size(); ++i) {
      best[i] = std::min(best[i], rep[i]);
    }
  }
  return best;
}

// Looks up `name` in a repetition's per-layer report (0 when absent).
double layer_value(const Report& report, const char* name) {
  const Metric* metric = report.find(name);
  return metric == nullptr ? 0.0 : metric->value;
}

int run(const Args& args) {
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& candidate : kWorkloads) {
    if (args.workload == candidate.name) entry = &candidate;
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const HostRecord host = host_record(args.git_sha);
  if (!host.optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a non-optimized build "
                 "(build type %s)\n",
                 host.build_type.c_str());
    return 3;
  }

  std::printf("# perfbench %s seed=%llu trace=%d seconds=%g%s\n", entry->name,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.seconds, args.smoke ? " smoke" : "");
  std::printf("# host %s\n", to_json(host).c_str());
  std::fflush(stdout);

  // Repetition 0 warms the allocator and the page cache: its outcome is
  // checked, its times are not reported. Then the fixed number of untraced
  // repetitions, or in traced mode traced and untraced ones alternating, so
  // host drift hits both alike.
  const int timed_reps = repetitions(*entry, args);
  std::vector<RepResult> warmup;
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::vector<std::string> failures;
  SpanRecorder off;
  SpanRecorder spans;
  std::uint64_t first_digest = 0;
  const Clock::time_point start = Clock::now();
  for (int rep = 0;; ++rep) {
    const bool trace_this = args.trace && rep % 2 == 1;
    SpanRecorder& recorder = trace_this ? spans : off;
    recorder.clear();
    recorder.enable(trace_this);
    const Clock::time_point rep_start = Clock::now();
    RepResult result = entry->run(
        WorkloadOptions{args.seed, args.smoke, trace_this}, recorder);
    const double rep_seconds = seconds_since(rep_start);
#if defined(__GLIBC__)
    // Settle the freed world now, so the allocator's deferred consolidation
    // is not charged to the next repetition's set-up.
    malloc_trim(0);
#endif
    std::printf("# rep %d%s: setup %.4f s, sim %.4f s, whole %.3f s\n", rep,
                rep == 0 ? " (warm-up)" : trace_this ? " (traced)" : "",
                result.setup_s, result.sim_s(), rep_seconds);
    std::fflush(stdout);
    for (const std::string& failure : result.failures) {
      failures.push_back("rep " + std::to_string(rep) + ": " + failure);
    }
    if (rep == 0) first_digest = result.digest;
    if (result.digest != first_digest) {
      failures.push_back("rep " + std::to_string(rep) +
                         ": outcome digest differs from rep 0 (" +
                         (trace_this ? "traced" : "untraced") + ")");
    }
    (rep == 0 ? warmup : trace_this ? traced : untraced)
        .push_back(std::move(result));
    if (!failures.empty() || rep == timed_reps) break;
    if (!untraced.empty() && (!args.trace || !traced.empty()) &&
        seconds_since(start) > kMaxRunSeconds) {
      std::printf("# stopped after %d of %d repetitions: over %.0f s\n", rep,
                  timed_reps, kMaxRunSeconds);
      break;
    }
  }

  if (!args.smoke && args.seed == kDefaultSeed && failures.empty()) {
    const auto pinned = pinned_digest(entry->name);
    if (pinned && *pinned != first_digest) {
      char text[128];
      std::snprintf(text, sizeof text,
                    "pinned_digest: outcome %016llx, pinned %016llx",
                    static_cast<unsigned long long>(first_digest),
                    static_cast<unsigned long long>(*pinned));
      failures.push_back(text);
    }
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const auto* reps : {&warmup, &untraced, &traced}) {
    for (const RepResult& result : *reps) {
      attempted += result.attempted;
      failed += result.failed;
    }
  }
  // Set-up is one slice: the fastest repetition's, like every other time.
  // (Its median flips between the host's fast and slow states.)
  std::vector<double> setup;
  for (const RepResult& result : untraced) setup.push_back(result.setup_s);
  const double setup_s =
      setup.empty() ? 0.0 : *std::min_element(setup.begin(), setup.end());
  const auto slices = [](const std::vector<RepResult>& reps, bool sim) {
    std::vector<std::vector<double>> out;
    for (const RepResult& result : reps) {
      out.push_back(sim || result.throughput_slices_s.empty()
                        ? result.sim_slices_s
                        : result.throughput_slices_s);
    }
    return out;
  };
  std::vector<std::vector<double>> op_reps;
  for (const RepResult& result : untraced) {
    op_reps.push_back(result.op_us.values());
  }
  const std::vector<double> sim_best = fastest_per_slice(slices(untraced, true));
  const std::vector<double> throughput_best =
      fastest_per_slice(slices(untraced, false));
  Samples op_best;
  for (const double us : fastest_per_slice(op_reps)) op_best.add(us);
  if (sim_best.empty() || throughput_best.empty() || op_best.size() == 0) {
    failures.push_back("replays differ in their number of slices or calls");
  }
  const double sim_s = std::accumulate(sim_best.begin(), sim_best.end(), 0.0);
  const double throughput_s =
      std::accumulate(throughput_best.begin(), throughput_best.end(), 0.0);

  const double throughput_mb =
      untraced.empty() ? 0.0 : untraced.front().throughput_mb;
  const double values[] = {
      setup_s,
      sim_s,
      op_best.quantile(0.50),
      op_best.quantile(0.99),
      throughput_s > 0.0 ? throughput_mb / throughput_s : 0.0,
      peak_rss_mb(),
  };
  static_assert(std::size(values) == std::size(kEndToEnd));
  std::vector<Metric> end_to_end;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    end_to_end.push_back(
        Metric{kEndToEnd[i].name, values[i], kEndToEnd[i].unit});
  }
  std::printf("# 1 warm-up + %zu untraced + %zu traced repetitions in "
              "%.2f s; op = %s (%zu calls); mb_per_s = %s\n",
              untraced.size(), traced.size(), seconds_since(start), entry->op,
              op_best.size(), entry->throughput);
  std::printf("# outcome digest %016llx\n",
              static_cast<unsigned long long>(first_digest));
  print_table("end-to-end (untraced; fastest repetition per slice):",
              end_to_end);
  std::printf("  %-28s %16.6g ratio (%lld of %lld operations failed)\n",
              "error_rate",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<long long>(failed),
              static_cast<long long>(attempted));

  std::vector<Metric> per_layer;
  if (args.trace && !traced.empty()) {
    const RepResult& last = traced.back();
    const std::vector<double> traced_best =
        fastest_per_slice(slices(traced, true));
    const double traced_sim_s =
        std::accumulate(traced_best.begin(), traced_best.end(), 0.0);
    const std::array<double, kLayerCount> self = spans.self_seconds();
    for (const MetricSpec& spec : kPerLayer) {
      double value = layer_value(last.layers, spec.name);
      const std::string name = spec.name;
      if (name == "obs.trace_overhead") {
        value = traced_sim_s / sim_s - 1.0;
      } else if (name.rfind("self_s.", 0) == 0) {
        for (std::size_t l = 0; l < kLayerCount; ++l) {
          if (name == std::string("self_s.") +
                          layer_name(static_cast<Layer>(l))) {
            value = self[l];
          }
        }
      }
      per_layer.push_back(Metric{spec.name, value, spec.unit});
    }
    for (const Metric& metric : last.layers.metrics()) {
      bool known = false;
      for (const MetricSpec& spec : kPerLayer) known |= metric.name == spec.name;
      if (!known) failures.push_back("unlisted per-layer metric " + metric.name);
    }
    std::printf("per-layer self time of the last traced repetition "
                "(%zu spans):\n",
                spans.span_count());
    double total = 0.0;
    for (const double seconds : self) total += seconds;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      std::printf("  %-12s %10.4f s %6.1f%%\n",
                  layer_name(static_cast<Layer>(l)), self[l],
                  total > 0.0 ? 100.0 * self[l] / total : 0.0);
    }
    print_table("per-layer (last traced repetition):", per_layer);
  }

  const std::vector<Metric>& reported = args.trace ? per_layer : end_to_end;
  for (const Metric& metric : reported) {
    if (!std::isfinite(metric.value)) {
      failures.push_back("metric " + metric.name + " is not finite");
    }
  }
  for (const std::string& failure : failures) {
    std::printf("CHECK FAILED %s\n", failure.c_str());
  }

  // The full record, host included, beside the one-line result.
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + entry->name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  {
    std::ofstream out(stem + ".json", std::ios::trunc);
    out << "{\"workload\": \"" << entry->name << "\", \"seed\": " << args.seed
        << ", \"host\": " << to_json(host)
        << ", \"digest\": \"" << std::hex << first_digest << std::dec
        << "\", \"end_to_end\": " << metrics_json(end_to_end)
        << ", \"per_layer\": " << metrics_json(per_layer)
        << ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out << (i ? ", " : "") << "\"" << json_escape(failures[i]) << "\"";
    }
    out << "]}\n";
  }
  if (args.trace && !spans.write_chrome_json(stem + ".spans.json")) {
    std::printf("# could not write %s.spans.json\n", stem.c_str());
  }

  const bool correct = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics_json(reported).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::parse_args(argc, argv, args, error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (args.selftest) return perfbench::run_selftest();
  return perfbench::run(args);
}
