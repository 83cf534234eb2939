// expfinder_workload: one run of one end-to-end workload.
//
//   expfinder_workload --workload team_search|hot_topics|churn --seed N
//                      --seconds S --trace 0|1 --work-dir DIR [--trace-out PREFIX]
//
// Prints a "# fingerprint" line (CPU, cores, compiler, build type), then as
// the last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exits 1 when any answer is wrong or the run is invalid,
// 2 on bad arguments or a build that is not Release.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads/bench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in sync with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},     {"p50_ms", "ms"},
    {"p90_ms", "ms"},          {"on_time_ratio", "ratio"}, {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"service.submit_us", "us"},
    {"service.queue_ms", "ms"},
    {"service.self_ms", "ms"},
    {"service.fallback_ratio", "ratio"},
    {"service.retried_reads", "count"},
    {"engine.cache_hit_ratio", "ratio"},
    {"engine.eval_ms", "ms"},
    {"engine.short_circuit_ratio", "ratio"},
    {"engine.publish_ms", "ms"},
    {"engine.apply_ms", "ms"},
    {"matching.result_graph_ms", "ms"},
    {"matching.result_graph_edges", "count"},
    {"matching.ball_hit_ratio", "ratio"},
    {"matching.ball_index_builds", "count"},
    {"ranking.social_impact_ms", "ms"},
    {"ranking.fusion_ms", "ms"},
    {"ranking.ranked_nodes", "count"},
    {"index.topic_build_ms", "ms"},
    {"index.posting_hit_ratio", "ratio"},
    {"incremental.maintained_hit_ratio", "ratio"},
    {"storage.wal_append_ms", "ms"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.checkpoints", "count"},
    {"storage.write_amp", "ratio"},
    {"storage.disk_mb", "MiB"},
    {"replication.visible_lag_ms", "ms"},
    {"replication.apply_ms", "ms"},
    {"replication.rebootstraps", "count"},
    {"harness.late_p90_ms", "ms"},
    {"harness.write_p50_ms", "ms"},
    {"harness.ryw_p50_ms", "ms"},
    {"harness.trace_overhead", "ratio"},
};

constexpr char kUsage[] =
    "usage: expfinder_workload --workload team_search|hot_topics|churn --seed N "
    "--seconds S --trace 0|1 --work-dir DIR [--trace-out PREFIX]\n";

int Usage(const char* why) {
  std::fprintf(stderr, "error: %s\n%s", why, kUsage);
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos || s.size() > 18) {
    return false;
  }
  *out = std::stoull(s);
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) return Usage("--seed takes a non-negative integer");
      opts.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0 || n > 600) return Usage("--seconds takes 1..600");
      opts.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      opts.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.workload != "team_search" && opts.workload != "hot_topics" &&
      opts.workload != "churn") {
    return Usage("--workload must be team_search, hot_topics or churn");
  }
  if (!have_seed || !have_seconds || !have_trace || opts.work_dir.empty()) {
    return Usage("--seed, --seconds, --trace and --work-dir are required");
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts_off = true;
#else
  const bool asserts_off = false;
#endif
  if (build_type != "Release" || !asserts_off) {
    std::fprintf(stderr, "error: refusing to measure a '%s' build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n", build_type.c_str());
    return 2;
  }
  std::printf("# fingerprint {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu}\n",
              JsonEscape(CpuModel()).c_str(), std::thread::hardware_concurrency(),
              JsonEscape(__VERSION__).c_str(), build_type.c_str(), opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed));
  std::fflush(stdout);

  std::filesystem::create_directories(opts.work_dir);
  Report report;
  if (opts.workload == "churn") {
    RunChurn(opts, &report);
  } else {
    RunReadWorkload(opts, &report);
  }

  std::string metrics;
  auto emit = [&](const auto& defs) {
    for (const MetricDef& d : defs) {
      const auto it = report.metrics.find(d.name);
      const double v = it == report.metrics.end() ? 0.0 : it->second;
      if (!std::isfinite(v)) report.Fail(std::string("metric ") + d.name + " is not finite");
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", d.name, std::isfinite(v) ? v : 0.0, d.unit);
      metrics += buf;
      if (it != report.metrics.end()) report.metrics.erase(it);
    }
  };
  if (opts.trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  for (const auto& [name, value] : report.metrics) {
    report.Fail("metric " + name + " is not declared for this run");
  }
  if (report.attempted == 0) report.Fail("no operation completed");
  for (const std::string& e : report.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
