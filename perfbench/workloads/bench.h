// Shared pieces of the end-to-end workload runner: run options, the metric
// report, the in-memory span recorder of traced runs, and answer digests.

#ifndef PERFBENCH_WORKLOADS_BENCH_H_
#define PERFBENCH_WORKLOADS_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/expfinder.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durability files; created and removed by the
  /// workload.
  std::string work_dir;
  /// Where the traced run writes its spans (empty = not written).
  std::string trace_out;
};

/// \brief What one invocation prints: every metric of the selected set plus
/// the operation counts and the correctness verdict.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Metric name -> value; units come from the metric tables in main.cc,
  /// and metrics a workload does not exercise read 0.
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Records a message for stderr (the first 20 are kept).
  void Note(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
  /// Marks the run incorrect.
  void Fail(const std::string& what) {
    correct = false;
    Note(what);
  }
};

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Mean(const std::vector<double>& v);
/// num / den, 0 when den is 0.
inline double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Process CPU time (user + system) in milliseconds.
double ProcessCpuMs();
/// Peak resident set size of the process in MiB.
double PeakRssMb();
/// Total size in bytes of the regular files below `dir`.
uint64_t DirBytes(const std::string& dir);

/// Order-sensitive digest of a relation (every (pattern node, data node)
/// pair) and of a ranked list (node ids in rank order).
uint64_t RelationDigest(const expfinder::MatchRelation& m);
uint64_t RankedDigest(const std::vector<expfinder::RankedMatch>& ranked);

/// \brief One traced call: name, start/end (ms since the recorder's epoch),
/// the enclosing span and the request it served.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// \brief In-memory span store. Spans are appended under a mutex and
/// written out once, at exit.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span and returns its id; close it with End.
  int64_t Begin(const std::string& name, uint64_t request, int64_t parent = -1);
  void End(int64_t id);

  /// Mean self time of the spans called `name` (duration minus the part
  /// their direct child spans cover); 0 when there are none.
  double MeanSelfMs(const std::string& name) const;

  /// Writes one JSON object per line.
  void WriteJsonLines(const std::string& path) const;

 private:
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a no-op when `rec` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, uint64_t request,
             int64_t parent = -1)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int64_t id_;
};

/// Workload entry points (read_workloads.cc, churn.cc). Each fills
/// `report` with the end-to-end metrics (untraced run) or the per-layer
/// metrics (traced run).
void RunReadWorkload(const RunOptions& opts, Report* report);
void RunChurn(const RunOptions& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_BENCH_H_
