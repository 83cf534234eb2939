#include "perfbench/workloads/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& t) { return t.tv_sec * 1e3 + t.tv_usec / 1e3; };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t RelationDigest(const expfinder::MatchRelation& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto eat = [&h](uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  for (size_t u = 0; u < m.NumPatternNodes(); ++u) {
    eat(0xffffffffULL + u);
    for (expfinder::NodeId v : m.MatchesOf(static_cast<expfinder::PatternNodeId>(u))) eat(v);
  }
  return h;
}

uint64_t RankedDigest(const std::vector<expfinder::RankedMatch>& ranked) {
  uint64_t h = 0x84222325cbf29ce4ULL;
  for (const auto& r : ranked) {
    h ^= r.node;
    h *= 0x100000001b3ULL;
  }
  return h;
}

int64_t SpanRecorder::Begin(const std::string& name, uint64_t request, int64_t parent) {
  const auto t0 = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ms = MsBetween(epoch_, t0);
  spans_.push_back(std::move(s));
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanRecorder::End(int64_t id) {
  const auto t0 = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ms = MsBetween(epoch_, t0);
}

double SpanRecorder::MeanSelfMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
  }
  double self_ms = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    self_ms += spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
    ++count;
  }
  return Ratio(self_ms, static_cast<double>(count));
}

void SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ms\":" << s.start_ms
        << ",\"end_ms\":" << s.end_ms << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

}  // namespace perfbench
