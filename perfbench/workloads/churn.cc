// churn: writes beside reads on a 32k-node network. Durability is on
// (fsync every record, checkpoint every 64 batches), two replicas serve
// reads, and TeamQuery(1) is a maintained query.
//
// Writes are open loop: batch i is due at i / kChurnBatchesPerSecond and is
// timed from that instant. After each acknowledged batch a second client
// thread sends one unranked read-your-writes read (min_version = the
// acknowledged version), timed from the acknowledgement.
//
// Traced run: pass A (untraced, fixes the batch count), pass B (traced
// service: spans around Mutate / Submit / Get, plus a watcher measuring how
// long every replica takes to reach each acknowledged version), pass C
// (the layer functions Mutate and Serve compose, called directly).

#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "perfbench/workloads/bench.h"
#include "perfbench/workloads/inputs.h"

namespace perfbench {

using namespace expfinder;

namespace {

namespace fs = std::filesystem;

constexpr int kSetups = 3;
constexpr size_t kReplicas = 2;
constexpr size_t kCheckpointEvery = 64;
constexpr size_t kWindowBatches = 20;  // 2 s at 10 batches/s

DurabilityOptions ChurnDurability(const std::string& dir) {
  DurabilityOptions d;
  d.dir = dir;
  d.fsync_policy = FsyncPolicy::kEveryRecord;
  d.checkpoint_every_n_batches = kCheckpointEvery;
  return d;
}

ServiceOptions ChurnServiceOptions(const std::string& dir) {
  ServiceOptions o;
  o.serving_threads = 2;
  o.engine.match_threads = 1;
  o.durability = ChurnDurability(dir);
  o.replication.num_replicas = kReplicas;
  return o;
}

bool ReplicasAt(const ExpFinderService& svc, uint64_t version) {
  for (const ReplicaStatus& r : svc.fleet()->Replicas()) {
    if (!r.alive || r.version < version) return false;
  }
  return true;
}

/// Waits until every replica is alive at `version`; false on timeout.
bool AwaitReplicas(const ExpFinderService& svc, uint64_t version, double timeout_ms) {
  const auto t0 = Clock::now();
  while (!ReplicasAt(svc, version)) {
    if (MsBetween(t0, Clock::now()) > timeout_ms) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// Service construction through warm-up: durability open on a fresh
/// directory (checkpoints the initial graph), replica bootstrap, the
/// maintained-query registration, and one routed read per replica.
std::unique_ptr<ExpFinderService> SetUpService(Graph* g, const std::string& dir) {
  auto svc = std::make_unique<ExpFinderService>(g, ChurnServiceOptions(dir));
  EF_CHECK(svc->durable()) << svc->durability_status();
  EF_CHECK(svc->RegisterMaintainedQuery(ChurnPattern()).ok());
  EF_CHECK(AwaitReplicas(*svc, svc->version(), 30000.0)) << "replicas did not come up";
  for (size_t i = 0; i < kReplicas; ++i) {
    QueryRequest r = ChurnRead(svc->version());
    r.use_cache = false;
    EF_CHECK(svc->Query(r).ok());
  }
  return svc;
}

struct Ack {
  size_t batch = 0;
  uint64_t version = 0;
  Clock::time_point at;
};

/// Single-producer queue of acknowledgements for the read thread.
class AckQueue {
 public:
  void Push(const Ack& a) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      q_.push_back(a);
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// False once closed and drained.
  bool Pop(Ack* a) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !q_.empty(); });
    if (q_.empty()) return false;
    *a = q_.front();
    q_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Ack> q_;   // guarded by mu_
  bool closed_ = false;  // guarded by mu_
};

struct PairResult {
  bool write_ok = false;
  bool read_done = false;
  bool read_ok = false;
  double late_ms = 0.0;   // how late the generator sent the batch
  double write_ms = 0.0;  // due time -> acknowledgement
  double ryw_ms = 0.0;    // acknowledgement -> read response
  double read_service_ms = 0.0;  // the read's eval_ms - queue_ms
  double mutate_ms = 0.0;        // the Mutate call alone
  double visible_lag_ms = -1.0;  // acknowledgement -> every replica at the version
  std::string error;
};

struct ChurnResult {
  std::vector<PairResult> pairs;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// The open-loop run: batches [0, max_batches) are due at fixed intervals
/// until `seconds` elapsed.
ChurnResult RunOpenLoop(ExpFinderService* svc, const std::vector<UpdateBatch>& batches,
                        double seconds, size_t max_batches, SpanRecorder* rec,
                        bool watch_lag, Report* report) {
  const double interval_ms = 1e3 / kChurnBatchesPerSecond;
  size_t count = std::min(max_batches, batches.size());
  count = std::min(count, static_cast<size_t>(seconds * 1e3 / interval_ms + 0.5));
  ChurnResult out;
  out.pairs.resize(count);
  AckQueue reads, lags;
  const double cpu0 = ProcessCpuMs();
  const auto t0 = Clock::now();

  std::thread reader([&] {
    Ack ack;
    while (reads.Pop(&ack)) {
      PairResult& p = out.pairs[ack.batch];
      std::optional<Result<QueryResponse>> res;
      {
        ScopedSpan root(rec, "service.request", ack.batch);
        QueryTicket ticket;
        {
          ScopedSpan s(rec, "service.submit", ack.batch, root.id());
          ticket = svc->Submit(ChurnRead(ack.version));
        }
        ScopedSpan s(rec, "service.get", ack.batch, root.id());
        res.emplace(ticket.Get());
      }
      p.ryw_ms = MsBetween(ack.at, Clock::now());
      p.read_done = true;
      p.read_ok = res->ok() && res->value().graph_version >= ack.version;
      if (!res->ok()) {
        p.error = res->status().ToString();
      } else {
        p.read_service_ms = res->value().eval_ms - res->value().queue_ms;
        if (!p.read_ok) {
          report->Fail("read-your-writes read after batch " + std::to_string(ack.batch) +
                       " served version " + std::to_string(res->value().graph_version) +
                       " < min_version " + std::to_string(ack.version));
        }
      }
    }
  });
  std::thread watcher;
  if (watch_lag) {
    watcher = std::thread([&] {
      Ack ack;
      while (lags.Pop(&ack)) {
        while (!ReplicasAt(*svc, ack.version) && MsBetween(ack.at, Clock::now()) < 5000.0) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        out.pairs[ack.batch].visible_lag_ms = MsBetween(ack.at, Clock::now());
      }
    });
  }

  for (size_t i = 0; i < count; ++i) {
    const auto due = t0 + std::chrono::microseconds(static_cast<int64_t>(i * interval_ms * 1e3));
    std::this_thread::sleep_until(due);
    PairResult& p = out.pairs[i];
    const auto sent = Clock::now();
    p.late_ms = MsBetween(due, sent);
    Status st = Status::OK();
    {
      ScopedSpan span(rec, "service.mutate", i);
      st = svc->Mutate(batches[i]);
    }
    const auto acked = Clock::now();
    p.mutate_ms = MsBetween(sent, acked);
    p.write_ms = MsBetween(due, acked);
    p.write_ok = st.ok();
    if (!st.ok()) {
      p.error = st.ToString();
      continue;
    }
    // One writer: the current version is the one this batch published.
    const Ack ack{i, svc->version(), acked};
    reads.Push(ack);
    if (watch_lag) lags.Push(ack);
  }
  reads.Close();
  lags.Close();
  reader.join();
  if (watcher.joinable()) watcher.join();
  out.wall_ms = MsBetween(t0, Clock::now());
  out.cpu_ms = ProcessCpuMs() - cpu0;
  return out;
}

/// attempted / failed over writes and reads; returns the missed pairs.
size_t CountOutcomes(const ChurnResult& r, Report* report) {
  size_t missed = 0;
  for (size_t i = 0; i < r.pairs.size(); ++i) {
    const PairResult& p = r.pairs[i];
    report->attempted += p.write_ok ? 2 : 1;
    const size_t failures = (p.write_ok ? 0 : 1) + (p.write_ok && !p.read_ok ? 1 : 0);
    report->failed += failures;
    if (failures > 0) {
      ++missed;
      report->Note("batch " + std::to_string(i) + ": " + p.error);
    }
  }
  return missed;
}

std::string GraphText(const Graph& g) {
  std::ostringstream os;
  EF_CHECK(SaveGraphText(g, os).ok());
  return os.str();
}

/// FileOps over the real filesystem that counts every byte appended.
class CountingFileOps : public FileOps {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path,
                                                        bool truncate) override {
    auto f = FileOps::Real()->NewWritableFile(path, truncate);
    if (!f.ok()) return f.status();
    return std::unique_ptr<WritableFile>(
        std::make_unique<Counted>(std::move(f).value(), &bytes_));
  }
  Result<std::string> ReadFileToString(const std::string& path) const override {
    return FileOps::Real()->ReadFileToString(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return FileOps::Real()->Rename(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return FileOps::Real()->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return FileOps::Real()->TruncateFile(path, size);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) const override {
    return FileOps::Real()->ListDir(dir);
  }
  Status CreateDirs(const std::string& dir) override {
    return FileOps::Real()->CreateDirs(dir);
  }
  uint64_t bytes() const { return bytes_.load(); }

 private:
  class Counted : public WritableFile {
   public:
    Counted(std::unique_ptr<WritableFile> f, std::atomic<uint64_t>* bytes)
        : f_(std::move(f)), bytes_(bytes) {}
    Status Append(std::string_view data) override {
      bytes_->fetch_add(data.size());
      return f_->Append(data);
    }
    Status Sync() override { return f_->Sync(); }
    Status Close() override { return f_->Close(); }

   private:
    std::unique_ptr<WritableFile> f_;
    std::atomic<uint64_t>* bytes_;
  };
  std::atomic<uint64_t> bytes_{0};
};

/// Pass C: the layer functions ExpFinderService::Mutate and Serve compose —
/// engine apply + publish, WAL append, checkpoint, replica apply, and the
/// routed read's evaluation and result graph — called directly.
struct LayerReplay {
  double per_op_ms = 0.0;  // mean blocking-path layer time per (batch, read) pair
  double write_amp = 0.0;
  double disk_mb = 0.0;
  size_t checkpoints = 0;
  double rg_edges = 0.0;  // mean result-graph edges per read
  size_t ball_hits = 0, bfs_fallbacks = 0, ball_builds = 0;
};

LayerReplay ReplayLayers(const Graph& base, const std::vector<UpdateBatch>& batches,
                         size_t count, const std::string& dir, SpanRecorder* rec,
                         Report* report) {
  Graph g = base;
  CountingFileOps files;
  DurabilityOptions d = ChurnDurability(dir);
  d.file_ops = &files;
  GraphRecoveryInfo info;
  auto opened = DurableGraph::Open(d, &g, &info);
  EF_CHECK(opened.ok()) << opened.status();
  std::unique_ptr<DurableGraph> durable = std::move(opened).value();
  EngineOptions options = ChurnServiceOptions(dir).engine;
  options.use_cache = false;
  QueryEngine engine(&g, options);
  EF_CHECK(engine.RegisterMaintainedQuery(ChurnPattern()).ok());
  engine.Publish();
  std::vector<std::unique_ptr<Replica>> replicas;
  for (size_t r = 0; r < kReplicas; ++r) {
    replicas.push_back(std::make_unique<Replica>(r, options));
    replicas.back()->Install(ReplicaBootstrap{g, durable->next_lsn()});
  }
  const Pattern pattern = ChurnPattern();
  const uint64_t key = QueryCacheKey(pattern, MatchSemantics::kBoundedSimulation);
  MatchContext ctx, cctx;
  LayerReplay out;
  const uint64_t bytes0 = files.bytes();
  uint64_t logged = 0;
  // The blocking path of one user operation: the write's apply, WAL append
  // and publish, the routed replica's apply (the read waits for it), and the
  // read's evaluation and result graph. The checkpoint and the other
  // replicas run off that path in the service and are not counted in it.
  double blocking_ms = 0.0;
  auto timed = [&blocking_ms](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    blocking_ms += MsBetween(t0, Clock::now());
  };
  for (size_t i = 0; i < count; ++i) {
    Replica& routed = *replicas[i % kReplicas];
    {
      ScopedSpan root(rec, "replay.mutate", i);
      std::shared_ptr<const EngineSnapshot> snap;
      Status st = Status::OK();
      const std::string payload = DurableGraph::EncodeBatch(batches[i]);
      logged += payload.size();
      timed([&] {
        {
          ScopedSpan s(rec, "engine.apply", i, root.id());
          st = engine.ApplyUpdates(batches[i]);
        }
        if (!st.ok()) return;
        {
          ScopedSpan s(rec, "storage.wal_append", i, root.id());
          st = durable->LogBatch(batches[i]);
        }
        ScopedSpan s(rec, "engine.publish", i, root.id());
        snap = engine.Publish();
      });
      if (!st.ok()) {
        report->Fail("layer replay write: " + st.ToString());
        break;
      }
      if (durable->CheckpointDue()) {
        ScopedSpan s(rec, "storage.checkpoint", i, root.id());
        st = durable->Checkpoint(snap->graph->graph(), durable->next_lsn());
        if (!st.ok()) report->Fail("layer replay checkpoint: " + st.ToString());
        ++out.checkpoints;
      }
      DeltaBatch delta;
      delta.deltas.push_back(Delta{durable->next_lsn() - 1, payload});
      for (auto& replica : replicas) {
        auto apply = [&] {
          ScopedSpan s(rec, "replication.apply", i, root.id());
          st = replica->Apply(delta);
        };
        if (replica.get() == &routed) {
          timed(apply);
        } else {
          apply();
        }
        if (!st.ok()) report->Fail("layer replay replica apply: " + st.ToString());
      }
    }
    ScopedSpan root(rec, "replay.read", i);
    timed([&] {
      const auto snap = routed.snapshot();
      MatchRelation matches;
      if (const MatchRelation* maintained = snap->Maintained(key)) {
        matches = *maintained;
      } else {
        EvalPath path = EvalPath::kDirect;
        std::optional<Result<MatchRelation>> evaluated;
        {
          ScopedSpan s(rec, "engine.eval", i, root.id());
          evaluated.emplace(engine.EvaluateWith(*snap, pattern,
                                                MatchSemantics::kBoundedSimulation, {}, &ctx,
                                                &cctx, &path));
        }
        if (!evaluated->ok()) {
          report->Fail("layer replay read: " + evaluated->status().ToString());
          return;
        }
        matches = std::move(*evaluated).value();
      }
      ScopedSpan s(rec, "matching.result_graph", i, root.id());
      ResultGraph rg(snap->graph, pattern, matches, &ctx);
      out.rg_edges += static_cast<double>(rg.NumEdges()) / static_cast<double>(count);
    });
  }
  out.per_op_ms = count > 0 ? blocking_ms / static_cast<double>(count) : 0.0;
  out.write_amp = logged > 0 ? static_cast<double>(files.bytes() - bytes0) / logged : 0.0;
  durable.reset();
  out.disk_mb = static_cast<double>(DirBytes(dir)) / (1 << 20);
  out.ball_hits = ctx.ball_hits();
  out.bfs_fallbacks = ctx.bfs_fallbacks();
  out.ball_builds = ctx.ball_index_builds();
  return out;
}

}  // namespace

void RunChurn(const RunOptions& opts, Report* report) {
  const Graph base = MakeNetwork(kChurnGraphNodes);
  const size_t max_batches = static_cast<size_t>(opts.seconds * kChurnBatchesPerSecond) + 1;
  const std::vector<UpdateBatch> batches = ChurnBatches(base, max_batches, opts.seed);
  const std::string dir = opts.work_dir + "/wal";
  const double interval_ms = 1e3 / kChurnBatchesPerSecond;

  if (!opts.trace) {
    std::vector<double> setups;
    std::unique_ptr<Graph> g;
    std::unique_ptr<ExpFinderService> svc;
    for (int k = 0; k < kSetups; ++k) {
      svc.reset();
      fs::remove_all(dir);
      g = std::make_unique<Graph>(base);
      const auto t0 = Clock::now();
      svc = SetUpService(g.get(), dir);
      setups.push_back(MsBetween(t0, Clock::now()) / 1e3);
    }
    const ChurnResult run =
        RunOpenLoop(svc.get(), batches, opts.seconds, batches.size(), nullptr, false, report);
    const double rss = PeakRssMb();
    const size_t missed = CountOutcomes(run, report);
    std::vector<double> late, op;
    for (const PairResult& p : run.pairs) {
      late.push_back(p.late_ms);
      if (p.write_ok && p.read_done) op.push_back(p.write_ms + p.ryw_ms);
    }
    // An open loop that fell behind measured its own backlog, not the
    // system: refuse to report its latencies.
    const double late_p90 = Percentile(late, 90);
    if (late_p90 > interval_ms) {
      report->Fail("invalid run: the open-loop generator fell behind (late p90 " +
                   std::to_string(late_p90) + " ms)");
    }
    // Convergence, then recovery of a copy of the durability directory.
    if (!AwaitReplicas(*svc, svc->version(), 10000.0)) {
      report->Fail("replicas did not converge to the primary's version " +
                   std::to_string(svc->version()));
    }
    svc.reset();  // drains in-flight checkpoints
    const std::string copy = opts.work_dir + "/wal-copy";
    fs::remove_all(copy);
    fs::copy(dir, copy, fs::copy_options::recursive);
    {
      Graph recovered;
      GraphRecoveryInfo info;
      auto reopened = DurableGraph::Open(ChurnDurability(copy), &recovered, &info);
      if (!reopened.ok() || info.data_loss || GraphText(recovered) != GraphText(*g)) {
        report->Fail("DurableGraph::Open on a copy of the durability directory did not "
                     "recover the primary's graph");
      }
    }
    fs::remove_all(copy);
    fs::remove_all(dir);
    const double pairs = static_cast<double>(run.pairs.size());
    report->Set("setup_s", Percentile(setups, 50));
    report->Set("ops_per_s", static_cast<double>(op.size()) / (run.wall_ms / 1e3));
    // Percentiles per window of kWindowBatches consecutive operations, then
    // the median over the windows, like the read workloads' rounds: a burst
    // of host noise then moves one window, not the whole run.
    std::vector<double> p50, p90;
    for (size_t w = 0; w + kWindowBatches <= op.size(); w += kWindowBatches) {
      const std::vector<double> window(op.begin() + w, op.begin() + w + kWindowBatches);
      p50.push_back(Percentile(window, 50));
      p90.push_back(Percentile(window, 90));
    }
    report->Set("p50_ms", Percentile(p50, 50));
    report->Set("p90_ms", Percentile(p90, 50));
    report->Set("on_time_ratio", 1.0 - Ratio(missed, pairs));
    report->Set("cpu_ms_per_op", Ratio(run.cpu_ms, pairs));
    report->Set("peak_rss_mb", rss);
    return;
  }

  // Traced run.
  fs::remove_all(dir);
  Graph ga = base;
  auto svc = SetUpService(&ga, dir);
  Report scratch;
  const ChurnResult a =
      RunOpenLoop(svc.get(), batches, opts.seconds, batches.size(), nullptr, false, &scratch);
  svc.reset();
  const size_t count = a.pairs.size();

  SpanRecorder rec;
  fs::remove_all(dir);
  Graph gb = base;
  svc = SetUpService(&gb, dir);
  const ChurnResult b = RunOpenLoop(svc.get(), batches, 1e9, count, &rec, true, report);
  const ServiceStats stats = svc->stats();
  svc.reset();
  CountOutcomes(b, report);

  SpanRecorder layers;
  fs::remove_all(dir);
  const LayerReplay c = ReplayLayers(base, batches, count, dir, &layers, report);
  fs::remove_all(dir);

  std::vector<double> a_late, a_write, a_ryw, a_op, b_op, b_service, lag;
  for (const PairResult& p : a.pairs) {
    a_late.push_back(p.late_ms);
    a_write.push_back(p.write_ms);
    a_ryw.push_back(p.ryw_ms);
    a_op.push_back(p.write_ms + p.ryw_ms);
  }
  for (const PairResult& p : b.pairs) {
    b_op.push_back(p.write_ms + p.ryw_ms);
    b_service.push_back(p.mutate_ms + p.read_service_ms);
    if (p.visible_lag_ms >= 0.0) lag.push_back(p.visible_lag_ms);
  }
  const double reads = static_cast<double>(b.pairs.size());
  report->Set("service.submit_us", rec.MeanSelfMs("service.submit") * 1e3);
  report->Set("service.self_ms", Mean(b_service) - c.per_op_ms);
  report->Set("service.fallback_ratio",
              Ratio(stats.routed_fallbacks, stats.routed_reads + stats.routed_fallbacks));
  report->Set("service.retried_reads", static_cast<double>(stats.retried_reads));
  report->Set("engine.eval_ms", layers.MeanSelfMs("engine.eval"));
  report->Set("engine.publish_ms", layers.MeanSelfMs("engine.publish"));
  report->Set("engine.apply_ms", layers.MeanSelfMs("engine.apply"));
  report->Set("matching.result_graph_ms", layers.MeanSelfMs("matching.result_graph"));
  report->Set("matching.result_graph_edges", c.rg_edges);
  report->Set("matching.ball_hit_ratio", Ratio(c.ball_hits, c.ball_hits + c.bfs_fallbacks));
  report->Set("matching.ball_index_builds", static_cast<double>(c.ball_builds));
  report->Set("incremental.maintained_hit_ratio", Ratio(stats.maintained_hits, reads));
  report->Set("storage.wal_append_ms", layers.MeanSelfMs("storage.wal_append"));
  report->Set("storage.checkpoint_ms", layers.MeanSelfMs("storage.checkpoint"));
  report->Set("storage.checkpoints", static_cast<double>(c.checkpoints));
  report->Set("storage.write_amp", c.write_amp);
  report->Set("storage.disk_mb", c.disk_mb);
  report->Set("replication.visible_lag_ms", Percentile(lag, 50));
  report->Set("replication.apply_ms", layers.MeanSelfMs("replication.apply"));
  report->Set("replication.rebootstraps", static_cast<double>(stats.replica_rebootstraps));
  report->Set("harness.late_p90_ms", Percentile(a_late, 90));
  report->Set("harness.write_p50_ms", Percentile(a_write, 50));
  report->Set("harness.ryw_p50_ms", Percentile(a_ryw, 50));
  report->Set("harness.trace_overhead", Mean(b_op) / Mean(a_op) - 1.0);
  if (!opts.trace_out.empty()) {
    rec.WriteJsonLines(opts.trace_out + ".service.jsonl");
    layers.WriteJsonLines(opts.trace_out + ".layers.jsonl");
  }
}

}  // namespace perfbench
