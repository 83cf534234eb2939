// team_search and hot_topics: read-only closed loops over a 16k-node
// collaboration network, served through ExpFinderService.
//
// A workload's stream is one round of requests. Untraced run: set up the
// service several times (median = setup_s), run one unmeasured round, then
// replay the round with two closed-loop clients until the time is up, and
// check every answer against a serial QueryEngine on its own graph copy.
//
// Traced run: the round three more times — untraced through the service
// (pass A), traced through the service (pass B: spans around Submit / Get),
// and traced through the layer functions Serve composes (pass C: cache
// probe, EvaluateWith, ResultGraph, ranking).

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "perfbench/workloads/bench.h"
#include "perfbench/workloads/inputs.h"

namespace perfbench {

using namespace expfinder;

namespace {

constexpr int kSetups = 5;
constexpr size_t kClients = 2;
constexpr size_t kVerifyThreads = 3;
/// Requests per round. A team_search round holds 64 distinct requests, more
/// than the 32-entry result cache, so a replayed round never hits on its own
/// previous pass.
constexpr size_t kTeamRound = 64;
constexpr size_t kTopicsRound = 128;
constexpr size_t kMinRounds = 3;

ServiceOptions ReadServiceOptions() {
  ServiceOptions o;
  o.serving_threads = 2;
  o.engine.match_threads = 1;
  // The result cache is enabled at service level: a per-request use_cache
  // cannot turn on a cache the service sized at 0.
  o.engine.use_cache = true;
  o.engine.cache_capacity = 32;
  return o;
}

/// Constructs the service and pays its lazy set-up: enough uncached reads
/// of every bound depth for the snapshot's ball index to build, and one
/// topic read for the topic index.
std::unique_ptr<ExpFinderService> SetUpService(Graph* g) {
  auto svc = std::make_unique<ExpFinderService>(g, ReadServiceOptions());
  const BallIndexOptions ball;
  for (uint32_t i = 0; i <= ball.build_after_uses; ++i) {
    QueryRequest r;
    r.pattern = gen::TeamQuery(static_cast<int>(i % 3));
    r.use_cache = false;
    EF_CHECK(svc->Query(r).ok());
  }
  QueryRequest topic;
  topic.pattern = gen::TeamQuery(0);
  topic.topic_terms = {gen::TopicExpertiseModel().topics[0]};
  topic.use_cache = false;
  EF_CHECK(svc->Query(topic).ok());
  return svc;
}

struct OpResult {
  bool ok = false;
  bool late = false;
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double service_ms = 0.0;  // eval_ms - queue_ms: time a worker spent on it
  uint64_t relation = 0;
  uint64_t ranked = 0;
  std::string error;
};

struct LoopResult {
  std::vector<OpResult> ops;  // one per request of the round, in stream order
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// Closed loop: kClients clients, each sends its next request when the
/// previous answer arrived, until every request of the round is answered.
LoopResult RunClosedLoop(ExpFinderService* svc, const std::vector<ReadOp>& stream,
                         SpanRecorder* rec) {
  const size_t count = stream.size();
  LoopResult out;
  out.ops.resize(count);
  std::atomic<size_t> next{0};
  const double cpu0 = ProcessCpuMs();
  const auto t0 = Clock::now();
  auto client = [&] {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      OpResult& r = out.ops[i];
      const QueryRequest& request = stream[i].request;
      std::optional<Result<QueryResponse>> res;
      const auto start = Clock::now();
      {
        ScopedSpan root(rec, "service.request", i);
        QueryTicket ticket;
        {
          ScopedSpan span(rec, "service.submit", i, root.id());
          ticket = svc->Submit(request);
        }
        ScopedSpan span(rec, "service.get", i, root.id());
        res.emplace(ticket.Get());
      }
      r.latency_ms = MsBetween(start, Clock::now());
      r.ok = res->ok();
      if (!r.ok) {
        r.error = res->status().ToString();
        continue;
      }
      const QueryResponse& resp = res->value();
      r.queue_ms = resp.queue_ms;
      r.service_ms = resp.eval_ms - resp.queue_ms;
      r.late = request.time_budget_ms > 0.0 && resp.eval_ms > request.time_budget_ms;
      r.relation = RelationDigest(resp.answer->matches);
      r.ranked = RankedDigest(resp.ranked);
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (auto& t : clients) t.join();
  out.wall_ms = MsBetween(t0, Clock::now());
  out.cpu_ms = ProcessCpuMs() - cpu0;
  return out;
}

struct Expected {
  uint64_t relation = 0;
  uint64_t ranked = 0;
};

/// The reference answer of one request: a serial, uncached QueryEngine
/// evaluation plus the ranking the request asked for.
Expected ComputeExpected(QueryEngine* engine, const QueryRequest& request) {
  const Pattern pattern = ServedPattern(request);
  auto answer = engine->Evaluate(pattern, request.semantics);
  EF_CHECK(answer.ok()) << answer.status();
  Expected e;
  e.relation = RelationDigest(answer.value()->matches);
  e.ranked = RankedDigest({});
  if (request.top_k) {
    const ResultGraph& rg = answer.value()->result_graph;
    auto ranked = request.metric == RankingMetric::kTopicFusion
                      ? TopKTopicFusion(rg, pattern, engine->graph(), request.topic_terms,
                                        *request.top_k)
                      : TopKMatchesWith(rg, pattern, *request.top_k, request.metric);
    EF_CHECK(ranked.ok()) << ranked.status();
    e.ranked = RankedDigest(ranked.value());
  }
  return e;
}

EngineOptions OracleEngineOptions() {
  EngineOptions o;
  o.use_cache = false;
  o.match_threads = 1;
  return o;
}

/// Compares every completed response with the expected answer of its
/// request (computed once per distinct request, in parallel workers that
/// each own a serial engine over their own copy of the graph).
void CheckAnswers(const Graph& base, const std::vector<ReadOp>& stream,
                  const std::vector<LoopResult>& loops, Report* report) {
  std::unordered_map<uint64_t, size_t> first;  // key -> first op index
  for (const LoopResult& loop : loops) {
    for (size_t i = 0; i < loop.ops.size(); ++i) first.emplace(stream[i].key, i);
  }
  std::vector<std::pair<uint64_t, size_t>> todo(first.begin(), first.end());
  std::vector<Expected> expected(todo.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    Graph g = base;
    QueryEngine engine(&g, OracleEngineOptions());
    for (size_t j = next.fetch_add(1); j < todo.size(); j = next.fetch_add(1)) {
      expected[j] = ComputeExpected(&engine, stream[todo[j].second].request);
    }
  };
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kVerifyThreads; ++w) workers.emplace_back(worker);
  for (auto& t : workers) t.join();
  std::unordered_map<uint64_t, Expected> by_key;
  for (size_t j = 0; j < todo.size(); ++j) by_key[todo[j].first] = expected[j];
  for (const LoopResult& loop : loops) {
    for (size_t i = 0; i < loop.ops.size(); ++i) {
      const OpResult& r = loop.ops[i];
      if (!r.ok) continue;  // counted as failed, not as a wrong answer
      const Expected& e = by_key[stream[i].key];
      if (r.relation != e.relation || r.ranked != e.ranked) {
        report->Fail("request " + std::to_string(i) + ": answer differs from the serial engine (" +
                     stream[i].request.pattern.ToText() + ")");
      }
    }
  }
}

/// The serial engine itself, against the dense-matrix oracle, on a small
/// network (the oracle is quadratic in |V|).
void SpotCheckOracle(const std::vector<ReadOp>& stream, Report* report) {
  Graph small = MakeNetwork(1500);
  QueryEngine engine(&small, OracleEngineOptions());
  std::unordered_map<uint64_t, bool> seen;
  for (size_t i = 0; i < stream.size() && seen.size() < 6; ++i) {
    if (!seen.emplace(stream[i].key, true).second) continue;
    const Pattern p = ServedPattern(stream[i].request);
    auto got = engine.Evaluate(p);
    if (!got.ok() || !(got.value()->matches == ComputeBoundedSimulationNaive(small, p))) {
      report->Fail("serial engine disagrees with ComputeBoundedSimulationNaive on " +
                   p.ToText());
    }
  }
}

/// Pass C: the layer functions ExpFinderService::Serve composes, called
/// directly in stream order, one span per call.
struct LayerReplay {
  double per_op_ms = 0.0;  // mean summed layer time per request
  size_t ball_hits = 0, bfs_fallbacks = 0, ball_builds = 0;
  size_t posting_hits = 0, scan_fallbacks = 0;
  double ranked_nodes = 0.0, rg_edges = 0.0;
};

LayerReplay ReplayLayers(const Graph& base, const std::vector<ReadOp>& stream,
                         SpanRecorder* rec, Report* report) {
  const size_t count = stream.size();
  Graph g = base;
  EngineOptions options = ReadServiceOptions().engine;
  options.use_cache = false;  // the service disables the engine's own cache
  QueryEngine engine(&g, options);
  const auto snap = engine.Publish();
  ResultCache cache(ReadServiceOptions().engine.cache_capacity);
  MatchContext ctx, cctx;
  LayerReplay out;
  double layer_ms = 0.0;
  size_t ranked_calls = 0, rg_builds = 0;
  // Serves request i through the layers; only the second pass is traced
  // and counted, the first warms the cache and the lazy indexes as the
  // service's unmeasured round does.
  auto serve = [&](size_t i, SpanRecorder* r) {
    const QueryRequest& request = stream[i].request;
    const Pattern pattern = ServedPattern(request);
    const uint64_t key = QueryCacheKey(pattern, request.semantics);
    ScopedSpan root(r, "replay.serve", i);
    std::shared_ptr<const QueryAnswer> answer;
    {
      ScopedSpan s(r, "engine.cache_probe", i, root.id());
      answer = cache.Get(key, snap->version);
    }
    if (answer == nullptr) {
      EvalPath path = EvalPath::kDirect;
      std::optional<Result<MatchRelation>> matches;
      {
        ScopedSpan s(r, "engine.eval", i, root.id());
        matches.emplace(
            engine.EvaluateWith(*snap, pattern, request.semantics, {}, &ctx, &cctx, &path));
      }
      if (!matches->ok()) {
        report->Fail("layer replay: " + matches->status().ToString());
        return;
      }
      std::optional<ResultGraph> rg;
      {
        ScopedSpan s(r, "matching.result_graph", i, root.id());
        rg.emplace(snap->graph, pattern, matches->value(), &ctx);
      }
      out.rg_edges += static_cast<double>(rg->NumEdges());
      ++rg_builds;
      answer = std::make_shared<const QueryAnswer>(
          QueryAnswer{std::move(*matches).value(), std::move(*rg)});
      ScopedSpan s(r, "engine.cache_put", i, root.id());
      cache.Put(key, snap->version, answer);
    }
    if (request.top_k) {
      const bool fusion = request.metric == RankingMetric::kTopicFusion;
      ScopedSpan s(r, fusion ? "ranking.fusion" : "ranking.social_impact", i, root.id());
      auto ranked = fusion ? TopKTopicFusion(answer->result_graph, pattern, g,
                                             request.topic_terms, *request.top_k)
                           : TopKMatchesWith(answer->result_graph, pattern, *request.top_k,
                                             request.metric);
      if (!ranked.ok()) report->Fail("layer replay ranking: " + ranked.status().ToString());
      out.ranked_nodes += static_cast<double>(answer->result_graph.NumNodes());
      ++ranked_calls;
    }
  };
  for (size_t i = 0; i < count; ++i) serve(i, nullptr);
  out = LayerReplay{};
  ranked_calls = rg_builds = 0;
  const LayerReplay base_counts{0.0, ctx.ball_hits(), ctx.bfs_fallbacks(),
                                ctx.ball_index_builds(), ctx.posting_hits(),
                                ctx.seed_scan_fallbacks()};
  for (size_t i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    serve(i, rec);
    layer_ms += MsBetween(t0, Clock::now());
  }
  out.per_op_ms = count > 0 ? layer_ms / static_cast<double>(count) : 0.0;
  if (ranked_calls > 0) out.ranked_nodes /= static_cast<double>(ranked_calls);
  if (rg_builds > 0) out.rg_edges /= static_cast<double>(rg_builds);
  out.ball_hits = ctx.ball_hits() - base_counts.ball_hits;
  out.bfs_fallbacks = ctx.bfs_fallbacks() - base_counts.bfs_fallbacks;
  out.ball_builds = ctx.ball_index_builds() - base_counts.ball_builds;
  out.posting_hits = ctx.posting_hits() - base_counts.posting_hits;
  out.scan_fallbacks = ctx.seed_scan_fallbacks() - base_counts.scan_fallbacks;
  return out;
}

/// Adds a loop's operations to attempted / failed; returns how many missed
/// (failed, or answered after their time budget).
size_t CountOutcomes(const LoopResult& loop, Report* report) {
  size_t missed = 0;
  for (size_t i = 0; i < loop.ops.size(); ++i) {
    const OpResult& r = loop.ops[i];
    if (!r.ok) {
      ++report->failed;
      report->Note("request " + std::to_string(i) + ": " + r.error);
    }
    if (!r.ok || r.late) ++missed;
  }
  report->attempted += loop.ops.size();
  return missed;
}

}  // namespace

void RunReadWorkload(const RunOptions& opts, Report* report) {
  const bool team = opts.workload == "team_search";
  const Graph base = MakeNetwork(kReadGraphNodes);
  const size_t round = team ? kTeamRound : kTopicsRound;
  const std::vector<ReadOp> stream =
      team ? TeamSearchStream(opts.seed, round) : HotTopicsStream(opts.seed, round);

  if (!opts.trace) {
    std::vector<double> setups;
    std::unique_ptr<Graph> g;
    std::unique_ptr<ExpFinderService> svc;
    for (int k = 0; k < kSetups; ++k) {
      svc.reset();
      g = std::make_unique<Graph>(base);
      const auto t0 = Clock::now();
      svc = SetUpService(g.get());
      setups.push_back(MsBetween(t0, Clock::now()) / 1e3);
    }
    // One unmeasured round, then measured rounds until the time is up. Every
    // round replays the same requests, so rounds differ only by noise; each
    // metric is the median over the rounds.
    std::vector<LoopResult> loops;
    loops.push_back(RunClosedLoop(svc.get(), stream, nullptr));
    std::vector<double> qps, p50, p90, on_time, cpu;
    const auto t0 = Clock::now();
    while (qps.size() < kMinRounds || MsBetween(t0, Clock::now()) < opts.seconds * 1e3) {
      loops.push_back(RunClosedLoop(svc.get(), stream, nullptr));
      const LoopResult& loop = loops.back();
      std::vector<double> lat;
      for (const OpResult& r : loop.ops) lat.push_back(r.latency_ms);
      const size_t missed = CountOutcomes(loop, report);
      qps.push_back(round / (loop.wall_ms / 1e3));
      p50.push_back(Percentile(lat, 50));
      p90.push_back(Percentile(lat, 90));
      on_time.push_back(1.0 - Ratio(missed, round));
      cpu.push_back(Ratio(loop.cpu_ms, round));
    }
    const double rss = PeakRssMb();
    svc.reset();
    report->Set("setup_s", Percentile(setups, 50));
    report->Set("ops_per_s", Percentile(qps, 50));
    report->Set("p50_ms", Percentile(p50, 50));
    report->Set("p90_ms", Percentile(p90, 50));
    report->Set("on_time_ratio", Percentile(on_time, 50));
    report->Set("cpu_ms_per_op", Percentile(cpu, 50));
    report->Set("peak_rss_mb", rss);
    CheckAnswers(base, stream, loops, report);
    SpotCheckOracle(stream, report);
    return;
  }

  // Traced run: one round untraced (A), the same round traced through the
  // service (B), then through the layer functions (C).
  Graph ga = base;
  auto svc = SetUpService(&ga);
  RunClosedLoop(svc.get(), stream, nullptr);  // warm-up, as above
  const LoopResult a = RunClosedLoop(svc.get(), stream, nullptr);
  svc.reset();

  SpanRecorder rec;
  Graph gb = base;
  svc = SetUpService(&gb);
  RunClosedLoop(svc.get(), stream, nullptr);
  const ServiceStats before = svc->stats();
  const LoopResult b = RunClosedLoop(svc.get(), stream, &rec);
  ServiceStats stats = svc->stats();
  svc.reset();
  stats.queries -= before.queries;
  stats.cache_hits -= before.cache_hits;
  stats.planner_short_circuits -= before.planner_short_circuits;
  stats.retried_reads -= before.retried_reads;
  stats.maintained_hits -= before.maintained_hits;
  CountOutcomes(b, report);
  CheckAnswers(base, stream, {b}, report);

  SpanRecorder layers;
  const LayerReplay c = ReplayLayers(base, stream, &layers, report);

  std::vector<double> topic_builds;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    auto index = TopicIndex::Build(base, TopicIndexOptions{});
    EF_CHECK(index != nullptr);
    topic_builds.push_back(MsBetween(t0, Clock::now()));
  }

  std::vector<double> a_lat, b_lat, b_queue, b_service;
  for (size_t i = 0; i < round; ++i) {
    a_lat.push_back(a.ops[i].latency_ms);
    b_lat.push_back(b.ops[i].latency_ms);
    b_queue.push_back(b.ops[i].queue_ms);
    b_service.push_back(b.ops[i].service_ms);
  }
  const double evaluated = static_cast<double>(stats.queries - stats.cache_hits);
  report->Set("service.submit_us", rec.MeanSelfMs("service.submit") * 1e3);
  report->Set("service.queue_ms", Mean(b_queue));
  report->Set("service.self_ms", Mean(b_service) - c.per_op_ms);
  report->Set("service.retried_reads", static_cast<double>(stats.retried_reads));
  report->Set("engine.cache_hit_ratio", Ratio(stats.cache_hits, stats.queries));
  report->Set("engine.eval_ms", layers.MeanSelfMs("engine.eval"));
  report->Set("engine.short_circuit_ratio", Ratio(stats.planner_short_circuits, evaluated));
  report->Set("matching.result_graph_ms", layers.MeanSelfMs("matching.result_graph"));
  report->Set("matching.result_graph_edges", c.rg_edges);
  report->Set("matching.ball_hit_ratio", Ratio(c.ball_hits, c.ball_hits + c.bfs_fallbacks));
  report->Set("matching.ball_index_builds", static_cast<double>(c.ball_builds));
  report->Set("ranking.social_impact_ms", layers.MeanSelfMs("ranking.social_impact"));
  report->Set("ranking.fusion_ms", layers.MeanSelfMs("ranking.fusion"));
  report->Set("ranking.ranked_nodes", c.ranked_nodes);
  report->Set("index.topic_build_ms", Percentile(topic_builds, 50));
  report->Set("index.posting_hit_ratio",
              Ratio(c.posting_hits, c.posting_hits + c.scan_fallbacks));
  report->Set("incremental.maintained_hit_ratio", Ratio(stats.maintained_hits, evaluated));
  report->Set("harness.trace_overhead", Mean(b_lat) / Mean(a_lat) - 1.0);
  if (!opts.trace_out.empty()) {
    rec.WriteJsonLines(opts.trace_out + ".service.jsonl");
    layers.WriteJsonLines(opts.trace_out + ".layers.jsonl");
  }
}

}  // namespace perfbench
