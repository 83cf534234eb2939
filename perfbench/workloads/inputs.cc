#include "perfbench/workloads/inputs.h"

#include <algorithm>
#include <string>

namespace perfbench {

using namespace expfinder;

namespace {

constexpr size_t kTopK = 10;
/// Every kBudgetedEvery-th team_search request is the budgeted one-`*`-edge
/// request (unranked, time_budget_ms = kStarBudgetMs).
constexpr size_t kBudgetedEvery = 32;
constexpr double kStarBudgetMs = 50.0;
constexpr size_t kChurnBatchSize = 8;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t RequestKey(const QueryRequest& r) {
  const uint64_t key = Mix(QueryCacheKey(ServedPattern(r), r.semantics), r.top_k.value_or(0));
  return Mix(key, static_cast<uint64_t>(r.metric));
}

ReadOp Ranked(Pattern p, std::vector<std::string> terms = {}) {
  ReadOp op;
  op.request.pattern = std::move(p);
  op.request.top_k = kTopK;
  if (!terms.empty()) {
    op.request.topic_terms = std::move(terms);
    op.request.metric = RankingMetric::kTopicFusion;
  }
  op.key = RequestKey(op.request);
  return op;
}

/// The k-th variant of paper team query `index` (Fig. 4 style): a "no more
/// senior than" experience cap on each non-output node. Variants are sent
/// in turn, 25 per query, so a repeat is long evicted from the 32-entry
/// result cache; the output node is left alone, which keeps every variant's
/// ranking cost close to the query's own.
Pattern TeamVariant(int index, uint64_t k) {
  Pattern p = gen::TeamQuery(index);
  uint64_t combo = k % 25;
  for (PatternNodeId u = 0; u < p.NumNodes(); ++u) {
    if (u == *p.output_node()) continue;
    p.mutable_node(u)->conditions.emplace_back(
        "experience", CmpOp::kLe, AttrValue(static_cast<int64_t>(11 + combo % 5)));
    combo /= 5;
  }
  return p;
}

/// A random bounded pattern whose output node (node 0) asks for one
/// experience level, so the ranked set stays small.
Pattern NarrowRandomPattern(Rng* rng) {
  const size_t nodes = 3 + rng->NextBounded(2);
  Pattern p = gen::RandomPattern(nodes, nodes, 3, 0.5, rng->Next());
  p.mutable_node(0)->conditions.emplace_back("experience", CmpOp::kEq,
                                             AttrValue(rng->NextInt(2, 12)));
  return p;
}

/// Two-node reachability request: a senior expert of a niche field who
/// reaches an analyst or architect through any path (one `*` edge). The
/// twelve variants are sent in turn, so a repeat is long evicted from
/// the result cache.
Pattern StarPattern(uint64_t k) {
  const char* leads[] = {"UX", "DBA"};
  const char* peers[] = {"BA", "SA"};
  PatternBuilder b;
  const auto floor = static_cast<int64_t>(11 + (k / 4) % 3);
  auto lead = b.Node(leads[k % 2]).Where("experience", CmpOp::kGe, AttrValue(floor)).Output();
  auto peer = b.Node(peers[(k / 2) % 2], "peer");
  b.Edge(lead, peer, kUnboundedEdge);
  auto built = b.Build();
  EF_CHECK(built.ok()) << built.status();
  return std::move(built).value();
}

}  // namespace

Graph MakeNetwork(size_t num_people) {
  gen::CollaborationConfig cfg;
  cfg.num_people = num_people;
  cfg.num_teams = num_people / 6;
  cfg.seed = 2013;
  cfg.labels = gen::TopicExpertiseModel();
  return gen::CollaborationNetwork(cfg);
}

Pattern ServedPattern(const QueryRequest& request) {
  return request.topic_terms.empty()
             ? request.pattern
             : CompileTopicTerms(request.pattern, request.topic_terms);
}

std::vector<ReadOp> TeamSearchStream(uint64_t seed, size_t count) {
  // Period-8 layout: Q3 (the ranking-heavy class) at slots 0 and 4, Q1 at
  // slots 2, 6 and 7, Q2 at slot 3, random bounded patterns at slots 1 and
  // 5. The classes' shares keep p50 inside Q1 and p90 inside Q3.
  std::vector<ReadOp> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Rng rng(Mix(seed, i));
    const uint64_t k = seed + i / 8;
    if (i % kBudgetedEvery == kBudgetedEvery - 1) {
      ReadOp op;
      op.request.pattern = StarPattern(seed + i / kBudgetedEvery);
      op.request.time_budget_ms = kStarBudgetMs;
      op.key = RequestKey(op.request);
      ops.push_back(std::move(op));
    } else if (i % 4 == 0) {
      ops.push_back(Ranked(TeamVariant(2, 2 * k + i % 8 / 4)));
    } else if (i % 8 == 3) {
      ops.push_back(Ranked(TeamVariant(1, k)));
    } else if (i % 8 == 1 || i % 8 == 5) {
      ops.push_back(Ranked(NarrowRandomPattern(&rng)));
    } else {
      ops.push_back(Ranked(TeamVariant(0, 3 * k + (i % 8 == 2 ? 0 : i % 8 - 5))));
    }
  }
  return ops;
}

std::vector<ReadOp> HotTopicsStream(uint64_t seed, size_t count) {
  // The pattern pool, most popular first: single-person "an <field> who
  // knows X" patterns (every field, then the five largest fields again with
  // a seniority floor) and two-person "expert who works with" patterns.
  // Every output node is the expert asked for. The single-person patterns
  // take about 70% of the traffic, which keeps p50 inside that class. The
  // fusion cost of a two-person pattern follows the size of its peer field;
  // peers are PMs or SAs only, so that class costs within a 2x band and p90
  // lands inside it rather than on a cliff between fields.
  std::vector<Pattern> patterns;
  for (const char* label : {"ST", "BA", "SA", "PM", "UX", "DBA", "SD"}) {
    PatternBuilder b;
    b.Node(label).Output();
    patterns.push_back(b.Build().value());
  }
  for (const char* label : {"SD", "ST", "BA", "SA", "PM"}) {
    PatternBuilder b;
    b.Node(label).Where("experience", CmpOp::kGe, AttrValue(8)).Output();
    patterns.push_back(b.Build().value());
  }
  const std::pair<const char*, const char*> duos[] = {
      {"ST", "SA"}, {"UX", "PM"}, {"SD", "SA"}, {"DBA", "PM"}, {"BA", "SA"}, {"SA", "PM"},
      {"SD", "PM"}, {"ST", "PM"}, {"PM", "SA"}, {"BA", "PM"}, {"UX", "SA"}, {"DBA", "SA"}};
  for (const auto& [expert, peer] : duos) {
    PatternBuilder b;
    auto e = b.Node(expert).Output();
    b.Edge(e, b.Node(peer, "peer"), 2);
    patterns.push_back(b.Build().value());
  }
  // Popularity rank r asks pattern p = r % |patterns| about topic
  // (p + r / |patterns|) mod |topics|: a Latin square, so every pattern is
  // asked about every topic and the hot set is the same under every seed.
  // The seed decides the request order and which tail ranks a round samples.
  const std::vector<std::string> topics = gen::TopicExpertiseModel().topics;
  std::vector<ReadOp> ranks;
  for (size_t r = 0; r < patterns.size() * topics.size(); ++r) {
    const size_t p = r % patterns.size();
    ranks.push_back(Ranked(patterns[p], {topics[(p + r / patterns.size()) % topics.size()]}));
  }
  // Zipf(1) over the ranks, sampled by strata rather than independently:
  // request k takes the rank at CDF position (k + u) / count, for one
  // seeded offset u, and the requests are then shuffled. Every seed thus
  // sends each rank almost exactly its expected number of times.
  std::vector<double> cdf(ranks.size());
  double total = 0.0;
  for (size_t r = 0; r < ranks.size(); ++r) cdf[r] = total += 1.0 / static_cast<double>(r + 1);
  Rng rng(Mix(seed, 0x686f74));
  const double u = rng.NextDouble();
  std::vector<ReadOp> ops;
  ops.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    const double at = (static_cast<double>(k) + u) / static_cast<double>(count) * total;
    const size_t r = std::lower_bound(cdf.begin(), cdf.end(), at) - cdf.begin();
    ops.push_back(ranks[std::min(r, ranks.size() - 1)]);
  }
  for (size_t i = ops.size(); i > 1; --i) std::swap(ops[i - 1], ops[rng.NextBounded(i)]);
  return ops;
}

std::vector<UpdateBatch> ChurnBatches(const Graph& g, size_t count, uint64_t seed) {
  const UpdateBatch stream =
      GenerateUpdateStream(g, count * kChurnBatchSize, 0.5, Mix(seed, 0x6368));
  std::vector<UpdateBatch> batches(count);
  for (size_t i = 0; i < stream.size(); ++i) {
    batches[i / kChurnBatchSize].push_back(stream[i]);
  }
  return batches;
}

Pattern ChurnPattern() { return gen::TeamQuery(1); }

QueryRequest ChurnRead(uint64_t min_version) {
  QueryRequest r;
  r.pattern = ChurnPattern();
  r.min_version = min_version;
  return r;
}

}  // namespace perfbench
