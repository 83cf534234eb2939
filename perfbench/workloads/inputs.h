// Seeded inputs of the three workloads: the collaboration network and the
// request / update streams. Everything here is a pure function of the
// workload seed; the program under test only ever sees the results.

#ifndef PERFBENCH_WORKLOADS_INPUTS_H_
#define PERFBENCH_WORKLOADS_INPUTS_H_

#include <cstdint>
#include <vector>

#include "src/expfinder.h"

namespace perfbench {

/// Graph sizes: the read workloads share one size, churn runs larger so the
/// O(|G|) publish shows.
inline constexpr size_t kReadGraphNodes = 16000;
inline constexpr size_t kChurnGraphNodes = 32000;
/// churn: the open-loop rate of Mutate batches.
inline constexpr double kChurnBatchesPerSecond = 10.0;

/// Collaboration network (TopicExpertiseModel labels and topics). The
/// network is fixed per size; the workload seed varies the request and
/// update streams.
expfinder::Graph MakeNetwork(size_t num_people);

/// \brief One read request of a stream.
struct ReadOp {
  expfinder::QueryRequest request;
  /// Identifies the distinct request: equal keys mean equal answers on one
  /// graph version (pattern after topic compilation, ranking, top-k).
  uint64_t key = 0;
};

/// team_search: ranked team-formation queries (TeamQuery variants and
/// random bounded patterns), every kBudgetedEvery-th one a budgeted
/// one-`*`-edge request.
std::vector<ReadOp> TeamSearchStream(uint64_t seed, size_t count);

/// hot_topics: free-text "experts about X" requests drawn Zipf-skewed over
/// a few hundred distinct (pattern, topic) pairs.
std::vector<ReadOp> HotTopicsStream(uint64_t seed, size_t count);

/// The pattern a request is served with (topic terms compiled in).
expfinder::Pattern ServedPattern(const expfinder::QueryRequest& request);

/// churn: `count` batches of 8 updates, applicable in order to `g`.
std::vector<expfinder::UpdateBatch> ChurnBatches(const expfinder::Graph& g,
                                                 size_t count, uint64_t seed);

/// churn: the maintained query and the read-your-writes read sent after
/// every acknowledged batch (unranked; min_version set by the caller).
expfinder::Pattern ChurnPattern();
expfinder::QueryRequest ChurnRead(uint64_t min_version);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_INPUTS_H_
