#include "graph/edge_list.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace dbfs::graph {

EdgeList::EdgeList(vid_t num_vertices, std::vector<Edge> edges)
    : num_vertices_(num_vertices), edges_(std::move(edges)) {
  if (!endpoints_in_range()) {
    throw std::invalid_argument("EdgeList: endpoint out of range");
  }
}

void EdgeList::symmetrize() {
  const std::size_t original = edges_.size();
  edges_.reserve(original * 2);
  for (std::size_t i = 0; i < original; ++i) {
    const Edge e = edges_[i];
    if (e.u != e.v) edges_.push_back(Edge{e.v, e.u});
  }
}

eid_t EdgeList::sort_and_dedup(bool drop_self_loops) {
  const auto before = static_cast<eid_t>(edges_.size());
  // Two-pass LSD counting sort: a stable scatter by v into a scratch
  // array, then a stable scatter by u back into edges_, leaves the list
  // in lexicographic order in O(n + m). The histogram pass also checks
  // every endpoint (the scatters index by them) and drops self-loops.
  const auto slots = static_cast<std::size_t>(num_vertices_) + 1;
  std::vector<eid_t> u_start(slots, 0);
  std::vector<eid_t> v_start(slots, 0);
  for (const Edge& e : edges_) {
    if (!edge_in_range(e, num_vertices_)) {
      throw std::invalid_argument(
          "EdgeList::sort_and_dedup: endpoint out of range");
    }
    if (drop_self_loops && e.u == e.v) continue;
    ++u_start[e.u + 1];
    ++v_start[e.v + 1];
  }
  std::partial_sum(u_start.begin(), u_start.end(), u_start.begin());
  std::partial_sum(v_start.begin(), v_start.end(), v_start.begin());

  const auto kept = static_cast<std::size_t>(u_start.back());
  const auto scratch = std::make_unique_for_overwrite<Edge[]>(kept);
  for (const Edge& e : edges_) {
    if (drop_self_loops && e.u == e.v) continue;
    scratch[v_start[e.v]++] = e;
  }
  edges_.resize(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    const Edge e = scratch[i];
    edges_[u_start[e.u]++] = e;
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  return before - static_cast<eid_t>(edges_.size());
}

bool EdgeList::endpoints_in_range() const noexcept {
  return std::all_of(edges_.begin(), edges_.end(), [this](const Edge& e) {
    return edge_in_range(e, num_vertices_);
  });
}

}  // namespace dbfs::graph
