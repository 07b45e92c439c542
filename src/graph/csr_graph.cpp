#include "graph/csr_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/edge_list.hpp"

namespace dbfs::graph {

CsrGraph CsrGraph::from_edges(const EdgeList& edges, bool dedup,
                              bool drop_loops) {
  CsrGraph g;
  const vid_t n = edges.num_vertices();
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);

  // Counting pass (offsets_[v+1] = degree of v), then prefix sum, then a
  // placement pass: the standard two-pass CSR build, O(n + m). The
  // counting pass checks every endpoint, since both passes index by them.
  for (const Edge& e : edges.edges()) {
    if (!edge_in_range(e, n)) {
      throw std::invalid_argument(
          "CsrGraph::from_edges: endpoint out of range");
    }
    if (drop_loops && e.u == e.v) continue;
    ++g.offsets_[e.u + 1];
  }
  for (vid_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];

  g.adjacency_.resize(static_cast<std::size_t>(g.offsets_[n]));
  std::vector<eid_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges.edges()) {
    if (drop_loops && e.u == e.v) continue;
    g.adjacency_[cursor[e.u]++] = e.v;
  }

  // A lexicographically sorted input (build_graph's output) leaves every
  // block sorted already, since placement is stable.
  if (!std::is_sorted(edges.edges().begin(), edges.edges().end())) {
    for (vid_t v = 0; v < n; ++v) {
      auto* begin = g.adjacency_.data() + g.offsets_[v];
      auto* end = g.adjacency_.data() + g.offsets_[v + 1];
      std::sort(begin, end);
    }
  }

  if (dedup) {
    // In-place per-block unique, compacting the adjacency array.
    eid_t write = 0;
    eid_t block_start = 0;
    for (vid_t v = 0; v < n; ++v) {
      const eid_t begin = g.offsets_[v];
      const eid_t end = g.offsets_[v + 1];
      g.offsets_[v] = block_start;
      vid_t prev = kNoVertex;
      for (eid_t i = begin; i < end; ++i) {
        if (g.adjacency_[i] != prev) {
          prev = g.adjacency_[i];
          g.adjacency_[write++] = prev;
        }
      }
      block_start = write;
    }
    g.offsets_[n] = write;
    g.adjacency_.resize(static_cast<std::size_t>(write));
  }
  return g;
}

bool CsrGraph::is_symmetric() const {
  const vid_t n = num_vertices();
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t v : neighbors(u)) {
      const auto block = neighbors(v);
      if (!std::binary_search(block.begin(), block.end(), u)) return false;
    }
  }
  return true;
}

eid_t CsrGraph::max_degree() const noexcept {
  eid_t best = 0;
  for (vid_t v = 0; v < num_vertices(); ++v) best = std::max(best, degree(v));
  return best;
}

}  // namespace dbfs::graph
