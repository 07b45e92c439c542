// Edge-list container: the canonical interchange format between the
// generators, the partitioners, and the CSR builder (mirroring the
// Graph500 flow of generator -> edge tuples -> benchmark kernel 1).
#pragma once

#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace dbfs::graph {

struct Edge {
  vid_t u;
  vid_t v;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// True when both endpoints lie in [0, num_vertices).
inline bool edge_in_range(const Edge& e, vid_t num_vertices) noexcept {
  return e.u >= 0 && e.u < num_vertices && e.v >= 0 && e.v < num_vertices;
}

/// A bag of directed edges over the vertex set [0, num_vertices).
/// Self-loops and duplicates are permitted here; builders deal with them.
class EdgeList {
 public:
  EdgeList() = default;
  explicit EdgeList(vid_t num_vertices) : num_vertices_(num_vertices) {}
  EdgeList(vid_t num_vertices, std::vector<Edge> edges);

  vid_t num_vertices() const noexcept { return num_vertices_; }
  eid_t num_edges() const noexcept { return static_cast<eid_t>(edges_.size()); }

  void reserve(std::size_t n) { edges_.reserve(n); }
  void add(vid_t u, vid_t v) { edges_.push_back(Edge{u, v}); }

  const std::vector<Edge>& edges() const noexcept { return edges_; }
  std::vector<Edge>& edges() noexcept { return edges_; }

  /// Append every edge reversed: (u,v) -> additionally (v,u). Skips
  /// self-loops' mirror (it would be an exact duplicate).
  void symmetrize();

  /// Sort lexicographically and drop duplicate edges and self-loops.
  /// Returns the number of edges removed. Throws std::invalid_argument
  /// when an endpoint lies outside [0, num_vertices) (`add` and
  /// `edges().push_back` do not check).
  eid_t sort_and_dedup(bool drop_self_loops = true);

  /// Validate that all endpoints lie in [0, num_vertices).
  bool endpoints_in_range() const noexcept;

 private:
  vid_t num_vertices_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace dbfs::graph
