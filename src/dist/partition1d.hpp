// 1D block partition of the vertex set (paper §3.1): rank r owns a
// contiguous range of ~n/p vertices and all edges out of them. Combined
// with the random vertex shuffle (§4.4) this balances vertices and edges
// regardless of degree skew.
//
// Block size follows the paper's floor-based scheme: every rank but the
// last owns floor(n/p) vertices; the last takes the remainder. When
// n < p the block size is clamped to 1 (trailing ranks own nothing) —
// a robustness extension for degenerate configurations.
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/types.hpp"

namespace dbfs::dist {

class BlockPartition {
 public:
  BlockPartition() = default;

  /// Uniform mode: every rank but the last owns floor(n/parts) vertices.
  BlockPartition(vid_t n, int parts) : n_(n), parts_(parts) {
    if (n < 0 || parts < 1) {
      throw std::invalid_argument("BlockPartition: invalid arguments");
    }
    block_ = std::max<vid_t>(1, n / parts);
  }

  /// Boundary mode: rank r owns [boundaries[r], boundaries[r+1]).
  /// `boundaries` must be non-decreasing, start at 0, end at n.
  static BlockPartition from_boundaries(std::vector<vid_t> boundaries);

  /// Non-uniform boundaries chosen so each rank owns ~equal *edges*
  /// (prefix sums over out-degrees): the deterministic alternative to the
  /// §4.4 random relabeling when the vertex order cannot be changed —
  /// it fixes R-MAT's natural-order skew without touching vertex ids
  /// (see bench/ablation_partition).
  static BlockPartition edge_balanced(std::span<const eid_t> out_degrees,
                                      int parts);

  vid_t n() const noexcept { return n_; }
  int parts() const noexcept { return parts_; }
  vid_t block_size() const noexcept { return block_; }

  int owner(vid_t v) const noexcept {
    if (!boundaries_.empty()) {
      const auto it = std::upper_bound(boundaries_.begin() + 1,
                                       boundaries_.end() - 1, v);
      return static_cast<int>(it - boundaries_.begin()) - 1;
    }
    const auto r = static_cast<int>(v / block_);
    return r < parts_ ? r : parts_ - 1;
  }

  vid_t begin(int r) const noexcept {
    if (!boundaries_.empty()) return boundaries_[static_cast<std::size_t>(r)];
    return std::min<vid_t>(static_cast<vid_t>(r) * block_, n_);
  }

  vid_t end(int r) const noexcept {
    if (!boundaries_.empty()) {
      return boundaries_[static_cast<std::size_t>(r) + 1];
    }
    return r == parts_ - 1
               ? n_
               : std::min<vid_t>(static_cast<vid_t>(r + 1) * block_, n_);
  }

  bool uniform() const noexcept { return boundaries_.empty(); }

  vid_t size(int r) const noexcept { return end(r) - begin(r); }

  /// [begin(r), end(r)): exactly the v with owner(v) == r.
  VertexRange range(int r) const noexcept { return {begin(r), end(r)}; }

  vid_t to_local(vid_t global) const noexcept {
    return global - begin(owner(global));
  }

  vid_t to_global(int r, vid_t local) const noexcept {
    return begin(r) + local;
  }

 private:
  vid_t n_ = 0;
  int parts_ = 1;
  vid_t block_ = 1;
  std::vector<vid_t> boundaries_;  // empty = uniform mode
};

}  // namespace dbfs::dist
