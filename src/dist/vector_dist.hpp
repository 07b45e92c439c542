// Frontier/parent vector distributions for the 2D algorithm (paper §3.2
// and §4.3).
//
// kTwoD ("2D vector distribution"): vector entries are spread over *all*
// ranks, matching the matrix distribution — each processor row owns its
// row-block R_i, subdivided among the row's pc ranks. This is the paper's
// scalable choice.
//
// kDiagonal ("1D vector distribution"): each row-block R_i is wholly
// owned by the diagonal rank P(i,i). Classical for SpMV, but for SpMSV it
// serializes the fold-side merge on the diagonal while the rest of the
// processor row idles — the severe imbalance of Figure 4.
#pragma once

#include <stdexcept>
#include <vector>

#include "dist/partition1d.hpp"
#include "simmpi/process_grid.hpp"
#include "util/types.hpp"

namespace dbfs::dist {

enum class VectorDistKind { kTwoD, kDiagonal };

const char* to_string(VectorDistKind kind);

class VectorDist {
 public:
  VectorDist() = default;
  VectorDist(vid_t n, const simmpi::ProcessGrid& grid, VectorDistKind kind);

  VectorDistKind kind() const noexcept { return kind_; }

  /// Row-block boundaries (shared with the matrix distribution).
  const BlockPartition& row_blocks() const noexcept { return row_blocks_; }

  /// Owner rank of global vector index v.
  int owner_rank(vid_t v) const noexcept {
    const int i = row_blocks_.owner(v);
    if (kind_ == VectorDistKind::kDiagonal) return grid_rank(i, i);
    const int j = sub_[static_cast<std::size_t>(i)].owner(
        v - row_blocks_.begin(i));
    return grid_rank(i, j);
  }

  /// Owner column within processor row i for an offset into R_i (used to
  /// scatter fold-phase results along the row).
  int owner_col(int i, vid_t offset_in_block) const noexcept {
    if (kind_ == VectorDistKind::kDiagonal) return i;
    return sub_[static_cast<std::size_t>(i)].owner(offset_in_block);
  }

  /// Global range [begin, end) of the piece owned by rank (i,j).
  vid_t piece_begin(int i, int j) const noexcept {
    if (kind_ == VectorDistKind::kDiagonal) {
      return j == i ? row_blocks_.begin(i) : row_blocks_.end(i);
    }
    return row_blocks_.begin(i) + sub_[static_cast<std::size_t>(i)].begin(j);
  }

  vid_t piece_end(int i, int j) const noexcept {
    if (kind_ == VectorDistKind::kDiagonal) {
      return j == i ? row_blocks_.end(i) : row_blocks_.end(i);
    }
    return row_blocks_.begin(i) + sub_[static_cast<std::size_t>(i)].end(j);
  }

  vid_t piece_size(int i, int j) const noexcept {
    return piece_end(i, j) - piece_begin(i, j);
  }

  /// [piece_begin, piece_end) of rank (i,j): exactly the v with
  /// owner_rank(v) == (i,j), inside R_i; empty for a non-diagonal rank
  /// of the diagonal distribution.
  VertexRange piece(int i, int j) const noexcept {
    return {piece_begin(i, j), piece_end(i, j)};
  }

 private:
  int grid_rank(int i, int j) const noexcept { return i * pc_ + j; }

  VectorDistKind kind_ = VectorDistKind::kTwoD;
  int pc_ = 1;
  BlockPartition row_blocks_;
  std::vector<BlockPartition> sub_;  // per row-block: split over pc ranks
};

}  // namespace dbfs::dist
