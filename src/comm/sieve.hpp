// Sender-side visited sieve (Lv et al. 2012): each rank keeps a private
// bitmap of vertices it knows to be globally visited and drops candidates
// whose target is already set before the level's exchange is packed.
//
// Correctness is sender-local: a vertex shipped at level L is visited (at
// level <= L) by its owner whether or not it wins the parent race, so any
// later re-send of it would be rejected on arrival — dropping it changes
// no parent and no level. The bitmap is fed from two sources: every
// candidate a rank ships (marked by sieve_and_dedup) and the rank's own
// per-level winners (marked by the BFS update loop). No extra
// communication is needed.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/prng.hpp"
#include "util/types.hpp"

namespace dbfs::comm {

/// Per-rank visited bitmaps for a simulated cluster (rank-private words,
/// safe to touch from Cluster::for_each_rank phases).
class Sieve {
 public:
  /// Size for `ranks` bitmaps of `num_vertices` bits each and clear them.
  /// Called once per BFS run.
  void reset(int ranks, vid_t num_vertices);

  bool test(int rank, vid_t v) const noexcept {
    const auto& words = words_[static_cast<std::size_t>(rank)];
    return (words[static_cast<std::size_t>(v) >> 6] >>
            (static_cast<std::size_t>(v) & 63)) &
           1u;
  }

  void mark(int rank, vid_t v) noexcept {
    auto& word = words_[static_cast<std::size_t>(rank)]
                       [static_cast<std::size_t>(v) >> 6];
    const std::uint64_t bit = std::uint64_t{1}
                              << (static_cast<std::size_t>(v) & 63);
    if (checksums_) {
      // Keep the running mark checksum consistent under idempotent
      // re-marks: only a transition contributes.
      if ((word & bit) != 0) return;
      sums_[static_cast<std::size_t>(rank)] += mark_hash(v);
    }
    word |= bit;
  }

  /// Mark `v` in every rank's bitmap (used for the run's source, which
  /// every rank knows to be visited from the start).
  void mark_all(vid_t v) noexcept {
    for (std::size_t r = 0; r < words_.size(); ++r) {
      mark(static_cast<int>(r), v);
    }
  }

  /// True once reset() sized bitmaps for at least one rank.
  bool active() const noexcept { return !words_.empty(); }

  /// Arm (or disarm) the ABFT mark checksums before the next reset():
  /// every legitimate mark() transition then feeds a per-rank wrapping
  /// sum of mark_hash(v). An at-rest bit flip (corrupt()) bypasses the
  /// sum, so the state auditor detects it by recomputing the sum from
  /// the words — whether or not the victim vertex is visited by then.
  void enable_checksums(bool on) noexcept { checksums_ = on; }

  bool checksums() const noexcept { return checksums_; }

  /// Write-time running checksum of `rank`'s marks (zero when disarmed).
  std::uint64_t sum(int rank) const noexcept {
    return checksums_ ? sums_[static_cast<std::size_t>(rank)] : 0;
  }

  static std::uint64_t mark_hash(vid_t v) noexcept {
    return util::mix64(0x5349455645ULL ^ static_cast<std::uint64_t>(v));
  }

  /// Flip one bitmap bit WITHOUT touching the running checksum — the
  /// simulated hardware fault (fault-injection only; never a legitimate
  /// mutation).
  void corrupt(int rank, vid_t v) noexcept {
    words_[static_cast<std::size_t>(rank)]
          [static_cast<std::size_t>(v) >> 6] ^=
        std::uint64_t{1} << (static_cast<std::size_t>(v) & 63);
  }

  /// Visit every set bit of `rank`'s bitmap, ascending. Used by the state
  /// auditor to verify marked ⊆ globally-visited — a spuriously set bit
  /// suppresses future sends of an unvisited vertex, which is the one
  /// sieve corruption that changes the answer.
  template <typename Fn>
  void for_each_marked(int rank, Fn&& fn) const {
    const auto& words = words_[static_cast<std::size_t>(rank)];
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        fn(static_cast<vid_t>(w * 64 + static_cast<std::size_t>(bit)));
      }
    }
  }

 private:
  std::vector<std::vector<std::uint64_t>> words_;
  std::vector<std::uint64_t> sums_;  // per-rank mark checksums (ABFT)
  bool checksums_ = false;
};

/// Caller-owned working space for dedup_max_parent, reused across
/// blocks: a presence bitmap over the block's [lo, hi] span (all-zero
/// between calls) and one max-parent slot per offset (written on first
/// sight, so it never needs clearing). Deliberately not
/// static/thread_local: each concurrent user owns one.
struct DedupScratch {
  std::vector<std::uint64_t> bits;
  std::vector<vid_t> best;
};

/// Collapse `block` (every target inside [lo, hi]) to its distinct
/// targets in ascending order, each with its max parent, written back to
/// the front of `block`; `on_kept(v)` sees every survivor in that order.
/// Returns how many were kept (block.first(kept) is the result).
///
/// Owners combine duplicates by max parent (1D and 2D alike: the
/// order-independent rule that lets a recovery replay reproduce the
/// fault-free parents). The result equals sorting by (vertex asc, parent
/// desc) and keeping the first of each vertex, at O(k + (hi - lo) / 64)
/// cost: both callers' blocks lie in one owner's range, so the bitmap
/// walk is bounded by it.
template <typename C, typename OnKept>
std::size_t dedup_max_parent(std::span<C> block, vid_t lo, vid_t hi,
                             DedupScratch& scratch, OnKept&& on_kept) {
  if (block.empty()) return 0;
  // Scatter into the presence bitmap, keeping the max parent.
  const auto width = static_cast<std::size_t>(hi - lo) + 1;
  const std::size_t words = (width + 63) / 64;
  if (scratch.bits.size() < words) scratch.bits.resize(words, 0);
  if (scratch.best.size() < width) scratch.best.resize(width);
  std::uint64_t* bits = scratch.bits.data();
  vid_t* best = scratch.best.data();
  for (const C& c : block) {
    const auto off = static_cast<std::size_t>(c.vertex - lo);
    const std::uint64_t bit = std::uint64_t{1} << (off & 63);
    const bool seen = (bits[off >> 6] & bit) != 0;
    bits[off >> 6] |= bit;
    best[off] = seen && best[off] > c.parent ? best[off] : c.parent;
  }

  // Emit set bits in ascending order, re-zeroing the bitmap.
  std::size_t out = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = bits[w];
    bits[w] = 0;
    while (word != 0) {
      const std::size_t off =
          w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      const vid_t v = lo + static_cast<vid_t>(off);
      block[out].vertex = v;
      block[out].parent = best[off];
      ++out;
      on_kept(v);
    }
  }
  return out;
}

/// Filter and order one destination block in place before encoding:
/// drop targets already marked in `rank`'s bitmap, then dedup_max_parent
/// the survivors (the max-parent duplicate is the one the owner would
/// keep, so it is the one to ship) and mark them. Returns how many
/// candidates were kept (block.first(kept) is the result).
template <typename C>
std::size_t sieve_and_dedup(Sieve& sieve, int rank, std::span<C> block,
                            DedupScratch& scratch) {
  // Compact the unsieved candidates to the front, note [lo, hi].
  // Branch-free, because whether a target is sieved is unpredictable.
  std::size_t kept = 0;
  vid_t lo = std::numeric_limits<vid_t>::max();
  vid_t hi = std::numeric_limits<vid_t>::min();
  for (const C& c : block) {
    const bool fresh = !sieve.test(rank, c.vertex);
    lo = fresh ? std::min(lo, c.vertex) : lo;
    hi = fresh ? std::max(hi, c.vertex) : hi;
    block[kept] = c;
    kept += fresh;
  }
  return dedup_max_parent(block.first(kept), lo, hi, scratch,
                          [&](vid_t v) { sieve.mark(rank, v); });
}

}  // namespace dbfs::comm
