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
///
/// Each rank's bitmap covers only its *window*: the vertices it can ever
/// send to or merge — [0, n) in 1D, the row block R_i for 2D rank (i, j),
/// whose fold only ever targets R_i. mark() outside the window is a
/// no-op; the only such marks are mark_all() calls for vertices that are
/// already visited, which the rank never queries. An at-rest corrupt()
/// outside the window lands in a small sorted per-rank *stray* list that
/// test() and for_each_marked() read, so the fault injector and the state
/// auditor see exactly what a bitmap over all n vertices would hold.
class Sieve {
 public:
  /// Size one bitmap per rank, rank r covering windows[r], and clear
  /// them. Called at the start of every BFS run and on every restore.
  void reset(std::span<const VertexRange> windows);

  /// One rank's bitmap, read-only, as plain values. A hot loop copies it
  /// into locals once: read through the Sieve, the window bounds would be
  /// reloaded after every int64 store the loop makes (they may alias).
  struct View {
    vid_t lo = 0;
    std::uint64_t width = 0;
    const std::uint64_t* words = nullptr;
    const std::vector<vid_t>* strays = nullptr;

    bool test(vid_t v) const noexcept {
      const auto off = static_cast<std::uint64_t>(v - lo);
      if (off < width) return (words[off >> 6] >> (off & 63)) & 1u;
      return std::binary_search(strays->begin(), strays->end(), v);
    }
  };

  View view(int rank) const noexcept {
    const Bitmap& b = bitmaps_[static_cast<std::size_t>(rank)];
    return {b.lo, b.width, b.words.data(), &b.strays};
  }

  bool test(int rank, vid_t v) const noexcept { return view(rank).test(v); }

  void mark(int rank, vid_t v) noexcept {
    Bitmap& b = bitmaps_[static_cast<std::size_t>(rank)];
    const auto off = static_cast<std::uint64_t>(v - b.lo);
    if (off >= b.width) return;
    auto& word = b.words[off >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (off & 63);
    if (checksums_) {
      // Keep the running mark checksum consistent under idempotent
      // re-marks: only a transition contributes.
      if ((word & bit) != 0) return;
      b.sum += mark_hash(v);
    }
    word |= bit;
  }

  /// Mark `v` in every rank's bitmap (used for the run's source and for
  /// restored visited vertices, which every rank knows to be visited).
  void mark_all(vid_t v) noexcept {
    for (std::size_t r = 0; r < bitmaps_.size(); ++r) {
      mark(static_cast<int>(r), v);
    }
  }

  /// True once reset() sized bitmaps for at least one rank.
  bool active() const noexcept { return !bitmaps_.empty(); }

  /// Arm (or disarm) the ABFT mark checksums before the next reset():
  /// every legitimate mark() transition then feeds a per-rank wrapping
  /// sum of mark_hash(v). An at-rest bit flip (corrupt()) bypasses the
  /// sum, so the state auditor detects it by recomputing the sum from
  /// the words — whether or not the victim vertex is visited by then.
  void enable_checksums(bool on) noexcept { checksums_ = on; }

  bool checksums() const noexcept { return checksums_; }

  /// Write-time running checksum of `rank`'s marks (zero when disarmed).
  std::uint64_t sum(int rank) const noexcept {
    return checksums_ ? bitmaps_[static_cast<std::size_t>(rank)].sum : 0;
  }

  static std::uint64_t mark_hash(vid_t v) noexcept {
    return util::mix64(0x5349455645ULL ^ static_cast<std::uint64_t>(v));
  }

  /// Flip one bit WITHOUT touching the running checksum — the simulated
  /// hardware fault (fault-injection only; never a legitimate mutation).
  /// Outside the window the flip toggles `v` in the stray list.
  void corrupt(int rank, vid_t v);

  /// Visit every set bit of `rank`'s bitmap and every stray, ascending.
  /// Used by the state auditor to verify marked ⊆ globally-visited — a
  /// spuriously set bit suppresses future sends of an unvisited vertex,
  /// which is the one sieve corruption that changes the answer.
  template <typename Fn>
  void for_each_marked(int rank, Fn&& fn) const {
    const Bitmap& b = bitmaps_[static_cast<std::size_t>(rank)];
    auto stray = b.strays.begin();
    for (; stray != b.strays.end() && *stray < b.lo; ++stray) fn(*stray);
    for (std::size_t w = 0; w < b.words.size(); ++w) {
      std::uint64_t bits = b.words[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        fn(b.lo + static_cast<vid_t>(w * 64 + static_cast<std::size_t>(bit)));
      }
    }
    for (; stray != b.strays.end(); ++stray) fn(*stray);
  }

 private:
  struct Bitmap {
    vid_t lo = 0;             ///< first vertex of the window
    std::uint64_t width = 0;  ///< window length in vertices
    std::vector<std::uint64_t> words;
    std::vector<vid_t> strays;  ///< sorted out-of-window flips
    std::uint64_t sum = 0;      ///< running mark checksum (ABFT)
  };

  std::vector<Bitmap> bitmaps_;
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
  const Sieve::View seen = sieve.view(rank);
  std::size_t kept = 0;
  vid_t lo = std::numeric_limits<vid_t>::max();
  vid_t hi = std::numeric_limits<vid_t>::min();
  for (const C& c : block) {
    const bool fresh = !seen.test(c.vertex);
    lo = fresh ? std::min(lo, c.vertex) : lo;
    hi = fresh ? std::max(hi, c.vertex) : hi;
    block[kept] = c;
    kept += fresh;
  }
  return dedup_max_parent(block.first(kept), lo, hi, scratch,
                          [&](vid_t v) { sieve.mark(rank, v); });
}

}  // namespace dbfs::comm
