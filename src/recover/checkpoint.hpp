// Fail-stop recovery for the level-synchronous BFS drivers.
//
// Level-synchronous BFS has a natural consistency point — the level
// barrier — so cheap checkpoint/restart is a snapshot of (parents,
// levels, current frontier) taken after a level completes. The snapshot
// is modeled as an asynchronous replicated copy (diskless checkpointing
// to a partner rank's memory): it is metered in bytes and counted in the
// recover.* metrics, but overlapped with the traversal, so a run with
// checkpointing enabled and no failures keeps clocks — and the report —
// bit-identical to a run without the subsystem. On the host the replica
// is a delta log (CheckpointStore): each snapshot stores only the
// entries that changed since the one before, and a full snapshot is
// materialized only when a recovery restores it.
//
// When a collective raises simmpi::RankFailedError the driver recovers:
//   * Policy::kShrink — rebuild the communicator with p-1 ranks (2D
//     grids re-fold to the nearest valid pr x pc), re-partition every
//     vertex onto the survivors, restore the snapshot, and replay from
//     the last checkpointed level;
//   * Policy::kSpare — promote a hot spare into the dead rank's slot and
//     restore just that shard from the replica; the grid and the
//     partition are untouched.
// Either way the traversal's final parents/levels are bit-identical to a
// fault-free run: replayed levels recompute exactly the same frontier
// expansions (the per-level combine rules are partition-independent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace dbfs::recover {

/// What to do about a dead rank. See the file comment.
enum class Policy { kShrink, kSpare };

const char* to_string(Policy policy);
/// Parse "shrink" | "spare"; throws std::invalid_argument otherwise.
Policy parse_policy(const std::string& name);

struct RecoverOptions {
  /// Snapshot cadence: checkpoint after every k completed levels. 0
  /// disables periodic snapshots — the implicit level-0 snapshot (just
  /// the source) is always kept while kills are scheduled, so 0 means
  /// "replay from the start" (the k = infinity point of the ablation).
  int checkpoint_every = 0;
  Policy policy = Policy::kShrink;
  /// Hot spares available to Policy::kSpare before recovery gives up and
  /// rethrows the failure.
  int spare_ranks = 1;
  /// State-audit cadence: run the ABFT auditor (src/bfs/audit.*) after
  /// every k completed levels, plus once after the traversal finishes. 0
  /// disables auditing — a run with audits off and no at-rest fault plan
  /// is bit-identical to a build without the subsystem.
  int audit_every = 0;
};

/// Everything a snapshot holds besides the per-vertex arrays.
struct CheckpointHeader {
  int levels_completed = 0;  ///< levels fully applied to parent/level
  std::int64_t global_frontier = 0;
  std::vector<vid_t> frontier;  ///< sorted global ids of the live frontier
  /// Direction-optimization heuristic state at the barrier. The per-level
  /// direction decision is a pure function of (m_f, m_u, frontier size,
  /// current direction), so snapshotting these three scalars makes a
  /// replayed traversal take the same directions as the original — the
  /// replay-determinism contract the hybrid engine promises.
  eid_t dirop_frontier_edges = 0;    ///< m_f at the barrier
  eid_t dirop_unexplored_edges = 0;  ///< m_u at the barrier
  bool dirop_bottom_up = false;      ///< direction the last level ran in
};

/// One consistent BFS snapshot, taken at a level barrier. The store keeps
/// deltas, not these: a Checkpoint is the materialized view of one stored
/// snapshot (header plus the full arrays as they stood at the barrier),
/// built on demand by CheckpointStore::newest_clean. Empty arrays mean
/// the implicit replay-from-source snapshot.
struct Checkpoint : CheckpointHeader {
  std::vector<level_t> level;  ///< distance array at the barrier
  std::vector<vid_t> parent;   ///< parent array at the barrier
};

/// One (vertex, parent, level) entry of a delta.
struct CheckpointRecord {
  vid_t vertex = 0;
  vid_t parent = kNoVertex;
  level_t level = kUnreached;
};

/// What the store keeps for one snapshot: its header plus the entries
/// that differ from the snapshot before it (from all-unreached arrays of
/// num_vertices entries for the first one).
struct CheckpointDelta {
  CheckpointHeader header;
  std::size_t num_vertices = 0;
  std::vector<CheckpointRecord> records;  ///< ascending vertex, one each
};

/// Deterministic digest of a delta's full contents (header scalars,
/// vertex count, records, frontier, dirop state). Stored next to each
/// delta at take() time and recomputed by scrub() and on restore, so an
/// at-rest flip in the stored copy is caught before it is ever replayed
/// from.
std::uint64_t checkpoint_checksum(const CheckpointDelta& delta) noexcept;

/// Structural audit of a snapshot: returns the name of the first BFS
/// invariant it violates, or nullptr when clean. Catches snapshots that
/// were corrupted *before* they were stored (the checksum matches but the
/// contents were already wrong): source rooting, parent/level tree
/// consistency, and frontier/level agreement. The implicit empty
/// snapshot (replay from source) is always clean.
const char* checkpoint_defect(const Checkpoint& snapshot, vid_t source);

/// Holds the replicated snapshot history plus byte/count accounting.
///
/// The history is a delta log. take() diffs the live arrays against the
/// store's *image* — its own copy of the newest stored snapshot's arrays
/// — in one O(n) pass and keeps only the entries that differ, so a
/// snapshot costs O(n) to take, O(changed + frontier) to store and
/// checksum, and scrub() costs O(everything stored), not O(snapshots·n).
/// Materializing snapshot k replays deltas 0..k over all-unreached
/// arrays.
///
/// A delta that fails its checksum at scrub() is *rejected*: it no longer
/// counts in stored() and is never restored. Later deltas still build on
/// it, which is safe: corrupt_latest() writes a flip into the newest
/// delta and into the image alike, so the next take() re-ships the true
/// value of the flipped entry and every later snapshot materializes
/// clean. A rejected delta with nothing newer is dropped and the image is
/// re-based on the snapshot before it.
///
/// The metered cost is unchanged by the log: a snapshot ships a vertex's
/// (parent, level) entry to the replica when the vertex became visited
/// since the previous snapshot, plus the frontier list.
class CheckpointStore {
 public:
  void arm(const RecoverOptions& options);

  bool armed() const noexcept { return armed_; }
  const RecoverOptions& options() const noexcept { return options_; }

  /// True when the cadence says to snapshot after `levels_completed`
  /// levels (cadence 0 never fires).
  bool due(int levels_completed) const noexcept {
    return armed_ && options_.checkpoint_every > 0 &&
           levels_completed % options_.checkpoint_every == 0;
  }

  /// Store a snapshot of `header` plus the live arrays (read, not kept);
  /// returns the incremental replicated bytes. The vertex count must not
  /// change while anything is stored.
  std::uint64_t take(CheckpointHeader header, std::span<const vid_t> parent,
                     std::span<const level_t> level);

  /// Newest stored snapshot that is not rejected and passes both its
  /// stored checksum and the structural defect check, materialized. Falls
  /// back to the implicit empty snapshot (replay from source) when no
  /// stored snapshot qualifies — recovery never dead-ends, it just
  /// replays more levels. The reference stays valid until the next
  /// newest_clean().
  const Checkpoint& newest_clean(vid_t source);

  /// Make `snapshot` (the reference newest_clean() returned) the newest
  /// entry again: discard everything stored after it, re-base the image
  /// on it and reset the incremental baseline so post-rollback takes
  /// re-ship what the discarded snapshots had. Passing the implicit
  /// empty snapshot clears the history.
  void rollback_to(const Checkpoint& snapshot);

  /// Fault-injection hook: flip one bit of the newest stored snapshot
  /// (shape picks the array, item, and bit) without touching its stored
  /// checksum — exactly what an at-rest memory error does. Returns false
  /// when nothing is stored to corrupt.
  bool corrupt_latest(std::uint64_t shape);

  /// Audit-time scrub: reject stored snapshots whose delta no longer
  /// matches its stored checksum; returns how many were newly rejected
  /// (sdc.checkpoints_rejected).
  int scrub();

  std::int64_t checkpoints_taken() const noexcept { return taken_; }
  std::uint64_t bytes_shipped() const noexcept { return bytes_; }
  /// Stored snapshots that are not rejected.
  std::size_t stored() const noexcept;

 private:
  struct Entry {
    CheckpointDelta delta;
    std::uint64_t checksum = 0;
    bool rejected = false;
    /// Pre-flip values of records corrupt_latest() added to the delta;
    /// a second flip that restores one removes the record again.
    std::vector<CheckpointRecord> injected;
  };

  /// Replay deltas 0..newest into `out`.
  void materialize(std::size_t newest, Checkpoint& out) const;
  /// Reload the image from the newest stored snapshot.
  void rebase_image();

  RecoverOptions options_;
  bool armed_ = false;
  std::vector<Entry> log_;  ///< oldest first; back() is the newest
  std::size_t num_vertices_ = 0;
  std::vector<vid_t> image_parent_;  ///< the newest snapshot's arrays
  std::vector<level_t> image_level_;
  Checkpoint view_;             ///< what newest_clean() materialized
  std::size_t view_index_ = 0;  ///< the log entry view_ shows
  Checkpoint empty_;            ///< the implicit replay-from-source snapshot
  std::int64_t prev_visited_ = 0;
  std::int64_t taken_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Bytes every survivor re-ingests for a full restore of `snapshot`: the
/// (parent, level) pair of each visited vertex plus the frontier list.
/// Shared by both distributions' shrink paths so the recover.* metrics
/// and the flight-recorder payloads price restores identically.
std::uint64_t restore_payload_bytes(const Checkpoint& snapshot);

/// Bytes a promoted spare re-ingests from the replica: one rank's shard
/// of the (parent, level) arrays.
std::uint64_t shard_payload_bytes(std::uint64_t shard_vertices) noexcept;

}  // namespace dbfs::recover
