// The resilient level-synchronous loop shared by the distributed BFS
// engines.
//
// Algorithms 2 (1D) and 3 (2D) run the same loop with different local
// kernels and collectives: expand the frontier, exchange candidates,
// update the owners, agree on the next frontier size ("level-sync"). The
// level barrier between two levels is where a run checkpoints, audits
// and recovers, and none of that depends on how the matrix is
// partitioned. LevelLoop therefore holds the per-run resilience state
// (checkpoint store, recovery and SDC accounting, ABFT shadow sums) and
// the whole protocol once:
//   - arming in the run prologue plus the implicit level-0 snapshot;
//   - the barrier tail in hazard order (flips -> audit -> checkpoint)
//     and the final sweep;
//   - spare/shrink recovery with one shared Cluster rebuild, flip
//     injection, audit and rollback, and the catch/replay loop that
//     routes every failure (including one raised by a recovery action's
//     own priced collective) back into recovery;
//   - the per-level epilogue: comm/comp deltas, the level/atlas/wire
//     flight events and the wire.* metrics.
// An engine derives from LevelLoop, runs one level of its kernel in
// run_level(), and answers a few layout questions through the hooks
// below. The hooks are virtual but only run at level barriers and during
// recovery, never per edge.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bfs/audit.hpp"
#include "bfs/report.hpp"
#include "comm/wire_format.hpp"
#include "recover/checkpoint.hpp"
#include "simmpi/cluster.hpp"

namespace dbfs::comm {
class Sieve;
}

namespace dbfs::bfs {

/// The 2D hybrid engine's direction-heuristic scalars. The per-level
/// direction decision is a pure function of them, so they are carried
/// state like parents/levels: snapshotted with every checkpoint, restored
/// on recovery (a replay re-takes identical decisions), a flip target,
/// and audited against an independent replica.
struct DiropState {
  eid_t m_u = 0;           ///< m_u: degree-sum not yet frontier-charged
  eid_t m_f = 0;           ///< m_f of the frontier entering this level
  bool bottom_up = false;  ///< direction the previous level ran in
  /// Replica of [m_u, m_f, bottom_up], updated by the same legitimate
  /// operations as the live scalars (never blind-copied from them), so
  /// the audit's comparison catches an at-rest flip of the live ones.
  std::array<std::uint64_t, 3> replica{};
  /// m_u and m_f at the run's source: what a replay from the source
  /// restores.
  eid_t start_m_u = 0;
  eid_t start_m_f = 0;

  std::array<std::uint64_t, 3> live() const noexcept {
    return {static_cast<std::uint64_t>(m_u), static_cast<std::uint64_t>(m_f),
            bottom_up ? std::uint64_t{1} : std::uint64_t{0}};
  }
};

/// One level's wire accounting, summed over its encoded exchanges and
/// recorded once per level by LevelLoop::note_wire.
struct WireTally {
  comm::WireStats stats;
  std::uint64_t pre_bytes = 0;  ///< pre-codec payload bytes
  std::uint64_t dropped = 0;    ///< candidates removed by the sieve
};

class LevelLoop {
 public:
  virtual ~LevelLoop() = default;
  LevelLoop(const LevelLoop&) = delete;
  LevelLoop& operator=(const LevelLoop&) = delete;

  /// Run one BFS from `source` into `out` (whose report.algorithm the
  /// engine has already labelled): arm, seed the source, traverse with
  /// recovery, and fold the accounting into out.report.
  void run(vid_t source, BfsOutput& out);

  vid_t n;
  simmpi::Cluster cluster;
  std::vector<int> world;  ///< 0..ranks()-1, the level-sync group
  /// Per-rank frontier of owned vertices (global ids); the engine's
  /// run_level consumes it and leaves the next one.
  std::vector<std::vector<vid_t>> fs;
  vid_t global_frontier = 0;  ///< agreed size of fs, set by sync_level
  level_t level = 0;          ///< distance assigned by the running level
  bool sdc_on = false;        ///< audits armed or at-rest flips scheduled
  SdcShadow shadow;           ///< write-time ABFT shard checksums

 protected:
  /// `o` is a Bfs1DOptions or Bfs2DOptions; the loop takes the machine,
  /// fault plan, recovery options, smoothing and observers both share.
  /// `level_site` names the per-level flight events ("1d-level", ...).
  template <class Options>
  LevelLoop(const Options& o, vid_t num_vertices, int ranks,
            const char* level_site)
      : n(num_vertices),
        cluster(ranks, o.machine, o.threads_per_rank),
        recover_(o.recover),
        load_smoothing_(o.load_smoothing),
        level_site_(level_site) {
    attach(o.faults, o.tracer, o.metrics, o.flight, o.atlas);
  }

  int ranks() const noexcept { return cluster.ranks(); }

  /// The level-sync allreduce that ends every level's kernel: agree on
  /// the next frontier's size from each rank's piece.
  void sync_level(const std::vector<std::int64_t>& next_sizes);

  /// Charge per-rank compute costs to `group`, blended toward the group
  /// mean by the engine's load_smoothing option.
  void charge_smoothed(std::span<const int> group,
                       const std::vector<double>& costs);

  /// Record one level's wire tally: the wire.* metrics and a "wire"
  /// flight event at `site`.
  void note_wire(const char* site, const WireTally& tally);

 private:
  // ---- engine hooks ----
  /// One level of the engine's kernel, up to and including sync_level.
  /// Fills the engine-specific `stats` fields; the loop does the rest.
  virtual void run_level(BfsOutput& out, LevelStats& stats) = 0;
  /// Rank (and shard index) owning vertex v's parent/level entries.
  virtual int owner(vid_t v) const = 0;
  /// The sender-side visited sieve when the exchanges use one, else null.
  virtual comm::Sieve* sieve_in_use() = 0;
  /// Vertices in `rank`'s shard (what a promoted spare restores).
  virtual vid_t shard_vertices(int rank) const = 0;
  /// Re-lay the engine out over fewer ranks after a death. Returns the
  /// new rank count, or 0 (nothing changed) when no smaller layout fits.
  virtual int shrink() = 0;
  /// The direction-heuristic state, or null when the engine carries none.
  virtual DiropState* dirop() { return nullptr; }

  void attach(const simmpi::FaultPlan& faults, obs::Tracer* tracer,
              obs::MetricsRegistry* metrics, obs::FlightRecorder* flight,
              obs::CommAtlas* atlas);
  void drive(BfsOutput& out);
  void traverse(BfsOutput& out);
  void take_checkpoint(const BfsOutput& out);
  void restore_state(const recover::Checkpoint& ckpt, BfsOutput& out);
  std::optional<simmpi::RankFailedError> recover_from(
      const simmpi::RankFailedError& dead, BfsOutput& out);
  std::optional<simmpi::RankFailedError> rollback_from(
      const simmpi::AuditFailedError& bad, BfsOutput& out);
  std::optional<simmpi::RankFailedError> restore_collective(
      const char* site, double seconds, std::uint64_t bytes);
  double restore_seconds(std::uint64_t bytes) const;
  void inject_due_flips(BfsOutput& out, int completed);
  bool apply_flip(const simmpi::MemFlip& flip, BfsOutput& out);
  void audit_now(const BfsOutput& out);

  recover::RecoverOptions recover_;
  double load_smoothing_;
  const char* level_site_;
  recover::CheckpointStore store_;
  bool armed_ = false;  ///< snapshots are being taken this run
  RecoverReport rec_;   ///< per-run recovery accounting
  SdcReport sdc_;       ///< per-run SDC accounting
  vid_t source_ = 0;    ///< the run's source (rollback re-roots from it)
};

}  // namespace dbfs::bfs
