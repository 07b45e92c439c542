#include "bfs/level_loop.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "bfs/finalize.hpp"
#include "comm/sieve.hpp"
#include "model/cost.hpp"
#include "obs/comm_atlas.hpp"
#include "simmpi/comm.hpp"

namespace dbfs::bfs {

void LevelLoop::attach(const simmpi::FaultPlan& faults, obs::Tracer* tracer,
                       obs::MetricsRegistry* metrics,
                       obs::FlightRecorder* flight, obs::CommAtlas* atlas) {
  world.resize(static_cast<std::size_t>(ranks()));
  std::iota(world.begin(), world.end(), 0);
  cluster.set_fault_plan(faults);
  cluster.set_observers(tracer, metrics);
  cluster.set_flight(flight);
  if (atlas != nullptr) {
    atlas->ensure_ranks(ranks());
    cluster.set_atlas(atlas);
  }
}

void LevelLoop::run(vid_t source, BfsOutput& out) {
  cluster.reset_accounting();
  rec_ = RecoverReport{};
  sdc_ = SdcReport{};
  source_ = source;

  // SDC machinery armed = an audit cadence was requested or at-rest
  // flips are scheduled. Everything it does (shadow sums, audits, final
  // sweep) is gated on this so a plain run stays bit-identical.
  sdc_on = recover_.audit_every > 0 || !cluster.faults().mem_flips.empty();
  if (sdc_on) {
    sdc_.enabled = true;
    sdc_.audit_every = recover_.audit_every;
  }

  // Recovery armed = kills still scheduled on this communicator, an
  // explicit checkpoint cadence, or SDC resilience (audits need clean
  // snapshots to roll back to). Armed-but-unkilled runs snapshot for
  // free (overlapped replication), so they stay bit-identical.
  const bool recover_armed = !cluster.faults().rank_kills.empty() ||
                             recover_.checkpoint_every > 0;
  armed_ = recover_armed || sdc_on;
  if (armed_) store_.arm(recover_);
  if (recover_armed) {
    rec_.enabled = true;
    rec_.checkpoint_every = recover_.checkpoint_every;
    rec_.policy = recover::to_string(recover_.policy);
  }

  // Seeding the source is a restore from the implicit empty snapshot:
  // parents/levels hold just the source, every rank's sieve knows it is
  // visited before the first exchange, and the shadow sums cover it.
  if (comm::Sieve* sieve = sieve_in_use()) sieve->enable_checksums(sdc_on);
  restore_state(recover::Checkpoint{}, out);
  out.report.has_level_breakdown = cluster.observing();
  // Implicit level-0 snapshot: with cadence 0 ("never"), recovery still
  // has the source to replay from.
  if (armed_) take_checkpoint(out);

  drive(out);
  cluster.set_trace_level(-1);

  finalize_report(out.report, cluster);
  out.report.recover = rec_;
  out.report.sdc = sdc_;
}

void LevelLoop::drive(BfsOutput& out) {
  while (true) {
    std::optional<simmpi::RankFailedError> dead;
    try {
      traverse(out);
      return;
    } catch (const simmpi::AuditFailedError& bad) {
      dead = rollback_from(bad, out);
    } catch (const simmpi::RankFailedError& failed) {
      dead = failed;
    }
    // A recovery action ends in a priced collective where the next due
    // kill can fire; it comes back as `next` and is recovered in turn,
    // as long as each attempt consumed its kill from the plan. An
    // unrecoverable death (spares exhausted, nothing to shrink to)
    // throws before consuming, leaves the plan untouched, and escapes.
    while (dead) {
      const std::size_t kills_before = cluster.faults().rank_kills.size();
      std::optional<simmpi::RankFailedError> next = recover_from(*dead, out);
      if (next && cluster.faults().rank_kills.size() >= kills_before) {
        throw *next;
      }
      dead = std::move(next);
    }
  }
}

void LevelLoop::traverse(BfsOutput& out) {
  const bool observing = cluster.observing();
  std::vector<double> comm_before, comp_before;
  while (global_frontier > 0) {
    LevelStats stats;
    stats.level = level - 1;
    stats.frontier = global_frontier;
    cluster.set_trace_level(static_cast<int>(stats.level));
    if (observing) {
      comm_before = cluster.clocks().all_comm();
      comp_before = cluster.clocks().all_compute();
    }
    const double wall_before = cluster.clocks().max_now();

    run_level(out, stats);

    stats.newly_visited = global_frontier;
    stats.wall_seconds = cluster.clocks().max_now() - wall_before;
    if (observing) {
      double comm_sum = 0.0, comp_sum = 0.0;
      for (std::size_t r = 0; r < comm_before.size(); ++r) {
        const double dcomm =
            cluster.clocks().comm_time(static_cast<int>(r)) - comm_before[r];
        const double dcomp =
            cluster.clocks().compute_time(static_cast<int>(r)) -
            comp_before[r];
        comm_sum += dcomm;
        comp_sum += dcomp;
        stats.comm_seconds_max = std::max(stats.comm_seconds_max, dcomm);
        stats.comp_seconds_max = std::max(stats.comp_seconds_max, dcomp);
      }
      stats.comm_seconds = comm_sum / static_cast<double>(comm_before.size());
      stats.comp_seconds = comp_sum / static_cast<double>(comp_before.size());
    }
    if (obs::FlightRecorder* flight = cluster.flight()) {
      const int lvl = static_cast<int>(stats.level);
      flight->append("level", level_site_, cluster.clocks().max_now(), -1, lvl)
          .set("frontier", static_cast<double>(stats.frontier))
          .set("newly_visited", static_cast<double>(stats.newly_visited))
          .set("edges_scanned", static_cast<double>(stats.edges_scanned))
          .set("wall_seconds", stats.wall_seconds);
      if (cluster.atlas() != nullptr) {
        const obs::AtlasLevelCut cut = cluster.atlas()->level_cut(lvl);
        flight
            ->append("atlas", level_site_, cluster.clocks().max_now(),
                     cut.hotspot_rank, lvl)
            .set("bytes", static_cast<double>(cut.total_bytes))
            .set("network_bytes", static_cast<double>(cut.network_bytes))
            .set("subcomm_bytes", static_cast<double>(cut.subcomm_bytes));
      }
    }
    out.report.levels.push_back(stats);
    ++level;
    // Level barrier, in hazard order: (1) scheduled at-rest flips fire,
    // (2) the audit (if due) sees them, (3) only then may a checkpoint
    // snapshot the (now audited) state.
    const int completed = static_cast<int>(out.report.levels.size());
    if (sdc_on) {
      inject_due_flips(out, completed);
      if (recover_.audit_every > 0 && global_frontier > 0 &&
          completed % recover_.audit_every == 0) {
        audit_now(out);
      }
    }
    if (armed_ && global_frontier > 0 && store_.due(completed)) {
      take_checkpoint(out);
    }
  }
  if (sdc_on) {
    // Final sweep: flips scheduled at or past the last level still fire,
    // and a closing audit guarantees every injected corruption is either
    // detected here or was already repaired — even with auditing off
    // (audit_every == 0), a flip-carrying run never returns unchecked.
    inject_due_flips(out, static_cast<int>(out.report.levels.size()));
    audit_now(out);
  }
}

void LevelLoop::sync_level(const std::vector<std::int64_t>& next_sizes) {
  global_frontier = static_cast<vid_t>(simmpi::allreduce_sum<std::int64_t>(
      cluster, world, next_sizes, "level-sync"));
}

void LevelLoop::charge_smoothed(std::span<const int> group,
                                const std::vector<double>& costs) {
  double mean = 0.0;
  for (double c : costs) mean += c;
  mean /= static_cast<double>(costs.size());
  const double w = load_smoothing_;
  for (std::size_t k = 0; k < group.size(); ++k) {
    cluster.charge_compute(group[k], w * mean + (1.0 - w) * costs[k]);
  }
}

void LevelLoop::note_wire(const char* site, const WireTally& tally) {
  if (obs::MetricsRegistry* m = cluster.metrics()) {
    m->counter("wire.bytes_before") +=
        static_cast<std::int64_t>(tally.pre_bytes);
    m->counter("wire.bytes_after") +=
        static_cast<std::int64_t>(tally.stats.encoded_bytes);
    m->counter("wire.candidates_dropped") +=
        static_cast<std::int64_t>(tally.dropped);
    m->counter("wire.blocks.items") +=
        static_cast<std::int64_t>(tally.stats.blocks_items);
    m->counter("wire.blocks.bitmap") +=
        static_cast<std::int64_t>(tally.stats.blocks_bitmap);
    m->counter("wire.blocks.varint") +=
        static_cast<std::int64_t>(tally.stats.blocks_varint);
    m->histogram("wire.level_bytes_saved")
        .observe(static_cast<double>(tally.pre_bytes) -
                 static_cast<double>(tally.stats.encoded_bytes));
  }
  if (obs::FlightRecorder* flight = cluster.flight()) {
    flight
        ->append("wire", site, cluster.clocks().max_now(), -1,
                 cluster.current_level())
        .set("raw_bytes", static_cast<double>(tally.pre_bytes))
        .set("encoded_bytes", static_cast<double>(tally.stats.encoded_bytes))
        .set("sieved", static_cast<double>(tally.dropped))
        .set("items", static_cast<double>(tally.stats.items));
  }
}

/// Snapshot (parents, levels, frontier, heuristic state) into the
/// replicated store. Modeled as overlapped diskless replication: metered
/// in bytes and recover.* metrics, never charged to the clocks — a
/// checkpointing run with no failures stays bit-identical to a plain one.
void LevelLoop::take_checkpoint(const BfsOutput& out) {
  recover::CheckpointHeader snap;
  snap.levels_completed = static_cast<int>(out.report.levels.size());
  snap.global_frontier = global_frontier;
  for (const auto& f : fs) {
    snap.frontier.insert(snap.frontier.end(), f.begin(), f.end());
  }
  std::sort(snap.frontier.begin(), snap.frontier.end());
  if (const DiropState* d = dirop()) {
    snap.dirop_frontier_edges = d->m_f;
    snap.dirop_unexplored_edges = d->m_u;
    snap.dirop_bottom_up = d->bottom_up;
  }
  const std::uint64_t bytes = store_.take(std::move(snap), out.parent,
                                          out.level);
  rec_.checkpoints_taken = store_.checkpoints_taken();
  rec_.checkpoint_bytes = store_.bytes_shipped();
  if (obs::MetricsRegistry* m = cluster.metrics()) {
    ++m->counter("recover.checkpoints");
    m->counter("recover.checkpoint_bytes") += static_cast<std::int64_t>(bytes);
  }
  if (obs::Tracer* tracer = cluster.tracer()) {
    const double at = cluster.clocks().max_now();
    tracer->record(0, obs::SpanKind::kCompute, "checkpoint", "", at, at);
  }
  if (obs::FlightRecorder* flight = cluster.flight()) {
    flight
        ->append("checkpoint", "checkpoint", cluster.clocks().max_now(), -1,
                 cluster.current_level())
        .set("levels_completed", static_cast<double>(out.report.levels.size()))
        .set("bytes", static_cast<double>(bytes));
  }
}

/// Roll the live traversal state back to `ckpt` — or, for the implicit
/// empty snapshot, back to just the source. Rebuilds the frontier
/// pieces, the direction-heuristic scalars (live and replica), the
/// sender-side sieve (conservatively: every rank knows every
/// checkpointed-visited vertex inside its window — a superset of what
/// each rank had learned is safe, such candidates can never win a
/// distance check), and the ABFT shadow sums.
void LevelLoop::restore_state(const recover::Checkpoint& ckpt,
                              BfsOutput& out) {
  fs.assign(static_cast<std::size_t>(ranks()), {});
  DiropState* d = dirop();
  if (ckpt.level.empty()) {
    out.parent.assign(static_cast<std::size_t>(n), kNoVertex);
    out.level.assign(static_cast<std::size_t>(n), kUnreached);
    out.parent[static_cast<std::size_t>(source_)] = source_;
    out.level[static_cast<std::size_t>(source_)] = 0;
    global_frontier = 1;
    fs[static_cast<std::size_t>(owner(source_))].push_back(source_);
    if (d != nullptr) {
      d->m_u = d->start_m_u;
      d->m_f = d->start_m_f;
      d->bottom_up = false;
    }
  } else {
    out.parent = ckpt.parent;
    out.level = ckpt.level;
    global_frontier = static_cast<vid_t>(ckpt.global_frontier);
    for (vid_t v : ckpt.frontier) {
      fs[static_cast<std::size_t>(owner(v))].push_back(v);
    }
    if (d != nullptr) {
      // The heuristic rolls back with the traversal state, so replayed
      // levels re-evaluate the same switch predicate on the same inputs
      // and take the same directions as the lost window.
      d->m_f = ckpt.dirop_frontier_edges;
      d->m_u = ckpt.dirop_unexplored_edges;
      d->bottom_up = ckpt.dirop_bottom_up;
    }
  }
  level = static_cast<level_t>(ckpt.levels_completed) + 1;
  out.report.levels.resize(static_cast<std::size_t>(ckpt.levels_completed));
  if (comm::Sieve* sieve = sieve_in_use()) {
    sieve->reset(per_rank(&LevelLoop::sieve_window));
    for (vid_t v = 0; v < n; ++v) {
      if (out.level[static_cast<std::size_t>(v)] != kUnreached) {
        sieve->mark_all(v);
      }
    }
  }
  if (sdc_on) {
    shadow.reset(ranks());
    shadow.rebuild(out.parent, out.level, per_rank(&LevelLoop::shard_range));
    // The one place the replica may copy the live scalars: both were
    // just loaded from a verified checkpoint or the run's source.
    if (d != nullptr) d->replica = d->live();
  }
}

double LevelLoop::restore_seconds(std::uint64_t bytes) const {
  const int divisor = std::max(1, ranks());
  return model::cost_p2p(
      cluster.machine(),
      static_cast<std::size_t>(bytes / static_cast<std::uint64_t>(divisor)));
}

std::optional<simmpi::RankFailedError> LevelLoop::restore_collective(
    const char* site, double seconds, std::uint64_t bytes) {
  try {
    simmpi::sync_collective(cluster, world, seconds, site,
                            simmpi::Pattern::kPointToPoint, bytes);
  } catch (const simmpi::RankFailedError& next) {
    return next;
  }
  return std::nullopt;
}

/// Handle one fail-stop death: shrink or promote a spare, restore the
/// newest *clean* snapshot (verify-on-restore: stored replicas failing
/// their content checksum or the structural audit are skipped), and leave
/// the loop positioned to replay from the checkpointed level. Throws the
/// original error onward when recovery is impossible (spares exhausted or
/// nothing to shrink to); returns the next death when one fires during
/// the priced restore.
std::optional<simmpi::RankFailedError> LevelLoop::recover_from(
    const simmpi::RankFailedError& dead, BfsOutput& out) {
  if (!store_.armed()) throw dead;
  const recover::Checkpoint& ckpt = store_.newest_clean(source_);
  const simmpi::FaultPlan& plan = cluster.faults();
  const double detect_seconds = model::cost_failure_detection(
      cluster.machine(), plan.max_collective_retries,
      plan.backoff_base_seconds, plan.backoff_cap_seconds);
  const int lost_levels =
      static_cast<int>(out.report.levels.size()) - ckpt.levels_completed;
  const bool spare = recover_.policy == recover::Policy::kSpare;
  std::uint64_t restore_bytes = 0;

  if (spare) {
    if (rec_.spares_used >= recover_.spare_ranks) throw dead;
    ++rec_.spares_used;
    cluster.consume_kill(dead.rank());
    cluster.revive_rank(dead.rank());
    // The promoted spare restores just the dead rank's shard from the
    // replica; the layout is untouched.
    restore_bytes = recover::shard_payload_bytes(
        static_cast<std::uint64_t>(shard_range(dead.rank()).size()));
    cluster.clocks().seed(dead.virtual_time());
  } else {
    const int before = ranks();
    const int p_new = shrink();
    if (p_new < 1) throw dead;
    rec_.ranks_lost += before - p_new;
    cluster.consume_kill(dead.rank());
    // Remaining kill entries apply to the rebuilt communicator's rank
    // numbering (the plan names logical slots, not physical hosts). The
    // observers ride across the rebuild; the atlas keeps its original
    // dimension, so pairs recorded before the kill stay attributed.
    simmpi::Cluster fresh(p_new, cluster.machine(),
                          cluster.threads_per_rank());
    fresh.set_fault_plan(cluster.faults());
    fresh.fault_counters() = cluster.fault_counters();
    fresh.set_observers(cluster.tracer(), cluster.metrics());
    fresh.set_flight(cluster.flight());
    fresh.set_atlas(cluster.atlas());
    // Carry history forward: the meter keeps everything that ever moved
    // (including the lost window, which will move again), and the seeded
    // clocks keep the makespan continuous across the rebuild. Per-rank
    // compute/comm splits restart here — the survivors' numbering is new.
    fresh.traffic() = cluster.traffic();
    fresh.clocks().seed(dead.virtual_time());
    fresh.set_trace_level(ckpt.levels_completed);
    cluster = std::move(fresh);
    world.resize(static_cast<std::size_t>(p_new));
    std::iota(world.begin(), world.end(), 0);
    // Every survivor re-ingests its (re-partitioned) share of the
    // snapshot.
    restore_bytes = recover::restore_payload_bytes(ckpt);
  }

  // Roll the traversal state back to the snapshot, dropping any newer
  // (possibly corrupt) replicas from the store so the replay can't
  // restore past its own restart point.
  store_.rollback_to(ckpt);
  restore_state(ckpt, out);

  ++rec_.rank_failures;
  rec_.replayed_levels += lost_levels;
  if (obs::MetricsRegistry* m = cluster.metrics()) {
    ++m->counter("recover.rank_failures");
    m->counter("recover.replayed_levels") += lost_levels;
    ++m->counter(spare ? "recover.spare_promotions" : "recover.shrinks");
  }

  // The restore itself is a priced collective over the survivors; it goes
  // last so a second due kill fires with this recovery's state already
  // consistent.
  const double seconds = restore_seconds(restore_bytes);
  rec_.recovery_seconds += detect_seconds + seconds;
  if (obs::MetricsRegistry* m = cluster.metrics()) {
    m->histogram("recover.recovery_seconds").observe(detect_seconds + seconds);
  }
  if (auto next =
          restore_collective("recover-restore", seconds, restore_bytes)) {
    return next;
  }
  if (obs::FlightRecorder* flight = cluster.flight()) {
    flight
        ->append("recover", spare ? "spare-promote" : "shrink-rebuild",
                 cluster.clocks().max_now(), dead.rank(),
                 ckpt.levels_completed)
        .set("replayed_levels", static_cast<double>(lost_levels))
        .set("restore_bytes", static_cast<double>(restore_bytes))
        .set("restore_seconds", detect_seconds + seconds);
  }
  return std::nullopt;
}

/// Recover from a failed audit: roll back to the newest clean snapshot
/// (implicit level-0 fallback = replay from the source) and leave the
/// loop positioned to replay. The priced restore goes last, as in
/// recover_from; a kill due there is returned to drive() to recover.
std::optional<simmpi::RankFailedError> LevelLoop::rollback_from(
    const simmpi::AuditFailedError& bad, BfsOutput& out) {
  if (!store_.armed()) throw bad;
  // Runaway guard: a shadow-bookkeeping bug would otherwise loop
  // rollback→replay→fail forever. Real injected flips are consumed on
  // first application, so legitimate runs never get near this.
  if (sdc_.rollbacks >= 32) throw bad;
  const int completed = static_cast<int>(out.report.levels.size());
  const recover::Checkpoint& ckpt = store_.newest_clean(source_);
  const int lost_levels = completed - ckpt.levels_completed;
  store_.rollback_to(ckpt);
  restore_state(ckpt, out);
  ++sdc_.rollbacks;
  sdc_.replayed_levels += lost_levels;
  if (obs::MetricsRegistry* m = cluster.metrics()) {
    ++m->counter("sdc.rollbacks");
    m->counter("sdc.replayed_levels") += lost_levels;
  }
  const std::uint64_t restore_bytes = recover::restore_payload_bytes(ckpt);
  const double seconds = restore_seconds(restore_bytes);
  sdc_.rollback_seconds += seconds;
  if (auto next = restore_collective("sdc-rollback", seconds, restore_bytes)) {
    return next;
  }
  if (obs::FlightRecorder* flight = cluster.flight()) {
    flight
        ->append("recover", "sdc-rollback", cluster.clocks().max_now(),
                 bad.rank(), ckpt.levels_completed)
        .set("replayed_levels", static_cast<double>(lost_levels))
        .set("restore_bytes", static_cast<double>(restore_bytes))
        .set("restore_seconds", seconds);
  }
  return std::nullopt;
}

std::vector<VertexRange> LevelLoop::per_rank(
    VertexRange (LevelLoop::*hook)(int) const) const {
  std::vector<VertexRange> ranges(static_cast<std::size_t>(ranks()));
  for (int r = 0; r < ranks(); ++r) {
    ranges[static_cast<std::size_t>(r)] = (this->*hook)(r);
  }
  return ranges;
}

/// Consume and apply every scheduled flip that is due after `completed`
/// levels (the simulated hardware fault firing between two barriers).
void LevelLoop::inject_due_flips(BfsOutput& out, int completed) {
  for (const simmpi::MemFlip& flip : cluster.take_due_flips(completed)) {
    if (!apply_flip(flip, out)) continue;
    ++sdc_.flips_injected;
    if (obs::MetricsRegistry* m = cluster.metrics()) {
      ++m->counter("sdc.flips_injected");
    }
    if (obs::FlightRecorder* flight = cluster.flight()) {
      flight
          ->append("fault", "mem-flip", cluster.clocks().max_now(), flip.rank,
                   cluster.current_level())
          .set("target", static_cast<double>(static_cast<int>(flip.target)))
          .set("at_level", static_cast<double>(flip.at_level));
    }
  }
}

/// Apply one deterministic at-rest corruption event to the live state;
/// returns whether anything was damaged. The victim entry and the flipped
/// bit are drawn from the plan's flip_shape so a rollback-replay
/// re-injects the exact same damage (and the audit catches it the exact
/// same way) — mirrors the in-flight corrupt_buffer idiom in
/// simmpi/comm.cpp.
bool LevelLoop::apply_flip(const simmpi::MemFlip& flip, BfsOutput& out) {
  if (flip.rank < 0 || flip.rank >= ranks()) return false;
  const std::uint64_t shape = cluster.faults().flip_shape(flip);
  const auto flip_bit = [shape](auto& slot) {
    const std::size_t byte = (shape >> 40) % sizeof(slot);
    reinterpret_cast<unsigned char*>(&slot)[byte] ^=
        static_cast<unsigned char>(1u << ((shape >> 50) % 8));
  };
  const auto visited = [&out](vid_t v) {
    return out.level[static_cast<std::size_t>(v)] != kUnreached;
  };
  // The k-th vertex of `range` (k drawn from the shape) among those
  // `eligible` admits, or -1 when none does.
  const auto pick = [&](VertexRange range, const auto& eligible) -> vid_t {
    vid_t count = 0;
    for (vid_t v = range.begin; v < range.end; ++v) {
      count += eligible(v) ? 1 : 0;
    }
    if (count == 0) return -1;
    vid_t k = static_cast<vid_t>((shape >> 16) %
                                 static_cast<std::uint64_t>(count));
    for (vid_t v = range.begin; v < range.end; ++v) {
      if (eligible(v) && k-- == 0) return v;
    }
    return -1;
  };
  switch (flip.target) {
    case simmpi::FlipTarget::kParents:
    case simmpi::FlipTarget::kLevels: {
      // One bit of the parent (or level) entry of a visited vertex in the
      // victim rank's shard.
      const vid_t victim = pick(shard_range(flip.rank), visited);
      if (victim < 0) return false;
      const auto i = static_cast<std::size_t>(victim);
      if (flip.target == simmpi::FlipTarget::kParents) {
        flip_bit(out.parent[i]);
      } else {
        flip_bit(out.level[i]);
      }
      return true;
    }
    case simmpi::FlipTarget::kVisited: {
      // A spurious bit in the victim rank's sender-side sieve — the bitmap
      // corruption that can change the answer (it would suppress future
      // sends of an unvisited vertex). corrupt() bypasses the sieve's mark
      // checksum, so the auditor detects it even after the victim vertex
      // is legitimately visited.
      comm::Sieve* sieve = sieve_in_use();
      if (sieve == nullptr || !sieve->active()) return false;
      const vid_t victim = pick(VertexRange{0, n}, [&](vid_t v) {
        return !visited(v) && !sieve->test(flip.rank, v);
      });
      if (victim < 0) return false;
      sieve->corrupt(flip.rank, victim);
      return true;
    }
    case simmpi::FlipTarget::kDirop: {
      // One low bit of the live m_u ledger; the replica keeps the true
      // value, so the next audit's dirop-state comparison catches the
      // drift. A no-op for engines carrying no heuristic state.
      DiropState* d = dirop();
      if (d == nullptr) return false;
      d->m_u ^= static_cast<eid_t>(1) << ((shape >> 50) % 8);
      return true;
    }
    case simmpi::FlipTarget::kCheckpoint:
      return store_.corrupt_latest(shape);
  }
  return false;
}

/// One audit barrier: scrub the checkpoint store (rejecting replicas whose
/// content checksum no longer matches), then run the priced ABFT state
/// audit. Throws AuditFailedError on any detected corruption.
void LevelLoop::audit_now(const BfsOutput& out) {
  if (store_.armed()) {
    const int rejected = store_.scrub();
    if (rejected > 0) {
      sdc_.checkpoints_rejected += rejected;
      if (obs::MetricsRegistry* m = cluster.metrics()) {
        m->counter("sdc.checkpoints_rejected") += rejected;
      }
    }
  }
  SdcAuditInputs in;
  in.parent = out.parent;
  in.level = out.level;
  in.shadow = &shadow;
  const std::vector<VertexRange> shards = per_rank(&LevelLoop::shard_range);
  in.shards = shards;
  in.source = source_;
  in.sieve = sieve_in_use();
  std::array<std::uint64_t, 3> live{};
  if (const DiropState* d = dirop()) {
    live = d->live();
    in.dirop_state = live;
    in.dirop_shadow = d->replica;
  }
  ++sdc_.audits;
  try {
    sdc_.audit_seconds += run_sdc_audit(cluster, world, in).audit_seconds;
  } catch (const simmpi::AuditFailedError&) {
    ++sdc_.audit_failures;
    throw;
  }
}

}  // namespace dbfs::bfs
