#include "bfs/audit.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "comm/sieve.hpp"
#include "model/cost.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"
#include "util/prng.hpp"

namespace dbfs::bfs {

std::uint64_t sdc_entry_hash(vid_t v, vid_t parent, level_t level) noexcept {
  std::uint64_t h = 0x41424654ULL;  // "ABFT"
  h = util::mix64(h ^ static_cast<std::uint64_t>(v));
  h = util::mix64(h ^ static_cast<std::uint64_t>(parent));
  h = util::mix64(h ^ static_cast<std::uint64_t>(level));
  return h;
}

void SdcShadow::reset(int shards) {
  sums_.assign(static_cast<std::size_t>(shards), 0);
}

void SdcShadow::rebuild(std::span<const vid_t> parent,
                        std::span<const level_t> level,
                        std::span<const VertexRange> shards) {
  for (std::size_t s = 0; s < shards.size(); ++s) {
    std::uint64_t sum = 0;
    for (vid_t v = shards[s].begin; v < shards[s].end; ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (level[i] != kUnreached) sum += sdc_entry_hash(v, parent[i], level[i]);
    }
    sums_[s] = sum;
  }
}

SdcAuditResult run_sdc_audit(simmpi::Cluster& cluster,
                             std::span<const int> world,
                             const SdcAuditInputs& in, const char* site) {
  const std::size_t g = world.size();
  const std::size_t n = in.level.size();

  // Per-shard recomputation: shard sums from the live arrays, visited
  // counts for the cost model, and the cheap per-vertex invariants. The
  // first offender found names the failed check and its witness vertex.
  std::vector<std::uint64_t> recomputed(g, 0);
  std::vector<std::int64_t> owned(g, 0);
  std::vector<std::int64_t> visited(g, 0);
  std::vector<std::int64_t> mismatches(g, 0);
  const char* first_check = nullptr;
  int first_rank = -1;
  std::int64_t first_vertex = -1;
  const auto flag = [&](std::size_t shard, const char* check,
                        std::int64_t vertex) {
    ++mismatches[shard];
    if (first_check == nullptr) {
      first_check = check;
      first_rank = world[shard];
      first_vertex = vertex;
    }
  };

  // Shards in ascending vertex order (rank order need not be vertex
  // order), so the first witness is the lowest offending vertex.
  std::vector<std::size_t> order(g);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return in.shards[a].begin < in.shards[b].begin;
  });
  for (const std::size_t shard : order) {
    const VertexRange range = in.shards[shard];
    owned[shard] = range.size();
    for (vid_t gv = range.begin; gv < range.end; ++gv) {
      const auto v = static_cast<std::size_t>(gv);
      const level_t lv = in.level[v];
      const vid_t pv = in.parent[v];
      if (lv == kUnreached) {
        if (pv != kNoVertex) flag(shard, "unreached-with-parent", gv);
        continue;
      }
      ++visited[shard];
      recomputed[shard] += sdc_entry_hash(gv, pv, lv);
      if (gv == in.source) {
        if (pv != gv || lv != 0) flag(shard, "tree-property", gv);
        continue;
      }
      if (pv < 0 || static_cast<std::size_t>(pv) >= n ||
          in.level[static_cast<std::size_t>(pv)] != lv - 1) {
        flag(shard, "tree-property", gv);
      }
    }
  }

  // Shard checksums vs the write-time shadows: the guaranteed detector —
  // any at-rest change to a (parent, level) entry shifts the wrapping
  // sum, whether or not it broke a tree property.
  for (std::size_t ri = 0; ri < g; ++ri) {
    if (recomputed[ri] != in.shadow->sum(static_cast<int>(ri))) {
      flag(ri, "shard-checksum", -1);
    }
  }

  // Sender-side sieve, two detectors per rank bitmap: the write-time
  // mark checksum (guaranteed — an at-rest bit flip bypasses the running
  // sum, so recomputing it from the words always disagrees), and the
  // structural marked ⊆ visited rule (names a witness vertex while the
  // spurious bit is still suppressing sends of an unvisited target).
  std::uint64_t sieve_words = 0;
  if (in.sieve != nullptr && in.sieve->active()) {
    sieve_words = (static_cast<std::uint64_t>(n) + 63) / 64;
    for (std::size_t ri = 0; ri < g; ++ri) {
      std::uint64_t recomputed_marks = 0;
      std::int64_t witness = -1;
      in.sieve->for_each_marked(world[ri], [&](vid_t v) {
        recomputed_marks += comm::Sieve::mark_hash(v);
        if (static_cast<std::size_t>(v) >= n ||
            in.level[static_cast<std::size_t>(v)] == kUnreached) {
          if (witness < 0) witness = static_cast<std::int64_t>(v);
          flag(ri, "visited-superset", static_cast<std::int64_t>(v));
        }
      });
      if (in.sieve->checksums() &&
          recomputed_marks != in.sieve->sum(world[ri])) {
        flag(ri, "sieve-checksum", witness);
      }
    }
  }

  // Direction-heuristic scalars vs their shadow copies (2D hybrid). The
  // state is logically replicated, so drift is charged to the diagonal.
  for (std::size_t i = 0;
       i < in.dirop_state.size() && i < in.dirop_shadow.size(); ++i) {
    if (in.dirop_state[i] != in.dirop_shadow[i]) {
      flag(0, "dirop-state", -1);
    }
  }

  // Price the scans, then agree on the verdict with one checked-size
  // allreduce so every rank reaches the same conclusion at the same
  // barrier — the cross-rank agreement step of the ABFT scheme.
  const double before = cluster.clocks().max_now();
  cluster.set_compute_phase("sdc-audit");
  for (std::size_t ri = 0; ri < g; ++ri) {
    model::WorkAudit w;
    w.shard_vertices = static_cast<vid_t>(owned[ri]);
    w.visited_vertices = static_cast<vid_t>(visited[ri]);
    w.sieve_words = sieve_words;
    w.n_global = static_cast<vid_t>(n);
    w.threads = cluster.threads_per_rank();
    cluster.charge_compute(world[ri], model::cost_sdc_audit(cluster.machine(), w));
  }
  const std::int64_t total = simmpi::allreduce_sum<std::int64_t>(
      cluster, world, mismatches, site);

  SdcAuditResult result;
  result.mismatches = total;
  result.audit_seconds = cluster.clocks().max_now() - before;

  if (obs::MetricsRegistry* m = cluster.metrics()) {
    ++m->counter("sdc.audits");
    m->histogram("sdc.audit_seconds").observe(result.audit_seconds);
    if (total != 0) ++m->counter("sdc.audit_failures");
  }
  if (obs::FlightRecorder* flight = cluster.flight()) {
    flight
        ->append("audit", site, cluster.clocks().max_now(), first_rank,
                 cluster.current_level())
        .set("mismatches", static_cast<double>(total))
        .set("audit_seconds", result.audit_seconds)
        .set("shards", static_cast<double>(g));
  }
  if (total != 0) {
    throw simmpi::AuditFailedError(
        site, first_check != nullptr ? first_check : "shard-checksum",
        first_rank, cluster.current_level(), first_vertex,
        cluster.clocks().max_now());
  }
  return result;
}

}  // namespace dbfs::bfs
