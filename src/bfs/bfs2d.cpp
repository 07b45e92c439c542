#include "bfs/bfs2d.hpp"

#include <algorithm>
#include <span>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "bfs/frontier.hpp"
#include "bfs/level_loop.hpp"
#include "comm/sieve.hpp"
#include "dist/partition2d.hpp"
#include "model/cost.hpp"
#include "obs/comm_atlas.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"
#include "sparse/semirings.hpp"

namespace dbfs::bfs {

struct Bfs2D::Impl final : LevelLoop {
  Bfs2DOptions opts;
  simmpi::ProcessGrid grid;
  dist::Partition2D part;
  dist::VectorDist vdist;
  std::vector<sparse::Spa<vid_t>> spa;  // per-rank persistent workspace
  // Hybrid mode: each rank's block split row-wise into t thread-local
  // DCSC pieces, exactly as the paper's Fig 2 describes. The simulator
  // executes the pieces sequentially (threading is priced by the model),
  // but the data structure and merge path are the real ones.
  std::vector<std::vector<sparse::DcscMatrix>> thread_pieces;
  // Sender-side visited sieve for the fold exchanges (kRaw leaves every
  // exchange on the legacy path).
  comm::Sieve sieve;
  /// Bitmap dedup scratch shared by the fold's sender blocks and the
  /// owners' merges (both run host-sequentially).
  comm::DedupScratch dedup_scratch;
  /// Retained only while shrink recovery is armed: re-folding the grid
  /// needs the original edges to rebuild the checkerboard partition.
  graph::EdgeList edges_keep;

  /// Direction optimization (opts.direction != kTopDown). `deg` holds
  /// per-vertex stored-nonzero counts summed over the blocks — exactly
  /// the adjacencies top-down would scan for that vertex — so the m_f
  /// allreduce and the m_u ledger below price the same work the engine
  /// actually does. Degrees are partition-independent, so a shrink
  /// rebuild keeps them as-is. The heuristic's carried state lives in
  /// `dirop_`, which the level loop checkpoints, restores and audits.
  std::vector<eid_t> deg;
  DiropState dirop_;
  double dirop_alpha_eff = 0.0;  ///< resolved threshold (option or model)
  double dirop_beta_eff = 0.0;

  /// Sieved/compressed fold round over one processor row: filter each
  /// (sender, destination) block through the sender's sieve, encode per
  /// opts.wire_format, ship the bytes through the same checked alltoallv
  /// (metered and checksummed post-compression), decode per receiver.
  /// Codec passes are priced at beta_local via model::cost_wire_codec.
  std::vector<std::vector<Candidate>> wire_fold(
      std::span<const int> row_group, simmpi::FlatExchange<Candidate> send,
      WireTally& wl) {
    const std::size_t s = row_group.size();
    const int t = opts.threads_per_rank;
    auto wire = simmpi::FlatExchange<std::uint8_t>::sized(s);
    std::vector<double> codec_costs(s, 0.0);
    for (std::size_t gj = 0; gj < s; ++gj) {
      comm::WireStats rank_stats;
      std::size_t offset = 0;
      for (std::size_t gk = 0; gk < s; ++gk) {
        const auto c = static_cast<std::size_t>(send.counts[gj][gk]);
        const std::span<Candidate> block(send.data[gj].data() + offset, c);
        offset += c;
        wl.pre_bytes += c * sizeof(Candidate);
        // 2D owners combine duplicates by max parent, which is the
        // duplicate the in-place dedup keeps.
        const std::size_t kept =
            comm::sieve_and_dedup(sieve, row_group[gj], block, dedup_scratch);
        wl.dropped += c - kept;
        const std::size_t at = wire.data[gj].size();
        comm::encode_candidates<Candidate>(block.first(kept),
                                           opts.wire_format, wire.data[gj],
                                           &rank_stats);
        wire.counts[gj][gk] =
            static_cast<std::int64_t>(wire.data[gj].size() - at);
      }
      codec_costs[gj] = model::cost_wire_codec(
          cluster.machine(), static_cast<std::size_t>(rank_stats.raw_bytes),
          static_cast<std::size_t>(rank_stats.encoded_bytes), t);
      wl.stats.merge(rank_stats);
    }
    cluster.set_compute_phase("wire-encode");
    charge_smoothed(row_group, codec_costs);

    auto recv_wire = simmpi::checked_alltoallv(cluster, row_group,
                                               std::move(wire), "2d-fold");

    std::vector<std::vector<Candidate>> recv(s);
    for (std::size_t gk = 0; gk < s; ++gk) {
      comm::decode_candidate_stream<Candidate>(recv_wire.data[gk].data(),
                                               recv_wire.data[gk].size(),
                                               recv[gk]);
      codec_costs[gk] = model::cost_wire_codec(
          cluster.machine(), recv[gk].size() * sizeof(Candidate),
          recv_wire.data[gk].size(), t);
    }
    cluster.set_compute_phase("wire-decode");
    charge_smoothed(row_group, codec_costs);
    return recv;
  }

  /// Compressed expand round over one processor column: each rank's
  /// sorted frontier piece ships as an encoded block; the concatenation
  /// of blocks decodes back to f_{C_j} in the same order the raw
  /// allgatherv would produce. (The sieve does not apply here — the
  /// expand payload is the deduplicated new frontier by construction.)
  std::vector<vid_t> wire_expand(std::span<const int> col_group,
                                 std::vector<std::vector<vid_t>> pieces,
                                 WireTally& wl) {
    const std::size_t g = col_group.size();
    const int t = opts.threads_per_rank;
    std::vector<std::vector<std::uint8_t>> enc(g);
    std::vector<double> codec_costs(g, 0.0);
    for (std::size_t i = 0; i < g; ++i) {
      comm::WireStats piece_stats;
      wl.pre_bytes += pieces[i].size() * sizeof(vid_t);
      comm::encode_vertex_list(pieces[i], opts.wire_format, enc[i],
                               &piece_stats);
      codec_costs[i] = model::cost_wire_codec(
          cluster.machine(), static_cast<std::size_t>(piece_stats.raw_bytes),
          static_cast<std::size_t>(piece_stats.encoded_bytes), t);
      wl.stats.merge(piece_stats);
    }
    cluster.set_compute_phase("wire-encode");
    charge_smoothed(col_group, codec_costs);

    auto bytes = simmpi::checked_allgatherv(cluster, col_group,
                                            std::move(enc), "2d-expand",
                                            opts.allgather_algo);

    std::vector<vid_t> gathered;
    comm::decode_vertex_stream(bytes.data(), bytes.size(), gathered);
    // Every rank in the column decodes the same concatenated result.
    const double decode_cost = model::cost_wire_codec(
        cluster.machine(), gathered.size() * sizeof(vid_t), bytes.size(), t);
    std::fill(codec_costs.begin(), codec_costs.end(), decode_cost);
    cluster.set_compute_phase("wire-decode");
    charge_smoothed(col_group, codec_costs);
    return gathered;
  }

  Impl(const graph::EdgeList& edges, vid_t num_vertices, Bfs2DOptions options)
      : LevelLoop(options, num_vertices,
                  simmpi::ProcessGrid::closest_square(options.cores,
                                                      options.threads_per_rank)
                      .ranks(),
                  "2d-level"),
        opts(std::move(options)),
        grid(simmpi::ProcessGrid::closest_square(opts.cores,
                                                 opts.threads_per_rank)),
        part(edges, num_vertices, grid, opts.triangular_storage),
        vdist(num_vertices, grid, opts.vector_dist),
        spa(static_cast<std::size_t>(grid.ranks())) {
    // The pr×pc grid lets the atlas classify expand/fold bytes as
    // row/column-subcommunicator traffic (the 2D locality split).
    if (cluster.atlas() != nullptr) {
      cluster.atlas()->set_grid(grid.pr(), grid.pc());
    }
    if (!opts.faults.rank_kills.empty() &&
        opts.recover.policy == recover::Policy::kShrink) {
      edges_keep = edges;
    }
    rebuild_thread_pieces();
    if (opts.direction != DirectionMode::kTopDown) build_degrees();
  }

  /// Per-vertex stored-nonzero counts, summed over the blocks (duplicates
  /// and self-loops already resolved by the partitioner, so this matches
  /// the SpMSV flop accounting exactly).
  void build_degrees() {
    deg.assign(static_cast<std::size_t>(n), 0);
    const auto& bl = part.blocks();
    for (int r = 0; r < grid.ranks(); ++r) {
      const vid_t col_base = bl.begin(grid.col_of(r));
      const auto& a = part.block(r);
      for (vid_t k = 0; k < a.nzc(); ++k) {
        deg[static_cast<std::size_t>(col_base + a.nonzero_column_id(k))] +=
            static_cast<eid_t>(a.nonzero_column(k).size());
      }
    }
  }

  void rebuild_thread_pieces() {
    if (opts.threads_per_rank <= 1) return;
    thread_pieces.assign(static_cast<std::size_t>(grid.ranks()), {});
    for (int r = 0; r < grid.ranks(); ++r) {
      thread_pieces[static_cast<std::size_t>(r)] =
          part.block(r).split_rowwise(opts.threads_per_rank);
    }
  }

  bool wire_fold_on() const {
    return opts.vector_dist != dist::VectorDistKind::kDiagonal &&
           comm::wire_sieves(opts.wire_format);
  }

  int owner(vid_t v) const override { return vdist.owner_rank(v); }
  comm::Sieve* sieve_in_use() override {
    return wire_fold_on() ? &sieve : nullptr;
  }
  VertexRange shard_range(int rank) const override {
    return vdist.piece(grid.row_of(rank), grid.col_of(rank));
  }
  /// Rank (i, j) folds only into R_i and merges only its piece of R_i.
  VertexRange sieve_window(int rank) const override {
    return vdist.row_blocks().range(grid.row_of(rank));
  }
  DiropState* dirop() override {
    return opts.direction != DirectionMode::kTopDown ? &dirop_ : nullptr;
  }
  /// Fold to the largest square grid fitting in the surviving ranks (the
  /// transpose exchanges require a square grid, so a single death can
  /// retire a whole grid remainder, e.g. 4x4 -> 3x3) and rebuild the
  /// checkerboard partition and everything shaped by it.
  int shrink() override {
    const int t = opts.threads_per_rank;
    grid = simmpi::ProcessGrid::closest_square((grid.ranks() - 1) * t, t);
    opts.cores = grid.ranks() * t;
    part = dist::Partition2D(edges_keep, n, grid, opts.triangular_storage);
    vdist = dist::VectorDist(n, grid, opts.vector_dist);
    spa.assign(static_cast<std::size_t>(grid.ranks()), {});
    rebuild_thread_pieces();
    if (cluster.atlas() != nullptr) {
      cluster.atlas()->set_grid(grid.pr(), grid.pc());
    }
    return grid.ranks();
  }

  /// One bottom-up level's exchanges and local scan (the direction-
  /// optimized pull step): row-group frontier/visited allgather, pairwise
  /// completeness swap, early-exit probe scan over the stored blocks.
  /// Discovered parents land in `mirrored` — the transpose partner's row
  /// range — so the shared fold path finishes the level unchanged.
  void bottom_up_level(const BfsOutput& out,
                       std::vector<std::vector<Candidate>>& mirrored,
                       std::vector<eid_t>& flops, WireTally& wl);

  /// One level of Algorithm 3 (or its bottom-up pull variant), through
  /// the level-sync.
  void run_level(BfsOutput& out, LevelStats& stats) override;
};

const char* to_string(DirectionMode mode) {
  switch (mode) {
    case DirectionMode::kTopDown:
      return "topdown";
    case DirectionMode::kBottomUp:
      return "bottomup";
    case DirectionMode::kHybrid:
      return "hybrid";
  }
  return "?";
}

DirectionMode parse_direction_mode(const std::string& name) {
  if (name == "topdown") return DirectionMode::kTopDown;
  if (name == "bottomup") return DirectionMode::kBottomUp;
  if (name == "hybrid") return DirectionMode::kHybrid;
  throw std::invalid_argument("unknown direction mode: " + name);
}

Bfs2D::Bfs2D(const graph::EdgeList& edges, vid_t n, Bfs2DOptions opts)
    : impl_(std::make_unique<Impl>(edges, n, std::move(opts))) {
  if (n < 1) throw std::invalid_argument("Bfs2D: empty graph");
  if (impl_->opts.triangular_storage &&
      impl_->opts.vector_dist == dist::VectorDistKind::kDiagonal) {
    throw std::invalid_argument(
        "Bfs2D: triangular storage requires the 2D vector distribution");
  }
  if (impl_->opts.direction != DirectionMode::kTopDown) {
    // The bottom-up probe scan needs every stored adjacency direction in
    // the blocks (the wedge alone cannot answer "does any frontier vertex
    // neighbor me"), and the diagonal baseline exists only to reproduce
    // the Fig 4 bottleneck on the legacy path.
    if (impl_->opts.triangular_storage) {
      throw std::invalid_argument(
          "Bfs2D: direction optimization requires full (non-triangular) "
          "storage");
    }
    if (impl_->opts.vector_dist == dist::VectorDistKind::kDiagonal) {
      throw std::invalid_argument(
          "Bfs2D: direction optimization requires a non-diagonal vector "
          "distribution");
    }
  }
}

Bfs2D::~Bfs2D() = default;

const simmpi::ProcessGrid& Bfs2D::grid() const { return impl_->grid; }

int Bfs2D::cores_used() const {
  return impl_->grid.ranks() * impl_->opts.threads_per_rank;
}

BfsOutput Bfs2D::run(vid_t source) {
  Impl& im = *impl_;
  if (source < 0 || source >= im.n) {
    throw std::out_of_range("Bfs2D: source out of range");
  }
  const bool diagonal =
      im.opts.vector_dist == dist::VectorDistKind::kDiagonal;
  BfsOutput out;
  out.report.algorithm =
      std::string(im.opts.label) +
      (im.opts.threads_per_rank > 1 ? "-hybrid" : "-flat") +
      (diagonal ? "-diagvec" : "") +
      (im.opts.triangular_storage ? "-tri" : "") +
      (im.opts.direction == DirectionMode::kHybrid ? "-dirop" : "") +
      (im.opts.direction == DirectionMode::kBottomUp ? "-bottomup" : "");

  const bool dirop_on = im.opts.direction != DirectionMode::kTopDown;
  if (dirop_on) {
    im.dirop_alpha_eff = im.opts.alpha > 0.0
                             ? im.opts.alpha
                             : model::dirop_alpha(im.cluster.machine());
    im.dirop_beta_eff = im.opts.beta > 0.0
                            ? im.opts.beta
                            : model::dirop_beta(im.cluster.machine());
    im.dirop_.start_m_u = im.part.total_nnz();
    im.dirop_.start_m_f = im.deg[static_cast<std::size_t>(source)];
    out.report.dirop.enabled = true;
    out.report.dirop.mode = to_string(im.opts.direction);
    out.report.dirop.alpha = im.dirop_alpha_eff;
    out.report.dirop.beta = im.dirop_beta_eff;
  }

  im.run(source, out);

  if (dirop_on) {
    // Tally from the surviving per-level stats (recovery rollbacks trim
    // report.levels, so replayed windows are counted exactly once here;
    // the wire-byte fields follow the traffic meter's keep-everything
    // convention instead and accumulate during the levels).
    DiropReport& d = out.report.dirop;
    bool prev = false;
    for (const LevelStats& l : out.report.levels) {
      if (l.bottom_up) {
        ++d.bottom_up_levels;
        d.bottom_up_edges += l.edges_scanned;
      } else {
        ++d.top_down_levels;
        d.top_down_edges += l.edges_scanned;
      }
      if (l.level > 0 && l.bottom_up != prev) ++d.switches;
      prev = l.bottom_up;
    }
  }
  return out;
}

void Bfs2D::Impl::run_level(BfsOutput& out, LevelStats& stats) {
  // Grid-shaped locals are re-derived every level: a shrink recovery
  // replaces the grid, partition, and cluster between levels.
  Impl& im = *this;
  const int s = im.grid.pr();
  const int p = im.grid.ranks();
  const int t = im.opts.threads_per_rank;
  const bool diagonal =
      im.opts.vector_dist == dist::VectorDistKind::kDiagonal;
  const auto& blocks = im.part.blocks();

  // The diagonal-vector baseline keeps its legacy broadcast/gatherv path
  // (it exists to reproduce Fig 4's bottleneck, not to be optimized).
  const bool wire_fold_on = im.wire_fold_on();
  const bool wire_expand_on =
      !diagonal && comm::wire_compresses(im.opts.wire_format);
  const bool dirop_on = im.opts.direction != DirectionMode::kTopDown;

  auto& traffic = im.cluster.traffic();
  const auto ag_before =
      traffic.totals(simmpi::Pattern::kAllgatherv).bytes +
      traffic.totals(simmpi::Pattern::kBroadcast).bytes;
  const auto a2a_before =
      traffic.totals(simmpi::Pattern::kAlltoallv).bytes +
      traffic.totals(simmpi::Pattern::kGatherv).bytes;
  const auto tr_before = traffic.totals(simmpi::Pattern::kTranspose).bytes;

  // ---- Direction decision (Beamer's alpha-beta rule, priced per the
  // machine model's thresholds when none were given). Every input is
  // globally identical: global_frontier comes from the "level-sync"
  // allreduce, m_f from the "dirop-sync" allreduce of the owners'
  // degree sums below, and m_u from the same subtraction replayed on
  // every rank — so all ranks evaluate the same predicate and switch
  // in lockstep, and a recovery replay (which restores m_u and the
  // previous direction from the checkpoint) re-takes the same branch.
  bool bottom_up = false;
  if (dirop_on) {
    std::vector<std::int64_t> contrib(static_cast<std::size_t>(p), 0);
    for (int r = 0; r < p; ++r) {
      for (vid_t v : fs[static_cast<std::size_t>(r)]) {
        contrib[static_cast<std::size_t>(r)] += static_cast<std::int64_t>(
            im.deg[static_cast<std::size_t>(v)]);
      }
    }
    im.dirop_.m_f = static_cast<eid_t>(simmpi::allreduce_sum<std::int64_t>(
        im.cluster, im.world, contrib, "dirop-sync"));

    DiropRationale rationale = DiropRationale::kTopDownStay;
    if (im.opts.direction == DirectionMode::kBottomUp) {
      bottom_up = true;
      rationale = DiropRationale::kForced;
    } else {
      // Engage only when the frontier is both edge-heavy and broad; a
      // narrow frontier late in the traversal can trip the edge ratio
      // while bottom-up would still probe every unvisited vertex.
      const bool broad = static_cast<double>(global_frontier) >=
                         static_cast<double>(n) / im.dirop_beta_eff;
      if (!im.dirop_.bottom_up && broad &&
          static_cast<double>(im.dirop_.m_f) >
              static_cast<double>(im.dirop_.m_u) / im.dirop_alpha_eff) {
        bottom_up = true;
        rationale = DiropRationale::kEngage;
      } else if (im.dirop_.bottom_up && !broad) {
        rationale = DiropRationale::kDisengage;
      } else if (im.dirop_.bottom_up) {
        bottom_up = true;
        rationale = DiropRationale::kBottomUpStay;
      }
    }
    stats.bottom_up = bottom_up;
    stats.frontier_edges = im.dirop_.m_f;
    stats.unexplored_edges = im.dirop_.m_u;
    stats.dirop_rationale = static_cast<int>(rationale);
    im.dirop_.bottom_up = bottom_up;
    im.dirop_.m_u -= std::min(im.dirop_.m_u, im.dirop_.m_f);
    if (im.sdc_on) {
      // The replica applies the same operations on its own ledger
      // (never copying the live m_u), so an at-rest flip of the live
      // scalar keeps the two apart for the next audit to catch.
      im.dirop_.replica[1] = static_cast<std::uint64_t>(im.dirop_.m_f);
      im.dirop_.replica[2] = bottom_up ? 1 : 0;
      im.dirop_.replica[0] -=
          std::min(im.dirop_.replica[0], im.dirop_.replica[1]);
    }
    if (im.opts.flight != nullptr) {
      im.opts.flight
          ->append("dirop", to_string(rationale),
                   im.cluster.clocks().max_now(), -1,
                   static_cast<int>(stats.level))
          .set("frontier", static_cast<double>(global_frontier))
          .set("frontier_edges", static_cast<double>(stats.frontier_edges))
          .set("unexplored_edges",
               static_cast<double>(stats.unexplored_edges))
          .set("bottom_up", bottom_up ? 1.0 : 0.0);
    }
  }

  // ---- Expand / local step. A bottom-up level replaces the expand
  // and the forward SpMSV with the pull formulation; its discovered
  // parents land in `mirrored` and ride the shared fold path below.
  WireTally wire_level;
  std::vector<sparse::SparseVector<vid_t>> partials(
      static_cast<std::size_t>(p));
  std::vector<double> spmsv_costs(static_cast<std::size_t>(p), 0.0);
  std::vector<eid_t> flops(static_cast<std::size_t>(p), 0);
  std::vector<std::int64_t> spa_calls(static_cast<std::size_t>(p), 0);
  std::vector<std::int64_t> heap_calls(static_cast<std::size_t>(p), 0);
  std::vector<std::vector<Candidate>> mirrored(static_cast<std::size_t>(p));
  std::vector<std::vector<vid_t>> gathered(static_cast<std::size_t>(s));
  if (bottom_up) {
    im.bottom_up_level(out, mirrored, flops, wire_level);
  } else if (!diagonal) {
    // TransposeVector (line 5), then Allgatherv over columns (line 6).
    auto transposed =
        simmpi::transpose_exchange(im.cluster, im.grid, std::move(fs));
    for (int j = 0; j < s; ++j) {
      std::vector<std::vector<vid_t>> pieces;
      pieces.reserve(static_cast<std::size_t>(s));
      for (int i = 0; i < s; ++i) {
        // After the transpose, P(i,j) holds sub-piece i of range R_j;
        // concatenating in i order yields f_{C_j} sorted.
        pieces.push_back(std::move(
            transposed[static_cast<std::size_t>(im.grid.rank_of(i, j))]));
      }
      // Checksum-verified when the fault plan corrupts payloads: a
      // mangled frontier piece is detected and re-gathered before any
      // rank consumes it.
      gathered[static_cast<std::size_t>(j)] =
          wire_expand_on
              ? im.wire_expand(im.grid.col_group(j), std::move(pieces),
                               wire_level)
              : simmpi::checked_allgatherv(
                    im.cluster, im.grid.col_group(j), std::move(pieces),
                    "2d-expand", im.opts.allgather_algo);
    }
    fs.assign(static_cast<std::size_t>(p), {});
  } else {
    // Diagonal distribution: P(j,j) owns all of R_j; broadcast it down
    // processor column j.
    for (int j = 0; j < s; ++j) {
      gathered[static_cast<std::size_t>(j)] = simmpi::broadcast(
          im.cluster, im.grid.col_group(j), static_cast<std::size_t>(j),
          fs[static_cast<std::size_t>(im.grid.rank_of(j, j))],
          "2d-expand");
    }
    for (auto& piece : fs) piece.clear();
  }

  // ---- Local SpMSV (line 7): t_i = A_ij ⊗ f_{C_j} on (select, max).
  // Skipped wholesale on bottom-up levels: running it on the empty
  // gathered frontier would still pay thread barriers and skew the
  // spmsv.* back-end counters.
  if (!bottom_up) {
    // x = f_{C_j} as a block-local sparse vector, built once per
    // processor column: every rank of the column multiplies by the same
    // x and only reads it.
    std::vector<sparse::SparseVector<vid_t>> xs(static_cast<std::size_t>(s));
    for (int j = 0; j < s; ++j) {
      const vid_t col_base = blocks.begin(j);
      const auto& column_frontier = gathered[static_cast<std::size_t>(j)];
      std::vector<sparse::SvEntry<vid_t>> x_entries;
      x_entries.reserve(column_frontier.size());
      for (vid_t gv : column_frontier) {
        x_entries.push_back(sparse::SvEntry<vid_t>{gv - col_base, gv});
      }
      xs[static_cast<std::size_t>(j)] =
          sparse::SparseVector<vid_t>::from_sorted(blocks.size(j),
                                                   std::move(x_entries));
    }
    im.cluster.for_each_rank([&](int r) {
      const auto ri = static_cast<std::size_t>(r);
      const int i = im.grid.row_of(r);
      const int j = im.grid.col_of(r);
      const vid_t col_base = blocks.begin(j);
      const auto& x = xs[static_cast<std::size_t>(j)];

      auto mul = sparse::BfsParentSemiring{col_base}.multiply();
      auto comb = sparse::BfsParentSemiring::combine();
      sparse::SpmsvStats st;
      if (t > 1) {
        // Fig 2: one SpMSV per thread-local row piece; the pieces cover
        // disjoint ascending row ranges, so concatenation (with re-based
        // row ids) reassembles the rank's sorted output.
        const auto& pieces = im.thread_pieces[ri];
        const vid_t rows_per =
            std::max<vid_t>(1, im.part.block(r).nrows() / t);
        std::vector<sparse::SvEntry<vid_t>> merged;
        st.flops = 0;
        for (std::size_t piece = 0; piece < pieces.size(); ++piece) {
          sparse::SpmsvStats piece_st;
          auto y = sparse::spmsv<vid_t>(pieces[piece], x, mul, comb,
                                        im.opts.backend, &im.spa[ri],
                                        &piece_st);
          const vid_t base = static_cast<vid_t>(piece) * rows_per;
          for (const auto& e : y.entries()) {
            merged.push_back(
                sparse::SvEntry<vid_t>{base + e.index, e.value});
          }
          st.flops += piece_st.flops;
          if (piece_st.used == sparse::SpmsvBackend::kSpa) {
            ++spa_calls[ri];
          } else {
            ++heap_calls[ri];
          }
        }
        st.output_nnz = static_cast<vid_t>(merged.size());
        partials[ri] = sparse::SparseVector<vid_t>::from_sorted(
            im.part.block(r).nrows(), std::move(merged));
      } else {
        partials[ri] = sparse::spmsv<vid_t>(im.part.block(r), x, mul,
                                            comb, im.opts.backend,
                                            &im.spa[ri], &st);
        if (st.used == sparse::SpmsvBackend::kSpa) {
          ++spa_calls[ri];
        } else {
          ++heap_calls[ri];
        }
      }
      flops[ri] = st.flops;

      model::Work2D work;
      work.spmsv_flops = st.flops;
      work.x_nnz = x.nnz();
      work.output_nnz = st.output_nnz;
      work.x_dim = blocks.size(j);
      work.out_dim = blocks.size(i);
      work.heap_backend = st.used == sparse::SpmsvBackend::kHeap;
      work.threads = t;
      spmsv_costs[ri] =
          model::cost_2d_local(im.cluster.machine(), work) +
          model::cost_thread_barriers(im.cluster.machine(), t, 2);
    });
    im.cluster.set_compute_phase("2d-spmsv");
    im.charge_smoothed(im.world, spmsv_costs);
    if (obs::MetricsRegistry* m = im.cluster.metrics()) {
      // SpMSV workload distributions (per rank per level) for the kernel
      // ablations: flop counts, output sizes, and back-end selection.
      auto& flops_hist = m->histogram("spmsv.flops");
      auto& nnz_hist = m->histogram("spmsv.output_nnz");
      for (int r = 0; r < p; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        flops_hist.observe(static_cast<double>(flops[ri]));
        nnz_hist.observe(static_cast<double>(partials[ri].nnz()));
        m->counter("spmsv.spa_calls") += spa_calls[ri];
        m->counter("spmsv.heap_calls") += heap_calls[ri];
      }
    }
  }

  // ---- Triangular storage (§7): the stored wedge only covers edge
  // directions c -> r with r <= c; the mirrored directions are applied
  // with a scan-based transpose product. Rank (i,j) needs f_{C_i}
  // (held post-expand by its transpose partner) and its z output lives
  // in C_j's range = its partner's row block, so both the frontier and
  // the result take one pairwise exchange each.
  if (im.opts.triangular_storage) {
    // Pairwise frontier swap: rank (i,j) receives f_{C_i}.
    std::vector<std::vector<vid_t>> f_for_partner(
        static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      f_for_partner[static_cast<std::size_t>(r)] =
          gathered[static_cast<std::size_t>(im.grid.col_of(r))];
    }
    auto partner_frontier = simmpi::transpose_exchange(
        im.cluster, im.grid, std::move(f_for_partner));

    std::vector<std::vector<Candidate>> z(static_cast<std::size_t>(p));
    std::vector<double> scan_costs(static_cast<std::size_t>(p), 0.0);
    im.cluster.for_each_rank([&](int r) {
      const auto ri = static_cast<std::size_t>(r);
      const int i = im.grid.row_of(r);
      const int j = im.grid.col_of(r);
      const vid_t row_base_i = blocks.begin(i);
      const vid_t col_base_j = blocks.begin(j);

      // Dense per-row frontier values over R_i (value = global id, the
      // parent the mirrored edge contributes).
      std::vector<vid_t> xval(static_cast<std::size_t>(blocks.size(i)),
                              kNoVertex);
      for (vid_t gv : partner_frontier[ri]) {
        xval[static_cast<std::size_t>(gv - row_base_i)] = gv;
      }

      sparse::SpmsvStats st;
      auto zt = sparse::spmsv_transpose<vid_t>(
          im.part.block(r),
          [&xval](vid_t row) -> const vid_t* {
            const vid_t* v = &xval[static_cast<std::size_t>(row)];
            return *v == kNoVertex ? nullptr : v;
          },
          [](vid_t, vid_t, vid_t fv) { return fv; },
          [](vid_t a, vid_t b) { return std::max(a, b); }, &st);
      z[ri].reserve(static_cast<std::size_t>(zt.nnz()));
      for (const auto& e : zt.entries()) {
        z[ri].push_back(Candidate{col_base_j + e.index, e.value});
      }
      flops[ri] += st.flops;

      model::WorkTranspose2D work;
      work.nnz_scanned = st.flops;
      work.output_nnz = st.output_nnz;
      work.x_dim = blocks.size(i);
      work.threads = t;
      scan_costs[ri] =
          model::cost_2d_transpose_scan(im.cluster.machine(), work);
    });
    im.cluster.set_compute_phase("2d-tri-scan");
    im.charge_smoothed(im.world, scan_costs);
    // Results travel to the transpose partner, whose row block owns
    // them; the partner folds them with its own partial output.
    mirrored = simmpi::transpose_exchange(im.cluster, im.grid,
                                          std::move(z));
  }

  // ---- Fold (line 8): scatter partial results along processor rows to
  // the vector-piece owners, then merge, filter, and update parents
  // (lines 9-11).
  std::vector<std::int64_t> next_sizes(static_cast<std::size_t>(p), 0);
  im.cluster.set_compute_phase("2d-merge");
  for (int i = 0; i < s; ++i) {
    const vid_t row_base = blocks.begin(i);
    const auto row_group = im.grid.row_group(i);

    std::vector<std::vector<Candidate>> received;
    if (!diagonal) {
      auto send =
          simmpi::FlatExchange<Candidate>::sized(static_cast<std::size_t>(s));
      for (int gj = 0; gj < s; ++gj) {
        const int rank = im.grid.rank_of(i, gj);
        const auto& partial = partials[static_cast<std::size_t>(rank)];
        const auto& extra = mirrored[static_cast<std::size_t>(rank)];
        auto& counts = send.counts[static_cast<std::size_t>(gj)];
        for (const auto& e : partial.entries()) {
          ++counts[static_cast<std::size_t>(im.vdist.owner_col(i, e.index))];
        }
        for (const Candidate& c : extra) {
          ++counts[static_cast<std::size_t>(
              im.vdist.owner_col(i, c.vertex - row_base))];
        }
        std::vector<std::int64_t> cursor(static_cast<std::size_t>(s), 0);
        std::partial_sum(counts.begin(), counts.end() - 1,
                         cursor.begin() + 1);
        auto& data = send.data[static_cast<std::size_t>(gj)];
        data.resize(partial.entries().size() + extra.size());
        for (const auto& e : partial.entries()) {
          auto& cur =
              cursor[static_cast<std::size_t>(im.vdist.owner_col(i, e.index))];
          data[static_cast<std::size_t>(cur++)] =
              Candidate{row_base + e.index, e.value};
        }
        for (const Candidate& c : extra) {
          auto& cur = cursor[static_cast<std::size_t>(
              im.vdist.owner_col(i, c.vertex - row_base))];
          data[static_cast<std::size_t>(cur++)] = c;
        }
      }
      if (wire_fold_on) {
        received = im.wire_fold(row_group, std::move(send), wire_level);
        im.cluster.set_compute_phase("2d-merge");
      } else {
        auto recv = simmpi::checked_alltoallv(im.cluster, row_group,
                                              std::move(send), "2d-fold");
        received = std::move(recv.data);
      }
    } else {
      // Diagonal distribution: everything gathers at P(i,i), which then
      // merges alone while the rest of the row idles (Fig 4).
      std::vector<std::vector<Candidate>> pieces(
          static_cast<std::size_t>(s));
      for (int gj = 0; gj < s; ++gj) {
        const int rank = im.grid.rank_of(i, gj);
        auto& piece = pieces[static_cast<std::size_t>(gj)];
        const auto& partial = partials[static_cast<std::size_t>(rank)];
        piece.reserve(partial.entries().size());
        for (const auto& e : partial.entries()) {
          piece.push_back(Candidate{row_base + e.index, e.value});
        }
      }
      received.assign(static_cast<std::size_t>(s), {});
      received[static_cast<std::size_t>(i)] = simmpi::gatherv(
          im.cluster, row_group, static_cast<std::size_t>(i),
          std::move(pieces), "2d-fold");
    }

    // Owners merge received candidates: combine by max parent, filter
    // against the parents array, update, and emit the new piece. Merge
    // costs are smoothed across the row's receivers; in diagonal mode the
    // root is the only receiver, so its serial merge stays fully
    // concentrated (the Fig 4 mechanism).
    std::vector<double> merge_costs(static_cast<std::size_t>(s), 0.0);
    for (int gj = 0; gj < s; ++gj) {
      const int rank = im.grid.rank_of(i, gj);
      const auto ri = static_cast<std::size_t>(rank);
      auto& cand = received[static_cast<std::size_t>(gj)];
      if (diagonal && gj != i) continue;

      // The candidates lie in the owner's piece (its row block in
      // diagonal mode), so the bitmap dedup walks at most that range.
      vid_t lo = n;
      vid_t hi = 0;
      for (const Candidate& c : cand) {
        lo = std::min(lo, c.vertex);
        hi = std::max(hi, c.vertex);
      }
      // Every received candidate's target is visited by the end of this
      // level (it either wins now or lost earlier), so the owner can
      // sieve any later re-send of it.
      const std::size_t distinct = comm::dedup_max_parent(
          std::span<Candidate>(cand), lo, hi, im.dedup_scratch,
          [&](vid_t v) {
            if (wire_fold_on) im.sieve.mark(rank, v);
          });
      for (const Candidate& c : std::span<const Candidate>(cand).first(
               distinct)) {
        if (out.parent[c.vertex] == kNoVertex) {
          out.parent[c.vertex] = c.parent;
          out.level[c.vertex] = level;
          // Write-once merge: the shadow mirrors the single mutation
          // (host-sequential loop, no race on the shard slot).
          if (im.sdc_on) im.shadow.add(rank, c.vertex, c.parent, level);
          fs[ri].push_back(c.vertex);
        }
      }
      next_sizes[ri] = static_cast<std::int64_t>(fs[ri].size());

      model::Work2D work;
      work.fold_received = static_cast<vid_t>(cand.size());
      work.n_local = im.vdist.piece_size(i, gj);
      work.threads = t;
      merge_costs[static_cast<std::size_t>(gj)] =
          model::cost_2d_local(im.cluster.machine(), work) +
          model::cost_thread_barriers(im.cluster.machine(), t, 2);
    }
    if (diagonal) {
      im.cluster.charge_compute(im.grid.rank_of(i, i),
                                merge_costs[static_cast<std::size_t>(i)]);
    } else {
      im.charge_smoothed(row_group, merge_costs);
    }
  }

  if (wire_fold_on || wire_expand_on || bottom_up) {
    im.note_wire("2d-exchange", wire_level);
  }

  // ---- Termination (implicit in Algorithm 3's while f != ∅).
  im.sync_level(next_sizes);

  stats.edges_scanned = std::accumulate(flops.begin(), flops.end(), eid_t{0});
  if (dirop_on) {
    // Per-direction wire and edge accounting. Like the traffic meter,
    // these keep everything that ever moved — a recovery replay counts
    // its window again, matching the wire.* counters' convention.
    DiropReport& d = out.report.dirop;
    if (bottom_up) {
      d.bottom_up_wire_raw_bytes += wire_level.pre_bytes;
      d.bottom_up_wire_bytes += wire_level.stats.encoded_bytes;
    } else {
      d.top_down_wire_raw_bytes += wire_level.pre_bytes;
      d.top_down_wire_bytes += wire_level.stats.encoded_bytes;
    }
    if (im.opts.metrics != nullptr) {
      obs::MetricsRegistry& m = *im.opts.metrics;
      ++m.counter(bottom_up ? "dirop.levels.bottom_up"
                            : "dirop.levels.top_down");
      m.counter(bottom_up ? "dirop.edges.bottom_up" : "dirop.edges.top_down") +=
          static_cast<std::int64_t>(stats.edges_scanned);
      m.counter(bottom_up ? "dirop.wire.bottom_up_raw_bytes"
                          : "dirop.wire.top_down_raw_bytes") +=
          static_cast<std::int64_t>(wire_level.pre_bytes);
      m.counter(bottom_up ? "dirop.wire.bottom_up_bytes"
                          : "dirop.wire.top_down_bytes") +=
          static_cast<std::int64_t>(wire_level.stats.encoded_bytes);
    }
  }
  stats.expand_bytes = traffic.totals(simmpi::Pattern::kAllgatherv).bytes +
                       traffic.totals(simmpi::Pattern::kBroadcast).bytes -
                       ag_before;
  stats.a2a_bytes = traffic.totals(simmpi::Pattern::kAlltoallv).bytes +
                    traffic.totals(simmpi::Pattern::kGatherv).bytes -
                    a2a_before;
  stats.other_bytes =
      traffic.totals(simmpi::Pattern::kTranspose).bytes - tr_before;
  out.report.spmsv_spa_calls +=
      std::accumulate(spa_calls.begin(), spa_calls.end(), std::int64_t{0});
  out.report.spmsv_heap_calls +=
      std::accumulate(heap_calls.begin(), heap_calls.end(), std::int64_t{0});
}

void Bfs2D::Impl::bottom_up_level(const BfsOutput& out,
                                  std::vector<std::vector<Candidate>>& mirrored,
                                  std::vector<eid_t>& flops, WireTally& wl) {
  const int s = grid.pr();
  const int p = grid.ranks();
  const int t = opts.threads_per_rank;
  const auto& bl = part.blocks();

  // Owned visited lists: one ascending pass over the distance array, so
  // each owner's list comes out sorted without a per-rank sort.
  std::vector<std::vector<vid_t>> visited(static_cast<std::size_t>(p));
  for (vid_t v = 0; v < n; ++v) {
    if (out.level[static_cast<std::size_t>(v)] != kUnreached) {
      visited[static_cast<std::size_t>(vdist.owner_rank(v))].push_back(v);
    }
  }

  // ---- (a) Frontier/completeness gather over each processor row: every
  // rank of row i ends up holding f_{R_i} (the probe targets) and
  // visited_{R_i} (the basis of the unvisited masks). Each contribution
  // is two wire-coded segments — both dense-bitmap candidates over the
  // row range — length-framed so the concatenated allgatherv stream
  // splits back per contributor:
  //   [uvarint frontier_bytes][uvarint visited_bytes][frontier][visited]
  std::vector<std::vector<vid_t>> row_frontier(static_cast<std::size_t>(s));
  std::vector<std::vector<vid_t>> row_visited(static_cast<std::size_t>(s));
  for (int i = 0; i < s; ++i) {
    const auto group = grid.row_group(i);
    const vid_t row_begin = bl.begin(i);
    const vid_t row_end = row_begin + bl.size(i);
    std::vector<std::vector<std::uint8_t>> enc(group.size());
    std::vector<double> codec_costs(group.size(), 0.0);
    for (std::size_t g = 0; g < group.size(); ++g) {
      const auto r = static_cast<std::size_t>(group[g]);
      comm::WireStats st;
      std::vector<std::uint8_t> fenc;
      std::vector<std::uint8_t> venc;
      comm::encode_vertex_bitmap(fs[r], row_begin, row_end, opts.wire_format,
                                 fenc, &st);
      comm::encode_vertex_bitmap(visited[r], row_begin, row_end,
                                 opts.wire_format, venc, &st);
      wl.pre_bytes += (fs[r].size() + visited[r].size()) * sizeof(vid_t);
      auto& dst = enc[g];
      comm::put_uvarint(dst, fenc.size());
      comm::put_uvarint(dst, venc.size());
      dst.insert(dst.end(), fenc.begin(), fenc.end());
      dst.insert(dst.end(), venc.begin(), venc.end());
      codec_costs[g] = model::cost_wire_codec(
          cluster.machine(), static_cast<std::size_t>(st.raw_bytes),
          static_cast<std::size_t>(st.encoded_bytes), t);
      wl.stats.merge(st);
    }
    cluster.set_compute_phase("wire-encode");
    charge_smoothed(group, codec_costs);

    auto bytes = simmpi::checked_allgatherv(cluster, group, std::move(enc),
                                            "2d-bu-frontier",
                                            opts.allgather_algo);
    std::size_t off = 0;
    while (off < bytes.size()) {
      std::uint64_t fbytes = 0;
      std::uint64_t vbytes = 0;
      off += comm::get_uvarint(bytes.data() + off, bytes.size() - off,
                               &fbytes);
      off += comm::get_uvarint(bytes.data() + off, bytes.size() - off,
                               &vbytes);
      if (off + fbytes + vbytes > bytes.size()) {
        throw comm::WireDecodeError("wire: bottom-up contribution overrun");
      }
      comm::decode_vertex_stream(bytes.data() + off,
                                 static_cast<std::size_t>(fbytes),
                                 row_frontier[static_cast<std::size_t>(i)]);
      off += static_cast<std::size_t>(fbytes);
      comm::decode_vertex_stream(bytes.data() + off,
                                 static_cast<std::size_t>(vbytes),
                                 row_visited[static_cast<std::size_t>(i)]);
      off += static_cast<std::size_t>(vbytes);
    }
    const double decode_cost = model::cost_wire_codec(
        cluster.machine(),
        (row_frontier[static_cast<std::size_t>(i)].size() +
         row_visited[static_cast<std::size_t>(i)].size()) *
            sizeof(vid_t),
        bytes.size(), t);
    std::vector<double> decode_costs(group.size(), decode_cost);
    cluster.set_compute_phase("wire-decode");
    charge_smoothed(group, decode_costs);
  }
  // The frontier pieces are consumed; the fold below rebuilds them.
  fs.assign(static_cast<std::size_t>(p), {});

  // ---- (b) Completeness swap: rank (i,j)'s probe scan filters on the
  // visited status of its *column* range C_j, which is the transpose
  // partner's row range — one pairwise exchange of the assembled
  // visited_{R_i}, again through the dense-bitmap wire path. Diagonal
  // ranks keep their own copy for free. Every rank of row i sends the
  // same visited_{R_i} bytes, so they are encoded once per row and
  // copied into each sender's payload (the exchange meters and routes
  // exactly those per-rank payloads); every rank of column j receives
  // visited_{R_j}, so it is decoded once per column. Each rank is still
  // charged its own encode and decode.
  std::vector<std::vector<vid_t>> col_visited(static_cast<std::size_t>(s));
  {
    std::vector<std::vector<std::uint8_t>> row_enc(
        static_cast<std::size_t>(s));
    std::vector<comm::WireStats> row_stats(static_cast<std::size_t>(s));
    for (int i = 0; i < s; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      comm::encode_vertex_bitmap(row_visited[ii], bl.begin(i),
                                 bl.begin(i) + bl.size(i), opts.wire_format,
                                 row_enc[ii], &row_stats[ii]);
    }
    std::vector<std::vector<std::uint8_t>> venc(static_cast<std::size_t>(p));
    std::vector<double> codec_costs(static_cast<std::size_t>(p), 0.0);
    for (int r = 0; r < p; ++r) {
      const auto i = static_cast<std::size_t>(grid.row_of(r));
      const comm::WireStats& st = row_stats[i];
      venc[static_cast<std::size_t>(r)] = row_enc[i];
      wl.pre_bytes += row_visited[i].size() * sizeof(vid_t);
      codec_costs[static_cast<std::size_t>(r)] = model::cost_wire_codec(
          cluster.machine(), static_cast<std::size_t>(st.raw_bytes),
          static_cast<std::size_t>(st.encoded_bytes), t);
      wl.stats.merge(st);
    }
    cluster.set_compute_phase("wire-encode");
    charge_smoothed(world, codec_costs);

    auto swapped = simmpi::transpose_exchange(cluster, grid, std::move(venc),
                                              "2d-bu-complete");
    std::vector<double> col_decode(static_cast<std::size_t>(s), 0.0);
    for (int j = 0; j < s; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const auto& bytes = swapped[static_cast<std::size_t>(grid.rank_of(0, j))];
      comm::decode_vertex_stream(bytes.data(), bytes.size(), col_visited[jj]);
      col_decode[jj] = model::cost_wire_codec(
          cluster.machine(), col_visited[jj].size() * sizeof(vid_t),
          bytes.size(), t);
    }
    for (int r = 0; r < p; ++r) {
      codec_costs[static_cast<std::size_t>(r)] =
          col_decode[static_cast<std::size_t>(grid.col_of(r))];
    }
    cluster.set_compute_phase("wire-decode");
    charge_smoothed(world, codec_costs);
  }

  // ---- (c) Local pull step: every stored column still unvisited probes
  // its rows (descending) against the frontier support and stops at the
  // first hit — the per-block max, which the fold's max-parent merge
  // combines into exactly the parent top-down would have produced. The
  // dense frontier support is built once per row and the visited mask
  // once per column; the ranks only read them.
  std::vector<std::vector<vid_t>> xval(static_cast<std::size_t>(s));
  std::vector<std::vector<std::uint8_t>> done(static_cast<std::size_t>(s));
  for (int k = 0; k < s; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    // Frontier support over R_k (value = parent global id).
    xval[kk].assign(static_cast<std::size_t>(bl.size(k)), kNoVertex);
    for (vid_t gv : row_frontier[kk]) {
      xval[kk][static_cast<std::size_t>(gv - bl.begin(k))] = gv;
    }
    // Visited mask over C_k from the completeness swap.
    done[kk].assign(static_cast<std::size_t>(bl.size(k)), 0);
    for (vid_t gv : col_visited[kk]) {
      done[kk][static_cast<std::size_t>(gv - bl.begin(k))] = 1;
    }
  }
  std::vector<std::vector<Candidate>> z(static_cast<std::size_t>(p));
  std::vector<double> scan_costs(static_cast<std::size_t>(p), 0.0);
  cluster.for_each_rank([&](int r) {
    const auto ri = static_cast<std::size_t>(r);
    const int i = grid.row_of(r);
    const int j = grid.col_of(r);
    const vid_t col_base = bl.begin(j);
    const auto& row_xval = xval[static_cast<std::size_t>(i)];
    const auto& col_done = done[static_cast<std::size_t>(j)];

    vid_t candidates = 0;
    sparse::SpmsvStats st;
    auto zt = sparse::spmsv_bottom_up<vid_t>(
        part.block(r),
        [&col_done, &candidates](vid_t c) {
          if (col_done[static_cast<std::size_t>(c)] != 0) return false;
          ++candidates;
          return true;
        },
        [&row_xval](vid_t row) -> const vid_t* {
          const vid_t* v = &row_xval[static_cast<std::size_t>(row)];
          return *v == kNoVertex ? nullptr : v;
        },
        [](vid_t, vid_t, vid_t fv) { return fv; }, &st);
    z[ri].reserve(static_cast<std::size_t>(zt.nnz()));
    for (const auto& e : zt.entries()) {
      z[ri].push_back(Candidate{col_base + e.index, e.value});
    }
    flops[ri] = st.flops;

    model::WorkBottomUp work;
    work.probes = st.flops;
    work.candidates = candidates;
    work.output_nnz = st.output_nnz;
    work.x_dim = bl.size(i);
    work.threads = t;
    scan_costs[ri] = model::cost_2d_bottom_up(cluster.machine(), work) +
                     model::cost_thread_barriers(cluster.machine(), t, 2);
  });
  cluster.set_compute_phase("2d-bottomup");
  charge_smoothed(world, scan_costs);

  // ---- (d) Discovered parents live in C_j's range = the partner's row
  // block: ship them there so the shared fold path (scatter to owners,
  // max-parent merge, parents update) finishes the level unchanged.
  mirrored = simmpi::transpose_exchange(cluster, grid, std::move(z),
                                        "2d-bu-result");
}

}  // namespace dbfs::bfs
