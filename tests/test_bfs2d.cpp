#include "bfs/bfs2d.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bfs/serial.hpp"
#include "comm/wire_format.hpp"
#include "graph/validator.hpp"
#include "test_helpers.hpp"

namespace dbfs::bfs {
namespace {

Bfs2DOptions opts_with(int cores, int threads = 1) {
  Bfs2DOptions o;
  o.cores = cores;
  o.threads_per_rank = threads;
  o.machine = model::franklin();
  return o;
}

class Bfs2DCoreSweep : public ::testing::TestWithParam<int> {};

TEST_P(Bfs2DCoreSweep, MatchesSerialOnRmat) {
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  Bfs2D bfs{built.edges, n, opts_with(GetParam())};
  const auto out = bfs.run(0);
  const auto serial = serial_bfs(built.csr, 0);
  EXPECT_EQ(out.level, serial.level) << "cores=" << GetParam();
}

TEST_P(Bfs2DCoreSweep, PassesValidation) {
  const auto built = test::rmat_graph(10, 8, 5);
  const vid_t n = built.csr.num_vertices();
  Bfs2D bfs{built.edges, n, opts_with(GetParam())};
  const auto out = bfs.run(11);
  const auto v = graph::validate_bfs_tree(
      built.csr, 11, out.parent, graph::reference_levels(built.csr, 11));
  EXPECT_TRUE(v.ok) << "cores=" << GetParam() << ": " << v.error;
}

INSTANTIATE_TEST_SUITE_P(Cores, Bfs2DCoreSweep,
                         ::testing::Values(1, 4, 9, 16, 64, 121, 256));

class Bfs2DBackendSweep
    : public ::testing::TestWithParam<sparse::SpmsvBackend> {};

TEST_P(Bfs2DBackendSweep, BackendsAgree) {
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  auto opts = opts_with(16);
  opts.backend = GetParam();
  Bfs2D bfs{built.edges, n, opts};
  const auto out = bfs.run(0);
  const auto serial = serial_bfs(built.csr, 0);
  EXPECT_EQ(out.level, serial.level);
}

INSTANTIATE_TEST_SUITE_P(Backends, Bfs2DBackendSweep,
                         ::testing::Values(sparse::SpmsvBackend::kAuto,
                                           sparse::SpmsvBackend::kSpa,
                                           sparse::SpmsvBackend::kHeap),
                         [](const auto& info) {
                           return sparse::to_string(info.param);
                         });

TEST(Bfs2D, PathGraphManyLevels) {
  const auto edges = test::path_edges(50);
  Bfs2D bfs{edges, 50, opts_with(9)};
  const auto out = bfs.run(0);
  for (vid_t v = 0; v < 50; ++v) EXPECT_EQ(out.level[v], v);
}

TEST(Bfs2D, DisconnectedComponentUnreached) {
  const auto edges = test::two_triangles();
  Bfs2D bfs{edges, 7, opts_with(4)};
  const auto out = bfs.run(3);
  EXPECT_EQ(out.level[0], kUnreached);
  EXPECT_EQ(out.level[4], 1);
  EXPECT_EQ(out.parent[3], 3);
}

TEST(Bfs2D, SourceAnywhereOnGrid) {
  const auto built = test::rmat_graph(8);
  const vid_t n = built.csr.num_vertices();
  Bfs2D bfs{built.edges, n, opts_with(9)};
  for (vid_t source : {vid_t{0}, n / 2, n - 1}) {
    const auto out = bfs.run(source);
    const auto serial = serial_bfs(built.csr, source);
    EXPECT_EQ(out.level, serial.level) << "source=" << source;
  }
}

TEST(Bfs2D, GridRoundsDownToSquare) {
  const auto edges = test::path_edges(32);
  Bfs2D bfs{edges, 32, opts_with(12)};  // 3x3 grid, 9 cores used
  EXPECT_EQ(bfs.grid().pr(), 3);
  EXPECT_EQ(bfs.cores_used(), 9);
}

TEST(Bfs2D, HybridMatchesFlat) {
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  Bfs2D flat{built.edges, n, opts_with(16, 1)};
  Bfs2D hybrid{built.edges, n, opts_with(64, 4)};  // same 4x4 grid
  EXPECT_EQ(flat.run(0).level, hybrid.run(0).level);
}

TEST(Bfs2D, DiagonalVectorDistributionSameAnswer) {
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  auto opts = opts_with(16);
  opts.vector_dist = dist::VectorDistKind::kDiagonal;
  Bfs2D diag{built.edges, n, opts};
  const auto out = diag.run(0);
  const auto serial = serial_bfs(built.csr, 0);
  EXPECT_EQ(out.level, serial.level);
}

TEST(Bfs2D, DiagonalDistributionIdlesOffDiagonalRanks) {
  // The Figure 4 mechanism: off-diagonal ranks wait while diagonals merge.
  const auto built = test::rmat_graph(10, 16);
  const vid_t n = built.csr.num_vertices();
  auto opts = opts_with(16);
  opts.vector_dist = dist::VectorDistKind::kDiagonal;
  Bfs2D diag{built.edges, n, opts};
  const auto out = diag.run(test::hub_source(built.csr));
  const auto& grid = diag.grid();
  double diag_comm = 0.0;
  double off_comm = 0.0;
  int off_count = 0;
  for (int r = 0; r < grid.ranks(); ++r) {
    if (grid.row_of(r) == grid.col_of(r)) {
      diag_comm += out.report.per_rank_comm[r];
    } else {
      off_comm += out.report.per_rank_comm[r];
      ++off_count;
    }
  }
  diag_comm /= grid.pr();
  off_comm /= off_count;
  EXPECT_GT(off_comm, diag_comm);
}

TEST(Bfs2D, TwoDVectorDistributionIsBalanced) {
  const auto built = test::rmat_graph(10, 16);
  const vid_t n = built.csr.num_vertices();
  Bfs2D bfs{built.edges, n, opts_with(16)};
  const auto out = bfs.run(test::hub_source(built.csr));
  // §4.3: "almost no load imbalance" — bounded MPI-time spread.
  double min_comm = 1e30;
  double max_comm = 0.0;
  for (double c : out.report.per_rank_comm) {
    min_comm = std::min(min_comm, c);
    max_comm = std::max(max_comm, c);
  }
  EXPECT_LT(max_comm / std::max(min_comm, 1e-30), 2.0);
}

TEST(Bfs2D, ReportHasExpandAndFoldTraffic) {
  const auto built = test::rmat_graph(10);
  const vid_t n = built.csr.num_vertices();
  Bfs2D bfs{built.edges, n, opts_with(16)};
  const auto out = bfs.run(test::hub_source(built.csr));
  EXPECT_GT(out.report.allgather_bytes, 0u);
  EXPECT_GT(out.report.alltoall_bytes, 0u);
  EXPECT_GT(out.report.transpose_bytes, 0u);
  EXPECT_GT(out.report.total_seconds, 0.0);
}

TEST(Bfs2D, BackendCountersPopulated) {
  const auto built = test::rmat_graph(9);
  const vid_t n = built.csr.num_vertices();
  auto opts = opts_with(16);
  opts.backend = sparse::SpmsvBackend::kSpa;
  Bfs2D bfs{built.edges, n, opts};
  const auto out = bfs.run(test::hub_source(built.csr));
  EXPECT_GT(out.report.spmsv_spa_calls, 0);
  EXPECT_EQ(out.report.spmsv_heap_calls, 0);
}

TEST(Bfs2D, SingleRankDegenerateGrid) {
  const auto built = test::rmat_graph(8);
  const vid_t n = built.csr.num_vertices();
  Bfs2D bfs{built.edges, n, opts_with(1)};
  const auto serial = serial_bfs(built.csr, 0);
  EXPECT_EQ(bfs.run(0).level, serial.level);
}

TEST(Bfs2D, RejectsBadSource) {
  const auto edges = test::path_edges(4);
  Bfs2D bfs{edges, 4, opts_with(4)};
  EXPECT_THROW(bfs.run(99), std::out_of_range);
}

/// Order-sensitive digest of everything a 2D level decides: parents,
/// levels, the per-level scan count and metered bytes, and the SpMSV
/// back-end choices.
std::uint64_t level_digest(const BfsOutput& out) {
  std::vector<std::uint64_t> seq;
  for (vid_t p : out.parent) seq.push_back(static_cast<std::uint64_t>(p));
  for (level_t l : out.level) seq.push_back(static_cast<std::uint64_t>(l));
  for (const LevelStats& l : out.report.levels) {
    seq.push_back(static_cast<std::uint64_t>(l.edges_scanned));
    seq.push_back(l.expand_bytes);
    seq.push_back(l.a2a_bytes);
    seq.push_back(l.other_bytes);
  }
  seq.push_back(static_cast<std::uint64_t>(out.report.spmsv_spa_calls));
  seq.push_back(static_cast<std::uint64_t>(out.report.spmsv_heap_calls));
  return test::mix64_digest(seq);
}

/// Runs one configuration on the scale-12, seed-12 R-MAT instance from
/// its hub.
BfsOutput golden_run(const Bfs2DOptions& opts) {
  static const auto built = test::rmat_graph(12, 16, 12);
  Bfs2D bfs{built.edges, built.csr.num_vertices(), opts};
  return bfs.run(test::hub_source(built.csr));
}

// Pin the 2D configurations the wire goldens leave out. A change to the
// owner merge, the column gather, or the bottom-up exchanges can still
// validate while moving one of these. The constants were computed with
// the sort-based owner merge and per-rank frontier vectors.
TEST(Bfs2DGolden, RawTopDownAt1024Ranks) {
  const auto out = golden_run(opts_with(1024));
  EXPECT_GT(out.report.spmsv_spa_calls, 0);
  EXPECT_GT(out.report.spmsv_heap_calls, 0);
  EXPECT_EQ(level_digest(out), 0x53c44a8cb3d1c115ULL);
}

TEST(Bfs2DGolden, ThreadPieces) {
  EXPECT_EQ(level_digest(golden_run(opts_with(64, 4))),
            0xe56821c583b15708ULL);
}

TEST(Bfs2DGolden, TriangularStorage) {
  auto opts = opts_with(16);
  opts.triangular_storage = true;
  EXPECT_EQ(level_digest(golden_run(opts)), 0xe4f2a2e4d8ba84fdULL);
}

TEST(Bfs2DGolden, DiagonalVectorDistribution) {
  auto opts = opts_with(16);
  opts.vector_dist = dist::VectorDistKind::kDiagonal;
  EXPECT_EQ(level_digest(golden_run(opts)), 0xee41fb1b008a9dd1ULL);
}

TEST(Bfs2DGolden, ForcedBottomUpAutoWire) {
  auto opts = opts_with(16);
  opts.direction = DirectionMode::kBottomUp;
  opts.wire_format = comm::WireFormat::kAuto;
  EXPECT_EQ(level_digest(golden_run(opts)), 0x24bd0ffd3f23ac1cULL);
}

}  // namespace
}  // namespace dbfs::bfs
