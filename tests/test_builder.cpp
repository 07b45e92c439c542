#include "graph/builder.hpp"

#include "graph/permutation.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "test_helpers.hpp"

namespace dbfs::graph {
namespace {

TEST(BuildGraph, RecordsDirectedEdgeCountBeforeProcessing) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 8;
  const auto built = build_graph(generate_rmat(params));
  EXPECT_EQ(built.directed_edge_count, 8 * (1 << 8));
  // Post-pipeline CSR is symmetrized and deduped: between m and 2m.
  EXPECT_LE(built.csr.num_edges(), 2 * built.directed_edge_count);
  EXPECT_GT(built.csr.num_edges(), 0);
}

TEST(BuildGraph, SymmetrizeYieldsSymmetricCsr) {
  RmatParams params;
  params.scale = 7;
  params.edge_factor = 4;
  const auto built = build_graph(generate_rmat(params));
  EXPECT_TRUE(built.csr.is_symmetric());
}

TEST(BuildGraph, NoSymmetrizeKeepsDirection) {
  EdgeList e{4};
  e.add(0, 1);
  e.add(2, 3);
  BuildOptions opts;
  opts.symmetrize = false;
  opts.shuffle = false;
  const auto built = build_graph(std::move(e), opts);
  EXPECT_EQ(built.csr.num_edges(), 2);
  EXPECT_FALSE(built.csr.is_symmetric());
}

TEST(BuildGraph, DedupCollapsesMultiEdges) {
  EdgeList e{3};
  for (int i = 0; i < 10; ++i) e.add(0, 1);
  BuildOptions opts;
  opts.shuffle = false;
  const auto built = build_graph(std::move(e), opts);
  EXPECT_EQ(built.csr.num_edges(), 2);  // {0,1} both directions
  EXPECT_EQ(built.edges.num_edges(), 2);
}

TEST(BuildGraph, ShuffleMappingIsRecordedAndValid) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 4;
  BuildOptions opts;
  opts.shuffle = true;
  opts.shuffle_seed = 77;
  const auto built = build_graph(generate_rmat(params), opts);
  ASSERT_EQ(built.new_to_old.size(),
            static_cast<std::size_t>(built.csr.num_vertices()));
  const Permutation inverse{built.new_to_old};
  EXPECT_TRUE(inverse.is_valid());
}

TEST(BuildGraph, NoShuffleLeavesMappingEmpty) {
  EdgeList e{4};
  e.add(0, 1);
  BuildOptions opts;
  opts.shuffle = false;
  const auto built = build_graph(std::move(e), opts);
  EXPECT_TRUE(built.new_to_old.empty());
}

TEST(BuildGraph, DifferentShuffleSeedsDifferentLayouts) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 4;
  const auto raw = generate_rmat(params);
  BuildOptions a;
  a.shuffle_seed = 1;
  BuildOptions b;
  b.shuffle_seed = 2;
  EXPECT_NE(build_graph(raw, a).new_to_old, build_graph(raw, b).new_to_old);
}

// Pins build_graph's output (shuffle + symmetrize + sort/dedup + CSR) on
// the golden R-MAT stream of Rmat.GoldenEdgeStream. The digests were
// computed with the original comparison-sort build.
TEST(BuildGraph, GoldenBuildOutput) {
  RmatParams params;
  params.scale = 12;
  params.edge_factor = 16;
  params.seed = 12;
  const auto built = build_graph(generate_rmat(params));
  ASSERT_EQ(built.edges.num_edges(), 85994);
  EXPECT_EQ(test::edge_digest(built.edges), 0x838fc6beb54c5d25ULL);
  ASSERT_EQ(built.csr.num_edges(), 85994);
  EXPECT_EQ(test::mix64_digest(built.csr.adjacency()), 0xbcb3a3d5d71e4c50ULL);
  EXPECT_EQ(test::mix64_digest(built.csr.offsets()), 0x3ac85f4402379817ULL);

  BuildOptions unshuffled;
  unshuffled.shuffle = false;
  const auto plain = build_graph(generate_rmat(params), unshuffled);
  EXPECT_EQ(test::edge_digest(plain.edges), 0x47bf655b2b929d97ULL);
}

TEST(DegreeStats, CountsCorrectly) {
  EdgeList e{5};
  e.add(0, 1);
  e.add(0, 2);
  e.add(0, 3);
  e.add(1, 2);
  const auto csr = CsrGraph::from_edges(e);
  const auto stats = degree_stats(csr);
  EXPECT_EQ(stats.max_degree, 3);
  // Out-degree view: 2 and 3 have only in-edges, 4 has none at all.
  EXPECT_EQ(stats.isolated, 3);
  EXPECT_DOUBLE_EQ(stats.mean_degree, 4.0 / 5.0);
}

TEST(DegreeStats, EmptyGraph) {
  const auto csr = CsrGraph::from_edges(EdgeList{0});
  const auto stats = degree_stats(csr);
  EXPECT_EQ(stats.max_degree, 0);
  EXPECT_EQ(stats.isolated, 0);
  EXPECT_DOUBLE_EQ(stats.mean_degree, 0.0);
}

}  // namespace
}  // namespace dbfs::graph
