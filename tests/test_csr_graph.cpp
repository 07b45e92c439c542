#include "graph/csr_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/edge_list.hpp"
#include "util/prng.hpp"

namespace dbfs::graph {
namespace {

EdgeList path_graph(vid_t n) {
  EdgeList e{n};
  for (vid_t v = 0; v + 1 < n; ++v) e.add(v, v + 1);
  e.symmetrize();
  return e;
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph g = CsrGraph::from_edges(EdgeList{0});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(CsrGraph, IsolatedVertices) {
  const CsrGraph g = CsrGraph::from_edges(EdgeList{5});
  EXPECT_EQ(g.num_vertices(), 5);
  for (vid_t v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0);
}

TEST(CsrGraph, PathDegrees) {
  const CsrGraph g = CsrGraph::from_edges(path_graph(5));
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(4), 1);
  EXPECT_EQ(g.num_edges(), 8);
}

TEST(CsrGraph, AdjacenciesSorted) {
  EdgeList e{5};
  e.add(0, 4);
  e.add(0, 2);
  e.add(0, 3);
  e.add(0, 1);
  const CsrGraph g = CsrGraph::from_edges(e);
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(CsrGraph, DedupCollapsesParallelEdges) {
  EdgeList e{3};
  e.add(0, 1);
  e.add(0, 1);
  e.add(0, 2);
  const CsrGraph g = CsrGraph::from_edges(e, /*dedup=*/true);
  EXPECT_EQ(g.degree(0), 2);
}

TEST(CsrGraph, NoDedupKeepsParallelEdges) {
  EdgeList e{3};
  e.add(0, 1);
  e.add(0, 1);
  const CsrGraph g = CsrGraph::from_edges(e, /*dedup=*/false);
  EXPECT_EQ(g.degree(0), 2);
}

TEST(CsrGraph, SelfLoopsDroppedByDefault) {
  EdgeList e{3};
  e.add(1, 1);
  e.add(1, 2);
  const CsrGraph g = CsrGraph::from_edges(e);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.neighbors(1)[0], 2);
}

TEST(CsrGraph, SelfLoopsKeptOnRequest) {
  EdgeList e{3};
  e.add(1, 1);
  const CsrGraph g =
      CsrGraph::from_edges(e, /*dedup=*/true, /*drop_loops=*/false);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.neighbors(1)[0], 1);
}

TEST(CsrGraph, SymmetryDetection) {
  const CsrGraph sym = CsrGraph::from_edges(path_graph(4));
  EXPECT_TRUE(sym.is_symmetric());

  EdgeList directed{3};
  directed.add(0, 1);
  const CsrGraph asym = CsrGraph::from_edges(directed);
  EXPECT_FALSE(asym.is_symmetric());
}

TEST(CsrGraph, MaxDegree) {
  EdgeList e{5};
  e.add(0, 1);
  e.add(0, 2);
  e.add(0, 3);
  e.add(1, 2);
  const CsrGraph g = CsrGraph::from_edges(e);
  EXPECT_EQ(g.max_degree(), 3);
}

TEST(CsrGraph, OffsetsAreConsistent) {
  const CsrGraph g = CsrGraph::from_edges(path_graph(100));
  const auto& off = g.offsets();
  ASSERT_EQ(off.size(), 101u);
  EXPECT_EQ(off.front(), 0);
  EXPECT_EQ(off.back(), g.num_edges());
  EXPECT_TRUE(std::is_sorted(off.begin(), off.end()));
}

TEST(CsrGraph, SortedAndShuffledInputsBuildIdentically) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Xoshiro256 rng{seed};
    EdgeList sorted{64};
    for (int i = 0; i < 400; ++i) {
      sorted.add(static_cast<vid_t>(rng.next_below(64)),
                 static_cast<vid_t>(rng.next_below(64)));
    }
    std::sort(sorted.edges().begin(), sorted.edges().end());
    EdgeList shuffled = sorted;
    auto& list = shuffled.edges();
    for (std::size_t i = list.size(); i > 1; --i) {
      std::swap(list[i - 1], list[rng.next_below(i)]);
    }
    for (const bool dedup : {true, false}) {
      for (const bool drop_loops : {true, false}) {
        const CsrGraph a = CsrGraph::from_edges(sorted, dedup, drop_loops);
        const CsrGraph b = CsrGraph::from_edges(shuffled, dedup, drop_loops);
        EXPECT_EQ(a.offsets(), b.offsets()) << "seed " << seed;
        EXPECT_EQ(a.adjacency(), b.adjacency()) << "seed " << seed;
        for (vid_t v = 0; v < a.num_vertices(); ++v) {
          const auto nbrs = a.neighbors(v);
          EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
        }
      }
    }
  }
}

TEST(CsrGraph, RejectsOutOfRangeEndpoints) {
  // EdgeList::add does not range-check; the build indexes its offsets by
  // the endpoints, so it must refuse instead of writing past them.
  EdgeList high_u{4};
  high_u.add(4, 0);
  EXPECT_THROW(CsrGraph::from_edges(high_u), std::invalid_argument);
  EdgeList high_v{4};
  high_v.add(0, 1);
  high_v.add(1, 4);
  EXPECT_THROW(CsrGraph::from_edges(high_v), std::invalid_argument);
  EdgeList negative{4};
  negative.edges().push_back(Edge{-1, 0});
  EXPECT_THROW(CsrGraph::from_edges(negative), std::invalid_argument);
  // A self-loop the build would drop is still checked.
  EdgeList loop{4};
  loop.add(5, 5);
  EXPECT_THROW(CsrGraph::from_edges(loop), std::invalid_argument);
}

}  // namespace
}  // namespace dbfs::graph
