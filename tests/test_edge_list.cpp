#include "graph/edge_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/prng.hpp"

namespace dbfs::graph {
namespace {

TEST(EdgeList, StartsEmpty) {
  EdgeList e{10};
  EXPECT_EQ(e.num_vertices(), 10);
  EXPECT_EQ(e.num_edges(), 0);
}

TEST(EdgeList, AddAccumulates) {
  EdgeList e{4};
  e.add(0, 1);
  e.add(1, 2);
  EXPECT_EQ(e.num_edges(), 2);
  EXPECT_EQ(e.edges()[0], (Edge{0, 1}));
  EXPECT_EQ(e.edges()[1], (Edge{1, 2}));
}

TEST(EdgeList, ConstructorRejectsOutOfRange) {
  EXPECT_THROW(EdgeList(3, {{0, 5}}), std::invalid_argument);
  EXPECT_THROW(EdgeList(3, {{-1, 0}}), std::invalid_argument);
}

TEST(EdgeList, SymmetrizeAddsReverses) {
  EdgeList e{4};
  e.add(0, 1);
  e.add(2, 3);
  e.symmetrize();
  EXPECT_EQ(e.num_edges(), 4);
  EXPECT_EQ(e.edges()[2], (Edge{1, 0}));
  EXPECT_EQ(e.edges()[3], (Edge{3, 2}));
}

TEST(EdgeList, SymmetrizeSkipsSelfLoopMirrors) {
  EdgeList e{4};
  e.add(1, 1);
  e.add(0, 2);
  e.symmetrize();
  EXPECT_EQ(e.num_edges(), 3);  // only (0,2) mirrored
}

TEST(EdgeList, SortAndDedupRemovesDuplicatesAndLoops) {
  EdgeList e{4};
  e.add(1, 2);
  e.add(0, 1);
  e.add(1, 2);
  e.add(3, 3);
  const eid_t removed = e.sort_and_dedup();
  EXPECT_EQ(removed, 2);
  ASSERT_EQ(e.num_edges(), 2);
  EXPECT_EQ(e.edges()[0], (Edge{0, 1}));
  EXPECT_EQ(e.edges()[1], (Edge{1, 2}));
}

TEST(EdgeList, SortAndDedupCanKeepLoops) {
  EdgeList e{4};
  e.add(3, 3);
  e.add(3, 3);
  const eid_t removed = e.sort_and_dedup(/*drop_self_loops=*/false);
  EXPECT_EQ(removed, 1);
  EXPECT_EQ(e.num_edges(), 1);
  EXPECT_EQ(e.edges()[0], (Edge{3, 3}));
}

TEST(EdgeList, EndpointsInRange) {
  EdgeList e{4};
  e.add(0, 3);
  EXPECT_TRUE(e.endpoints_in_range());
  e.edges().push_back(Edge{0, 4});
  EXPECT_FALSE(e.endpoints_in_range());
}

// The comparison-sort definition sort_and_dedup must reproduce exactly.
std::vector<Edge> reference_sort_and_dedup(std::vector<Edge> edges,
                                           bool drop_self_loops) {
  if (drop_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.u == e.v; });
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

// Seeded random lists drawn from a small id range so duplicates and
// self-loops are common.
EdgeList random_edges(vid_t n, vid_t id_range, int count,
                      std::uint64_t seed) {
  util::Xoshiro256 rng{seed};
  const auto draw = [&] {
    return static_cast<vid_t>(
        rng.next_below(static_cast<std::uint64_t>(id_range)));
  };
  EdgeList e{n};
  for (int i = 0; i < count; ++i) {
    const vid_t u = draw();
    e.add(u, draw());
  }
  return e;
}

void expect_matches_reference(EdgeList e, bool drop_self_loops) {
  const auto expected = reference_sort_and_dedup(e.edges(), drop_self_loops);
  const auto before = e.num_edges();
  const eid_t removed = e.sort_and_dedup(drop_self_loops);
  EXPECT_EQ(e.edges(), expected);
  EXPECT_EQ(removed, before - static_cast<eid_t>(expected.size()));
}

TEST(EdgeList, SortAndDedupMatchesComparisonSort) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const bool drop : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " drop "
                                        << drop);
      expect_matches_reference(random_edges(16, 16, 200, seed), drop);
      expect_matches_reference(random_edges(1000, 1000, 300, seed), drop);
      // n much larger than m: almost every counting bucket is empty.
      expect_matches_reference(random_edges(100000, 100000, 50, seed), drop);
      // Ids crowded into the low end of a large vertex set.
      expect_matches_reference(random_edges(5000, 8, 100, seed), drop);
    }
  }
}

TEST(EdgeList, SortAndDedupEdgeCases) {
  for (const bool drop : {true, false}) {
    expect_matches_reference(EdgeList{0}, drop);
    expect_matches_reference(EdgeList{7}, drop);
    EdgeList single{1};
    single.add(0, 0);
    single.add(0, 0);
    expect_matches_reference(single, drop);
    EdgeList loops_only{3};
    loops_only.add(2, 2);
    loops_only.add(1, 1);
    loops_only.add(2, 2);
    expect_matches_reference(loops_only, drop);
  }
}

TEST(EdgeList, SortAndDedupRejectsOutOfRangeEndpoints) {
  // add() does not range-check; the sort indexes its counters by the
  // endpoints, so it must refuse instead of writing past them.
  EdgeList high{4};
  high.add(4, 0);
  EXPECT_THROW(high.sort_and_dedup(), std::invalid_argument);
  EdgeList high_v{4};
  high_v.add(0, 1);
  high_v.edges().push_back(Edge{2, 4});
  EXPECT_THROW(high_v.sort_and_dedup(), std::invalid_argument);
  EdgeList negative{4};
  negative.add(-1, 2);
  EXPECT_THROW(negative.sort_and_dedup(/*drop_self_loops=*/false),
               std::invalid_argument);
  // An out-of-range self-loop is still an error, not a silent drop.
  EdgeList loop{4};
  loop.add(9, 9);
  EXPECT_THROW(loop.sort_and_dedup(), std::invalid_argument);
}

}  // namespace
}  // namespace dbfs::graph
