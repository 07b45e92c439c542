#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sparse/csc_matrix.hpp"
#include "sparse/dcsc_matrix.hpp"
#include "util/prng.hpp"

namespace dbfs::sparse {
namespace {

std::vector<Triple> random_triples(vid_t nrows, vid_t ncols, int count,
                                   std::uint64_t seed) {
  util::Xoshiro256 rng{seed};
  std::vector<Triple> t;
  t.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    t.push_back(Triple{
        static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(nrows))),
        static_cast<vid_t>(
            rng.next_below(static_cast<std::uint64_t>(ncols)))});
  }
  return t;
}

TEST(CscMatrix, BuildsSortedDedupedColumns) {
  const auto m = CscMatrix::from_triples(
      4, 3, {{2, 1}, {0, 1}, {2, 1}, {3, 0}});
  EXPECT_EQ(m.nnz(), 3);
  const auto col1 = m.column(1);
  ASSERT_EQ(col1.size(), 2u);
  EXPECT_EQ(col1[0], 0);
  EXPECT_EQ(col1[1], 2);
  EXPECT_EQ(m.column(2).size(), 0u);
}

TEST(CscMatrix, RejectsOutOfRange) {
  EXPECT_THROW(CscMatrix::from_triples(2, 2, {{2, 0}}), std::invalid_argument);
  EXPECT_THROW(CscMatrix::from_triples(2, 2, {{0, -1}}),
               std::invalid_argument);
}

TEST(DcscMatrix, MatchesCscColumnwise) {
  const auto triples = random_triples(64, 48, 300, 3);
  const auto csc = CscMatrix::from_triples(64, 48, triples);
  const auto dcsc = DcscMatrix::from_triples(64, 48, triples);
  EXPECT_EQ(csc.nnz(), dcsc.nnz());
  for (vid_t c = 0; c < 48; ++c) {
    const auto a = csc.column(c);
    const auto b = dcsc.column(c);
    ASSERT_EQ(a.size(), b.size()) << "column " << c;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

void expect_same_structure(const DcscMatrix& a, const DcscMatrix& b) {
  EXPECT_EQ(a.nrows(), b.nrows());
  EXPECT_EQ(a.ncols(), b.ncols());
  EXPECT_EQ(a.jc(), b.jc());
  EXPECT_EQ(a.cp(), b.cp());
  EXPECT_EQ(a.ir(), b.ir());
}

TEST(DcscMatrix, SortedAndShuffledInputsBuildIdentically) {
  const auto col_major = [](const Triple& a, const Triple& b) {
    return a.col != b.col ? a.col < b.col : a.row < b.row;
  };
  struct Shape {
    vid_t ncols;
    int count;
  };
  // Dense (many duplicates) and hypersparse (few occupied columns).
  for (const Shape shape : {Shape{30, 400}, Shape{5000, 12}}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto shuffled =
          random_triples(40, shape.ncols, shape.count, seed);
      auto sorted = shuffled;
      std::sort(sorted.begin(), sorted.end(), col_major);
      const auto a = DcscMatrix::from_triples(40, shape.ncols, shuffled);
      const auto b = DcscMatrix::from_triples(40, shape.ncols, sorted);
      expect_same_structure(a, b);
      for (vid_t k = 0; k < a.nzc(); ++k) {
        const auto rows = a.nonzero_column(k);
        EXPECT_TRUE(std::adjacent_find(rows.begin(), rows.end(),
                                       std::greater_equal<>()) == rows.end());
      }
    }
  }
}

TEST(DcscMatrix, EmptyMatrix) {
  const auto m = DcscMatrix::from_triples(10, 10, {});
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_EQ(m.nzc(), 0);
  EXPECT_EQ(m.column(5).size(), 0u);
}

TEST(DcscMatrix, NzcCountsOnlyOccupiedColumns) {
  const auto m = DcscMatrix::from_triples(4, 100, {{0, 3}, {1, 3}, {2, 97}});
  EXPECT_EQ(m.nzc(), 2);
  EXPECT_EQ(m.nonzero_column_id(0), 3);
  EXPECT_EQ(m.nonzero_column_id(1), 97);
  EXPECT_EQ(m.nonzero_column(0).size(), 2u);
}

TEST(DcscMatrix, HypersparseMemoryBeatsCsc) {
  // 2^16 columns, only 100 occupied: DCSC stores O(nnz + nzc), while CSC
  // pays O(ncols) for the pointer array — the §4.1 argument.
  const vid_t ncols = 1 << 16;
  std::vector<Triple> t;
  for (int i = 0; i < 100; ++i) {
    t.push_back(Triple{i % 50, i * 600});
  }
  const auto dcsc = DcscMatrix::from_triples(64, ncols, t);
  const auto csc = CscMatrix::from_triples(64, ncols, t);
  const std::size_t csc_bytes =
      csc.col_ptr().capacity() * sizeof(eid_t) +
      csc.row_ids().capacity() * sizeof(vid_t);
  EXPECT_LT(dcsc.memory_bytes(), csc_bytes / 10);
}

TEST(DcscMatrix, ColumnLookupAllColumns) {
  const auto triples = random_triples(32, 1024, 200, 9);
  const auto csc = CscMatrix::from_triples(32, 1024, triples);
  const auto dcsc = DcscMatrix::from_triples(32, 1024, triples);
  for (vid_t c = 0; c < 1024; ++c) {
    EXPECT_EQ(dcsc.column(c).size(), csc.column(c).size());
  }
}

TEST(DcscMatrix, ColumnLookupOutOfRangeIsEmpty) {
  const auto m = DcscMatrix::from_triples(4, 4, {{0, 0}});
  EXPECT_EQ(m.column(-1).size(), 0u);
  EXPECT_EQ(m.column(4).size(), 0u);
}

TEST(DcscMatrix, SplitRowwisePreservesEntries) {
  const auto triples = random_triples(100, 40, 500, 21);
  const auto whole = DcscMatrix::from_triples(100, 40, triples);
  const auto pieces = whole.split_rowwise(3);
  ASSERT_EQ(pieces.size(), 3u);
  // Piece row counts: 33, 33, 34.
  EXPECT_EQ(pieces[0].nrows(), 33);
  EXPECT_EQ(pieces[1].nrows(), 33);
  EXPECT_EQ(pieces[2].nrows(), 34);
  eid_t total = 0;
  for (const auto& piece : pieces) total += piece.nnz();
  EXPECT_EQ(total, whole.nnz());

  // Reassemble every column from the re-based pieces and compare.
  for (vid_t c = 0; c < 40; ++c) {
    std::vector<vid_t> reassembled;
    for (std::size_t piece = 0; piece < pieces.size(); ++piece) {
      const vid_t base = static_cast<vid_t>(piece) * 33;
      for (vid_t r : pieces[piece].column(c)) {
        reassembled.push_back(base + r);
      }
    }
    const auto original = whole.column(c);
    ASSERT_EQ(reassembled.size(), original.size()) << "column " << c;
    EXPECT_TRUE(
        std::equal(reassembled.begin(), reassembled.end(), original.begin()));
  }
}

TEST(DcscMatrix, SplitRowwiseSinglePieceIsIdentity) {
  const auto triples = random_triples(20, 20, 50, 4);
  const auto whole = DcscMatrix::from_triples(20, 20, triples);
  const auto pieces = whole.split_rowwise(1);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].nnz(), whole.nnz());
}

TEST(DcscMatrix, SplitRejectsBadCount) {
  const auto m = DcscMatrix::from_triples(4, 4, {});
  EXPECT_THROW(m.split_rowwise(0), std::invalid_argument);
}

}  // namespace
}  // namespace dbfs::sparse
