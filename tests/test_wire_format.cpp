// Unit tests for the wire-format codecs (comm/wire_format.hpp) and the
// sender-side visited sieve (comm/sieve.hpp).
#include "comm/wire_format.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bfs/frontier.hpp"
#include "comm/sieve.hpp"
#include "util/prng.hpp"

namespace dbfs::comm {
namespace {

using bfs::Candidate;

bool operator_eq(const Candidate& a, const Candidate& b) {
  return a.vertex == b.vertex && a.parent == b.parent;
}

std::vector<Candidate> roundtrip(const std::vector<Candidate>& block,
                                 WireFormat format,
                                 WireStats* stats = nullptr) {
  std::vector<std::uint8_t> bytes;
  encode_candidates<Candidate>(block, format, bytes, stats);
  std::vector<Candidate> out;
  decode_candidate_stream<Candidate>(bytes.data(), bytes.size(), out);
  return out;
}

void expect_equal(const std::vector<Candidate>& a,
                  const std::vector<Candidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(operator_eq(a[i], b[i]))
        << "i=" << i << " (" << a[i].vertex << "," << a[i].parent << ") vs ("
        << b[i].vertex << "," << b[i].parent << ")";
  }
}

TEST(Uvarint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,     1,        127,        128,
                                  16383, 16384,    (1u << 21) - 1,
                                  1u << 21,        0x00FF00FF00FF00FFull,
                                  ~std::uint64_t{0}};
  for (std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_uvarint(buf, v);
    EXPECT_EQ(buf.size(), uvarint_size(v)) << v;
    std::uint64_t back = 0;
    const std::size_t used = get_uvarint(buf.data(), buf.size(), &back);
    EXPECT_EQ(used, buf.size()) << v;
    EXPECT_EQ(back, v);
  }
}

TEST(Uvarint, SizeMatchesBytesWritten) {
  const std::uint64_t values[] = {0,
                                  127,
                                  128,
                                  (std::uint64_t{1} << 14) - 1,
                                  std::uint64_t{1} << 14,
                                  std::uint64_t{1} << 63,
                                  UINT64_MAX};
  for (std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_uvarint(buf, v);
    EXPECT_EQ(uvarint_size(v), buf.size()) << v;
  }
}

TEST(Uvarint, ThrowsOnTruncation) {
  std::vector<std::uint8_t> buf;
  put_uvarint(buf, 300);  // two bytes
  std::uint64_t v = 0;
  EXPECT_THROW(get_uvarint(buf.data(), 1, &v), WireDecodeError);
  EXPECT_THROW(get_uvarint(buf.data(), 0, &v), WireDecodeError);
}

TEST(ParseWireFormat, NamesRoundTrip) {
  for (WireFormat f : {WireFormat::kRaw, WireFormat::kSieve,
                       WireFormat::kBitmap, WireFormat::kVarint,
                       WireFormat::kAuto}) {
    EXPECT_EQ(parse_wire_format(to_string(f)), f);
  }
  EXPECT_THROW(parse_wire_format("zstd"), std::invalid_argument);
}

TEST(WireStats, RatioHelpersHandleEmptyAndTypicalCounts) {
  WireStats empty;
  EXPECT_DOUBLE_EQ(empty.compression_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(empty.raw_block_share(), 0.0);

  WireStats s;
  s.raw_bytes = 1000;
  s.encoded_bytes = 250;
  s.blocks_items = 1;
  s.blocks_bitmap = 2;
  s.blocks_varint = 1;
  EXPECT_DOUBLE_EQ(s.compression_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(s.raw_block_share(), 0.25);
}

TEST(WireFormat, PredicatesMatchSemantics) {
  EXPECT_FALSE(wire_sieves(WireFormat::kRaw));
  EXPECT_TRUE(wire_sieves(WireFormat::kSieve));
  EXPECT_FALSE(wire_compresses(WireFormat::kSieve));
  EXPECT_TRUE(wire_compresses(WireFormat::kBitmap));
  EXPECT_TRUE(wire_compresses(WireFormat::kVarint));
  EXPECT_TRUE(wire_compresses(WireFormat::kAuto));
}

TEST(CandidateCodec, EmptyBlockEncodesToNothing) {
  std::vector<std::uint8_t> bytes;
  WireStats stats;
  encode_candidates<Candidate>(std::vector<Candidate>{}, WireFormat::kAuto,
                               bytes, &stats);
  EXPECT_TRUE(bytes.empty());
  EXPECT_EQ(stats.items, 0u);
  std::vector<Candidate> out;
  decode_candidate_stream<Candidate>(bytes.data(), bytes.size(), out);
  EXPECT_TRUE(out.empty());
}

TEST(CandidateCodec, RoundTripsEveryFormat) {
  // Sorted, unique targets — the shape sieve_and_dedup produces.
  const std::vector<Candidate> block = {
      {0, 7}, {1, 0}, {5, 900000}, {6, 6}, {1000, 3}, {1000000, 999999}};
  for (WireFormat f : {WireFormat::kRaw, WireFormat::kSieve,
                       WireFormat::kBitmap, WireFormat::kVarint,
                       WireFormat::kAuto}) {
    expect_equal(roundtrip(block, f), block);
  }
}

TEST(CandidateCodec, DenseBlockPrefersBitmap) {
  // 64 consecutive targets with small parents: the presence bitmap (8
  // bytes) plus one-byte parents beats both raw items and varints.
  std::vector<Candidate> block;
  for (vid_t v = 0; v < 64; ++v) block.push_back({v, 1});
  WireStats stats;
  const auto out = roundtrip(block, WireFormat::kAuto, &stats);
  expect_equal(out, block);
  EXPECT_EQ(stats.blocks_bitmap, 1u);
  EXPECT_LT(stats.encoded_bytes, stats.raw_bytes);
}

TEST(CandidateCodec, SparseBlockPrefersVarint) {
  // Widely-spaced targets: a bitmap over the range would dwarf the items.
  std::vector<Candidate> block;
  for (vid_t v = 0; v < 32; ++v) block.push_back({v * 1000003, 2});
  WireStats stats;
  const auto out = roundtrip(block, WireFormat::kAuto, &stats);
  expect_equal(out, block);
  EXPECT_EQ(stats.blocks_varint, 1u);
  EXPECT_LT(stats.encoded_bytes, stats.raw_bytes);
}

TEST(CandidateCodec, AutoNeverExceedsRawPlusFrame) {
  util::Xoshiro256 rng{42};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Candidate> block;
    vid_t v = 0;
    const int len = 1 + static_cast<int>(rng.next_below(40));
    for (int i = 0; i < len; ++i) {
      v += 1 + static_cast<vid_t>(rng.next_below(1u << 16));
      block.push_back(
          {v, static_cast<vid_t>(rng.next_below(1u << 20))});
    }
    WireStats stats;
    expect_equal(roundtrip(block, WireFormat::kAuto, &stats), block);
    // Frame overhead: tag + count + payload length (few bytes).
    EXPECT_LE(stats.encoded_bytes, stats.raw_bytes + 12);
  }
}

TEST(CandidateCodec, BitmapFallsBackToVarintOnDuplicates) {
  // Duplicate targets cannot be expressed by a presence bitmap; the
  // kBitmap policy must fall back per block, not corrupt the stream.
  const std::vector<Candidate> block = {{3, 9}, {3, 5}, {4, 1}};
  WireStats stats;
  const auto out = roundtrip(block, WireFormat::kBitmap, &stats);
  expect_equal(out, block);
  EXPECT_EQ(stats.blocks_bitmap, 0u);
  EXPECT_EQ(stats.blocks_varint, 1u);
}

TEST(CandidateCodec, ConcatenatedBlocksDecodeInOrder) {
  const std::vector<Candidate> a = {{1, 2}, {3, 4}};
  const std::vector<Candidate> b = {{2, 8}, {100, 1}};
  std::vector<std::uint8_t> bytes;
  encode_candidates<Candidate>(a, WireFormat::kVarint, bytes, nullptr);
  encode_candidates<Candidate>(b, WireFormat::kBitmap, bytes, nullptr);
  encode_candidates<Candidate>(std::vector<Candidate>{}, WireFormat::kAuto,
                               bytes, nullptr);
  std::vector<Candidate> out;
  decode_candidate_stream<Candidate>(bytes.data(), bytes.size(), out);
  std::vector<Candidate> expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  expect_equal(out, expected);
}

TEST(CandidateCodec, TruncatedStreamThrows) {
  const std::vector<Candidate> block = {{1, 2}, {3, 4}, {5, 6}};
  for (WireFormat f :
       {WireFormat::kSieve, WireFormat::kBitmap, WireFormat::kVarint}) {
    std::vector<std::uint8_t> bytes;
    encode_candidates<Candidate>(block, f, bytes, nullptr);
    std::vector<Candidate> out;
    EXPECT_THROW(
        decode_candidate_stream<Candidate>(bytes.data(), bytes.size() - 1,
                                           out),
        WireDecodeError)
        << to_string(f);
  }
}

TEST(CandidateCodec, GarbageTagThrows) {
  std::vector<std::uint8_t> bytes = {0xEE, 0x01, 0x01, 0x00};
  std::vector<Candidate> out;
  EXPECT_THROW(decode_candidate_stream<Candidate>(bytes.data(), bytes.size(),
                                                  out),
               WireDecodeError);
}

TEST(VertexListCodec, RoundTripsEveryFormat) {
  const std::vector<vid_t> list = {0, 1, 2, 3, 900, 901, 5000000};
  for (WireFormat f : {WireFormat::kRaw, WireFormat::kSieve,
                       WireFormat::kBitmap, WireFormat::kVarint,
                       WireFormat::kAuto}) {
    std::vector<std::uint8_t> bytes;
    WireStats stats;
    encode_vertex_list(list, f, bytes, &stats);
    std::vector<vid_t> out;
    decode_vertex_stream(bytes.data(), bytes.size(), out);
    EXPECT_EQ(out, list) << to_string(f);
    EXPECT_EQ(stats.items, list.size());
  }
}

TEST(VertexListCodec, DenseRangeCompressesHard) {
  std::vector<vid_t> list;
  for (vid_t v = 1000; v < 1512; ++v) list.push_back(v);
  std::vector<std::uint8_t> bytes;
  WireStats stats;
  encode_vertex_list(list, WireFormat::kAuto, bytes, &stats);
  std::vector<vid_t> out;
  decode_vertex_stream(bytes.data(), bytes.size(), out);
  EXPECT_EQ(out, list);
  // 512 consecutive ids: 64 presence bytes + header vs 4096 raw bytes.
  EXPECT_LT(stats.encoded_bytes, stats.raw_bytes / 10);
}

TEST(Sieve, MarkTestAndMarkAll) {
  Sieve sieve;
  sieve.reset(3, 200);
  EXPECT_FALSE(sieve.test(0, 150));
  sieve.mark(0, 150);
  EXPECT_TRUE(sieve.test(0, 150));
  EXPECT_FALSE(sieve.test(1, 150));  // rank-private bitmaps
  sieve.mark_all(7);
  for (int r = 0; r < 3; ++r) EXPECT_TRUE(sieve.test(r, 7));
  sieve.reset(3, 200);
  EXPECT_FALSE(sieve.test(0, 150));  // reset clears
}

/// Run sieve_and_dedup on a copy of `block` and return the kept prefix.
std::vector<Candidate> dedup(Sieve& sieve, int rank,
                             std::vector<Candidate> block,
                             DedupScratch& scratch) {
  const std::size_t kept =
      sieve_and_dedup(sieve, rank, std::span<Candidate>(block), scratch);
  block.resize(kept);
  return block;
}

TEST(Sieve, SieveAndDedupDropsVisitedAndMarksSurvivors) {
  Sieve sieve;
  sieve.reset(2, 100);
  sieve.mark(0, 10);
  DedupScratch scratch;
  const auto kept = dedup(sieve, 0, {{10, 1}, {20, 2}, {30, 3}}, scratch);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].vertex, 20);
  EXPECT_EQ(kept[1].vertex, 30);
  EXPECT_TRUE(sieve.test(0, 20));
  EXPECT_TRUE(sieve.test(0, 30));
  // A later level re-sending the survivors drops them entirely.
  EXPECT_TRUE(dedup(sieve, 0, {{20, 9}, {30, 9}}, scratch).empty());
}

TEST(Sieve, DedupKeepsMaxParentFor1D) {
  // 1D owners keep the largest parent at the reach level, so the sender
  // must ship the max-parent duplicate whatever its position.
  Sieve sieve;
  sieve.reset(1, 100);
  DedupScratch scratch;
  const auto kept =
      dedup(sieve, 0, {{5, 99}, {2, 1}, {5, 40}, {2, 7}, {5, 3}}, scratch);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].vertex, 2);
  EXPECT_EQ(kept[0].parent, 7);  // max parent of 2, second occurrence
  EXPECT_EQ(kept[1].vertex, 5);
  EXPECT_EQ(kept[1].parent, 99);  // max parent of 5, first occurrence
}

TEST(Sieve, DedupKeepsMaxParentFor2D) {
  // 2D owners combine duplicates by max parent.
  Sieve sieve;
  sieve.reset(1, 100);
  DedupScratch scratch;
  const auto kept =
      dedup(sieve, 0, {{5, 40}, {2, 7}, {5, 99}, {2, 1}}, scratch);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].vertex, 2);
  EXPECT_EQ(kept[0].parent, 7);
  EXPECT_EQ(kept[1].vertex, 5);
  EXPECT_EQ(kept[1].parent, 99);  // max parent kept
}

TEST(Sieve, OutputSortedForCompressingCodecs) {
  Sieve sieve;
  sieve.reset(1, 1000);
  DedupScratch scratch;
  const auto kept =
      dedup(sieve, 0, {{500, 1}, {3, 2}, {77, 3}, {3, 9}}, scratch);
  for (std::size_t i = 1; i < kept.size(); ++i) {
    EXPECT_LT(kept[i - 1].vertex, kept[i].vertex);
  }
  // Sorted + unique means the block is bitmap-encodable.
  WireStats stats;
  std::vector<std::uint8_t> bytes;
  encode_candidates<Candidate>(kept, WireFormat::kBitmap, bytes, &stats);
  EXPECT_EQ(stats.blocks_bitmap, 1u);
}

/// The sort-based definition the in-place dedup must reproduce: drop
/// sieved targets, order by (vertex asc, parent desc), keep the first of
/// each vertex, mark the survivors.
std::vector<Candidate> reference_dedup(Sieve& sieve, int rank,
                                       std::vector<Candidate> block) {
  std::erase_if(block,
                [&](const Candidate& c) { return sieve.test(rank, c.vertex); });
  std::sort(block.begin(), block.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.vertex != b.vertex ? a.vertex < b.vertex
                                          : a.parent > b.parent;
            });
  block.erase(std::unique(block.begin(), block.end(),
                          [](const Candidate& a, const Candidate& b) {
                            return a.vertex == b.vertex;
                          }),
              block.end());
  for (const Candidate& c : block) sieve.mark(rank, c.vertex);
  return block;
}

/// Run both dedups from identically pre-marked sieves (checksums armed)
/// and require the same kept block, the same bitmap and the same sum.
void expect_matches_reference(const std::vector<Candidate>& block, vid_t n,
                              const std::vector<vid_t>& premarked,
                              DedupScratch& scratch) {
  Sieve fast;
  Sieve ref;
  for (Sieve* s : {&fast, &ref}) {
    s->enable_checksums(true);
    s->reset(2, n);
    for (vid_t v : premarked) s->mark(1, v);
  }
  expect_equal(dedup(fast, 1, block, scratch),
               reference_dedup(ref, 1, block));
  for (vid_t v = 0; v < n; ++v) {
    ASSERT_EQ(fast.test(1, v), ref.test(1, v)) << "v=" << v;
  }
  EXPECT_EQ(fast.sum(1), ref.sum(1));
  EXPECT_EQ(fast.sum(0), 0u);  // other ranks' rows untouched
}

TEST(Sieve, DedupMatchesSortReferenceOnEdgeCases) {
  const vid_t n = 200;
  DedupScratch scratch;
  // Empty block.
  expect_matches_reference({}, n, {}, scratch);
  // Every target already sieved.
  expect_matches_reference({{4, 1}, {9, 2}, {4, 3}}, n, {4, 9}, scratch);
  // A single survivor among sieved targets.
  expect_matches_reference({{4, 1}, {150, 8}, {9, 2}}, n, {4, 9}, scratch);
  // Duplicates at vertex 0 and at n - 1.
  expect_matches_reference(
      {{n - 1, 3}, {0, 5}, {n - 1, 11}, {0, 2}, {0, 7}, {n - 1, 0}}, n, {},
      scratch);
  // Two survivors spanning the whole owner range.
  expect_matches_reference({{n - 1, 1}, {0, 2}}, n, {}, scratch);
  // Mostly duplicates.
  std::vector<Candidate> dups;
  for (vid_t i = 0; i < 500; ++i) dups.push_back({100 + i % 3, i % 17});
  expect_matches_reference(dups, n, {101}, scratch);
}

TEST(Sieve, DedupMatchesSortReferenceOnRandomBlocks) {
  // One scratch across all blocks, as in the engines: a bitmap left dirty
  // by one block would corrupt the next.
  util::Xoshiro256 rng{2024};
  auto below = [&](vid_t bound) {
    return static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(bound)));
  };
  DedupScratch scratch;
  for (int trial = 0; trial < 300; ++trial) {
    // A random owner range [lo, lo + span) inside [0, n), a block of up
    // to 400 candidates drawn from it, and some pre-sieved vertices.
    const vid_t n = 1 + below(3000);
    const vid_t lo = below(n);
    const vid_t span = 1 + below(n - lo);
    const vid_t k = below(400);
    std::vector<Candidate> block;
    for (vid_t i = 0; i < k; ++i) block.push_back({lo + below(span), below(n)});
    std::vector<vid_t> premarked;
    for (vid_t i = below(k + 1); i > 0; --i) premarked.push_back(below(n));
    SCOPED_TRACE(trial);
    expect_matches_reference(block, n, premarked, scratch);
  }
}

/// Sort+unique definition of the shared dedup core: order by (vertex
/// asc, parent desc) and keep the first of each vertex.
std::vector<Candidate> reference_merge(std::vector<Candidate> block) {
  std::sort(block.begin(), block.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.vertex != b.vertex ? a.vertex < b.vertex
                                          : a.parent > b.parent;
            });
  block.erase(std::unique(block.begin(), block.end(),
                          [](const Candidate& a, const Candidate& b) {
                            return a.vertex == b.vertex;
                          }),
              block.end());
  return block;
}

/// Run dedup_max_parent over [lo, hi] on a copy of `block`; the callback
/// must see exactly the kept targets, in order.
void expect_core_matches_reference(const std::vector<Candidate>& block,
                                   vid_t lo, vid_t hi,
                                   DedupScratch& scratch) {
  std::vector<Candidate> got = block;
  std::vector<vid_t> seen;
  const std::size_t kept =
      dedup_max_parent(std::span<Candidate>(got), lo, hi, scratch,
                       [&](vid_t v) { seen.push_back(v); });
  got.resize(kept);
  const auto want = reference_merge(block);
  expect_equal(got, want);
  ASSERT_EQ(seen.size(), want.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], want[i].vertex);
  }
}

TEST(Sieve, DedupCoreMergesSortedRunsWithCrossRunDuplicates) {
  // An owner's receive buffer: s senders' blocks, each ascending and
  // unique, concatenated, with the same target arriving from several
  // senders under different parents.
  util::Xoshiro256 rng{17};
  DedupScratch scratch;
  const vid_t lo = 4096;
  const vid_t width = 256;
  for (int s : {1, 2, 7, 32}) {
    std::vector<Candidate> recv;
    for (int run = 0; run < s; ++run) {
      for (vid_t v = lo; v < lo + width; ++v) {
        if (rng.next_below(3) == 0) {
          recv.push_back({v, static_cast<vid_t>(rng.next_below(1u << 20))});
        }
      }
    }
    SCOPED_TRACE(s);
    expect_core_matches_reference(recv, lo, lo + width - 1, scratch);
  }
}

TEST(Sieve, DedupCoreSingleTargetSpan) {
  // lo == hi: every candidate names the same vertex.
  DedupScratch scratch;
  expect_core_matches_reference({{9, 4}, {9, 12}, {9, 0}, {9, 12}}, 9, 9,
                                scratch);
  expect_core_matches_reference({{0, 3}}, 0, 0, scratch);
}

TEST(Sieve, DedupCoreFullPieceWidth) {
  // [lo, hi] given as the owner's whole piece, wider than the targets,
  // including the piece's first and last vertex.
  DedupScratch scratch;
  const vid_t lo = 1000;
  const vid_t hi = 1000 + 333;
  expect_core_matches_reference({{hi, 1}, {lo, 2}, {1100, 5}, {hi, 9}}, lo,
                                hi, scratch);
  expect_core_matches_reference({{1100, 5}, {1100, 7}}, lo, hi, scratch);
  expect_core_matches_reference({}, lo, hi, scratch);
}

TEST(Sieve, DedupCoreMatchesSortOnRandomBlocksOneScratch) {
  // One scratch across blocks of varying span: a bitmap left dirty by
  // one block, or a stale max-parent slot, would corrupt the next.
  util::Xoshiro256 rng{2025};
  auto below = [&](vid_t bound) {
    return static_cast<vid_t>(
        rng.next_below(static_cast<std::uint64_t>(bound)));
  };
  DedupScratch scratch;
  for (int trial = 0; trial < 300; ++trial) {
    const vid_t lo = below(5000);
    const vid_t span = 1 + below(2000);
    const vid_t k = below(500);
    std::vector<Candidate> block;
    for (vid_t i = 0; i < k; ++i) {
      block.push_back({lo + below(span), below(1 << 20)});
    }
    SCOPED_TRACE(trial);
    expect_core_matches_reference(block, lo, lo + span - 1, scratch);
  }
}

}  // namespace
}  // namespace dbfs::comm
