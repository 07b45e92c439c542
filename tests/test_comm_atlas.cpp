// Per-rank-pair communication atlas (src/obs/comm_atlas.cpp): unit
// coverage for the matrix/ledger/analytics, engine-level reconciliation
// against the TrafficMeter, the report byte totals, the comm.bytes.*
// counters and the wire codec accounting — across both distributed
// algorithms, every wire format, and a chaos fault plan with a mid-run
// rank kill (shrink recovery must neither lose nor double-count a
// byte) — plus the passivity guarantee (attaching an atlas leaves the
// report JSON byte-identical) and the doctor's traffic-skew /
// hotspot-rank golden scenario.
#include "obs/comm_atlas.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bfs/report_json.hpp"
#include "core/engine.hpp"
#include "obs/bench_record.hpp"
#include "obs/doctor.hpp"
#include "obs/flight_recorder.hpp"
#include "simmpi/traffic.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"

namespace dbfs {
namespace {

int pid(simmpi::Pattern p) { return static_cast<int>(p); }

// ---------------------------------------------------------------------
// Unit: slices, ledgers, analytics.

TEST(CommAtlas, SliceDualLedgerSplitsMeteredFromLocal) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(4);
  auto& sl = atlas.slice(pid(simmpi::Pattern::kAlltoallv), "Alltoallv",
                         "site", 0);
  sl.add(0, 1, 100);
  sl.add(1, 0, 40);
  sl.add_local(2, 60);
  EXPECT_EQ(sl.total_bytes, 200u);
  EXPECT_EQ(sl.local_bytes, 60u);
  EXPECT_EQ(sl.metered_bytes(), 140u);
  EXPECT_EQ(atlas.pattern_bytes(pid(simmpi::Pattern::kAlltoallv)), 140u);
  EXPECT_EQ(atlas.pattern_total_bytes(pid(simmpi::Pattern::kAlltoallv)),
            200u);
  EXPECT_EQ(atlas.site_total_bytes("site"), 200u);
}

TEST(CommAtlas, SummaryAnalyticsOnHandBuiltMatrix) {
  // 2x2 grid, row-major ranks: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1).
  obs::CommAtlas atlas;
  atlas.ensure_ranks(4);
  atlas.set_grid(2, 2);
  auto& sl = atlas.slice(pid(simmpi::Pattern::kAlltoallv), "Alltoallv",
                         "site", 0);
  sl.add(0, 1, 100);      // same row -> subcommunicator-local
  sl.add(0, 2, 300);      // same column -> subcommunicator-local
  sl.add(0, 3, 600);      // straddles both groups -> grid-wide
  sl.add_local(2, 50);    // diagonal, unmetered

  const obs::AtlasSummary s = atlas.summary();
  EXPECT_EQ(s.ranks, 4);
  EXPECT_EQ(s.total_bytes, 1050u);
  EXPECT_EQ(s.self_bytes, 50u);
  EXPECT_EQ(s.network_bytes, 1000u);
  EXPECT_EQ(s.max_pair_bytes, 600u);
  EXPECT_EQ(s.max_pair_src, 0);
  EXPECT_EQ(s.max_pair_dst, 3);
  EXPECT_DOUBLE_EQ(s.max_pair_share, 0.6);
  EXPECT_EQ(s.hotspot_rank, 0);  // rank 0 sends all 1000 network bytes
  EXPECT_EQ(s.incast_rank, 3);   // rank 3 receives the most (600)
  // Sender volumes [1000,0,0,0]: max/mean = 1000/250.
  EXPECT_DOUBLE_EQ(s.row_skew, 4.0);
  // Receiver volumes [0,100,300,600]: max/mean = 600/250.
  EXPECT_DOUBLE_EQ(s.col_skew, 2.4);
  EXPECT_EQ(s.subcomm_bytes, 400u);
  EXPECT_DOUBLE_EQ(s.locality_share, 0.4);
  EXPECT_DOUBLE_EQ(s.self_share, 50.0 / 1050.0);
}

TEST(CommAtlas, PairSubcommClassification) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(4);
  atlas.set_grid(2, 2);
  EXPECT_TRUE(atlas.pair_is_subcomm(0, 1));   // row 0
  EXPECT_TRUE(atlas.pair_is_subcomm(2, 3));   // row 1
  EXPECT_TRUE(atlas.pair_is_subcomm(1, 3));   // column 1
  EXPECT_FALSE(atlas.pair_is_subcomm(0, 3));  // transpose partners
  EXPECT_FALSE(atlas.pair_is_subcomm(1, 2));

  // A 1xp grid's only row group IS the world: nothing is "local".
  atlas.set_grid(1, 4);
  EXPECT_FALSE(atlas.pair_is_subcomm(0, 1));
  EXPECT_FALSE(atlas.pair_is_subcomm(1, 3));
}

TEST(CommAtlas, EnsureRanksGrowthRelaysOutExistingCells) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(2);
  auto& sl = atlas.slice(pid(simmpi::Pattern::kTranspose), "Transpose",
                         "site", -1);
  sl.add(0, 1, 7);
  sl.add(1, 0, 9);
  atlas.ensure_ranks(4);
  EXPECT_EQ(atlas.ranks(), 4);
  const std::vector<std::uint64_t> m = atlas.matrix();
  ASSERT_EQ(m.size(), 16u);
  EXPECT_EQ(m[0 * 4 + 1], 7u);
  EXPECT_EQ(m[1 * 4 + 0], 9u);
  EXPECT_EQ(atlas.summary().total_bytes, 16u);

  // Shrinking is a no-op: pre-shrink pairs must stay addressable.
  atlas.ensure_ranks(2);
  EXPECT_EQ(atlas.ranks(), 4);
}

TEST(CommAtlas, ClearDropsSlicesButKeepsShape) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(8);
  atlas.set_grid(2, 4);
  atlas.slice(0, "Alltoallv", "site", 0).add(0, 1, 5);
  atlas.clear();
  EXPECT_TRUE(atlas.empty());
  EXPECT_EQ(atlas.ranks(), 8);
  EXPECT_EQ(atlas.grid_rows(), 2);
  EXPECT_EQ(atlas.grid_cols(), 4);
  EXPECT_EQ(atlas.summary().total_bytes, 0u);
}

TEST(CommAtlas, LevelCutIsolatesOneLevel) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(4);
  atlas.set_grid(2, 2);
  atlas.slice(0, "Alltoallv", "fold", 0).add(0, 1, 100);
  atlas.slice(0, "Alltoallv", "fold", 1).add(2, 0, 40);
  atlas.slice(0, "Alltoallv", "fold", 1).add_local(3, 8);

  const obs::AtlasLevelCut cut0 = atlas.level_cut(0);
  EXPECT_EQ(cut0.total_bytes, 100u);
  EXPECT_EQ(cut0.network_bytes, 100u);
  EXPECT_EQ(cut0.subcomm_bytes, 100u);
  EXPECT_EQ(cut0.hotspot_rank, 0);

  const obs::AtlasLevelCut cut1 = atlas.level_cut(1);
  EXPECT_EQ(cut1.total_bytes, 48u);
  EXPECT_EQ(cut1.network_bytes, 40u);
  EXPECT_EQ(cut1.subcomm_bytes, 40u);  // (2,0) share column 0
  EXPECT_EQ(cut1.hotspot_rank, 2);

  EXPECT_EQ(atlas.level_cut(7).total_bytes, 0u);
  EXPECT_EQ(atlas.level_cut(7).hotspot_rank, -1);
}

TEST(CommAtlas, WriteJsonParsesAndReconciles) {
  obs::CommAtlas atlas;
  atlas.ensure_ranks(4);
  atlas.set_grid(2, 2);
  atlas.slice(pid(simmpi::Pattern::kAlltoallv), "Alltoallv", "fold", 0)
      .add(0, 3, 600);
  atlas.slice(pid(simmpi::Pattern::kAllgatherv), "Allgatherv", "expand", 1)
      .add(1, 3, 250);
  atlas.slice(pid(simmpi::Pattern::kAlltoallv), "Alltoallv", "fold", 1)
      .add_local(2, 50);

  std::ostringstream out;
  atlas.write_json(out);
  const auto root = util::parse_json(out.str());
  const auto& a = root.at("atlas");
  EXPECT_EQ(a.at("ranks").as_int(), 4);
  EXPECT_EQ(a.at("grid").at("rows").as_int(), 2);
  EXPECT_EQ(a.at("summary").at("total_bytes").as_int(), 900);
  EXPECT_EQ(a.at("summary").at("self_bytes").as_int(), 50);
  ASSERT_EQ(a.at("matrix").items.size(), 4u);
  ASSERT_EQ(a.at("matrix").items[0].items.size(), 4u);
  EXPECT_EQ(a.at("matrix").items[0].items[3].as_int(), 600);
  // Patterns and sites each decompose the same total.
  long long pattern_sum = 0;
  for (const auto& p : a.at("patterns").items) {
    pattern_sum += p.at("bytes").as_int() + p.at("local_bytes").as_int();
  }
  EXPECT_EQ(pattern_sum, 900);
  long long site_sum = 0;
  for (const auto& s : a.at("sites").items) site_sum += s.at("bytes").as_int();
  EXPECT_EQ(site_sum, 900);
  ASSERT_EQ(a.at("levels").items.size(), 2u);
}

// ---------------------------------------------------------------------
// Differential: the sparse per-level pair ledgers against a dense
// reference that stores one ranks x ranks matrix per (pattern, site,
// level) bucket, fed the same seeded random records.

struct DenseAtlas {
  struct Bucket {
    std::vector<std::uint64_t> cells;
    std::uint64_t local = 0;
  };
  using Key = std::tuple<int, std::string, int>;
  int ranks = 0;
  std::map<Key, Bucket> buckets;

  void ensure_ranks(int grown) {
    if (grown <= ranks) return;
    for (auto& [key, b] : buckets) {
      std::vector<std::uint64_t> cells(static_cast<std::size_t>(grown * grown));
      for (int s = 0; s < ranks; ++s) {
        for (int d = 0; d < ranks; ++d) {
          cells[static_cast<std::size_t>(s * grown + d)] =
              b.cells[static_cast<std::size_t>(s * ranks + d)];
        }
      }
      b.cells = std::move(cells);
    }
    ranks = grown;
  }
  void add(const Key& key, int src, int dst, std::uint64_t bytes,
           bool local) {
    Bucket& b = buckets[key];
    b.cells.resize(static_cast<std::size_t>(ranks * ranks));
    b.cells[static_cast<std::size_t>(src * ranks + dst)] += bytes;
    if (local) b.local += bytes;
  }
  std::uint64_t sum(const Bucket& b) const {
    std::uint64_t total = 0;
    for (std::uint64_t c : b.cells) total += c;
    return total;
  }
  std::vector<std::uint64_t> matrix() const {
    std::vector<std::uint64_t> grand(static_cast<std::size_t>(ranks * ranks));
    for (const auto& [key, b] : buckets) {
      for (std::size_t i = 0; i < grand.size(); ++i) grand[i] += b.cells[i];
    }
    return grand;
  }
  // The pre-ledger O(buckets x ranks^2) level cut, verbatim in effect.
  obs::AtlasLevelCut level_cut(const obs::CommAtlas& grid, int level) const {
    obs::AtlasLevelCut cut;
    std::vector<std::uint64_t> sent(static_cast<std::size_t>(ranks));
    for (const auto& [key, b] : buckets) {
      if (std::get<2>(key) != level) continue;
      cut.total_bytes += sum(b);
      for (int s = 0; s < ranks; ++s) {
        for (int d = 0; d < ranks; ++d) {
          const std::uint64_t c = b.cells[static_cast<std::size_t>(s * ranks + d)];
          if (s == d || c == 0) continue;
          cut.network_bytes += c;
          sent[static_cast<std::size_t>(s)] += c;
          if (grid.pair_is_subcomm(s, d)) cut.subcomm_bytes += c;
        }
      }
    }
    std::uint64_t max_sent = 0;
    for (int r = 0; r < ranks; ++r) {
      if (sent[static_cast<std::size_t>(r)] > max_sent) {
        max_sent = sent[static_cast<std::size_t>(r)];
        cut.hotspot_rank = r;
      }
    }
    return cut;
  }
};

const char* const kPatternNames[] = {"Alltoallv", "Allgatherv", "Allreduce",
                                     "Transpose"};
const char* const kSites[] = {"fold", "expand", "allreduce", "transpose"};

// Record `count` random adds (one in five add_local) over ranks [0, span)
// into both atlases, spread over the given levels.
void record_random(util::Xoshiro256& rng, obs::CommAtlas& atlas,
                   DenseAtlas& dense, int span, std::vector<int> levels,
                   int count) {
  for (int i = 0; i < count; ++i) {
    const int pattern = static_cast<int>(rng.next_below(4));
    const char* site = kSites[rng.next_below(4)];
    const int level = levels[rng.next_below(levels.size())];
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(span)));
    const int dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(span)));
    const std::uint64_t bytes = 1 + rng.next_below(1000);
    auto& sl = atlas.slice(pattern, kPatternNames[pattern], site, level);
    const DenseAtlas::Key key{pattern, site, level};
    if (rng.next_below(5) == 0) {
      sl.add_local(src, bytes);
      dense.add(key, src, src, bytes, true);
    } else {
      sl.add(src, dst, bytes);
      dense.add(key, src, dst, bytes, false);
    }
  }
}

// The dense reference replayed through the public API: one add per
// non-zero cell per bucket, the layout's own canonical form.
void replay(const DenseAtlas& dense, const obs::CommAtlas& shape,
            obs::CommAtlas& out) {
  out.ensure_ranks(dense.ranks);
  out.set_grid(shape.grid_rows(), shape.grid_cols());
  for (const auto& [key, b] : dense.buckets) {
    const auto& [pattern, site, level] = key;
    const char* site_name = "";
    for (const char* s : kSites) {
      if (site == s) site_name = s;
    }
    auto& sl = out.slice(pattern, kPatternNames[pattern], site_name, level);
    for (int s = 0; s < dense.ranks; ++s) {
      for (int d = 0; d < dense.ranks; ++d) {
        const std::uint64_t c =
            b.cells[static_cast<std::size_t>(s * dense.ranks + d)];
        if (c != 0) sl.add(s, d, c);
      }
    }
    sl.local_bytes = b.local;
  }
}

void expect_matches_dense(const obs::CommAtlas& atlas,
                          const DenseAtlas& dense, const std::string& phase) {
  ASSERT_EQ(atlas.ranks(), dense.ranks) << phase;
  EXPECT_EQ(atlas.matrix(), dense.matrix()) << phase;
  for (int level = -1; level <= 6; ++level) {
    const obs::AtlasLevelCut got = atlas.level_cut(level);
    const obs::AtlasLevelCut want = dense.level_cut(atlas, level);
    EXPECT_EQ(got.total_bytes, want.total_bytes) << phase << " L" << level;
    EXPECT_EQ(got.network_bytes, want.network_bytes) << phase << " L" << level;
    EXPECT_EQ(got.subcomm_bytes, want.subcomm_bytes) << phase << " L" << level;
    EXPECT_EQ(got.hotspot_rank, want.hotspot_rank) << phase << " L" << level;
  }
  for (int pattern = 0; pattern < 4; ++pattern) {
    std::uint64_t metered = 0;
    for (const auto& [key, b] : dense.buckets) {
      if (std::get<0>(key) == pattern) metered += dense.sum(b) - b.local;
    }
    EXPECT_EQ(atlas.pattern_bytes(pattern), metered) << phase;
  }
  for (const char* site : kSites) {
    std::uint64_t total = 0;
    for (const auto& [key, b] : dense.buckets) {
      if (std::get<1>(key) == site) total += dense.sum(b);
    }
    EXPECT_EQ(atlas.site_total_bytes(site), total) << phase << " " << site;
  }
  obs::CommAtlas canonical;
  replay(dense, atlas, canonical);
  const obs::AtlasSummary got = atlas.summary();
  const obs::AtlasSummary want = canonical.summary();
  EXPECT_EQ(got.total_bytes, want.total_bytes) << phase;
  EXPECT_EQ(got.subcomm_bytes, want.subcomm_bytes) << phase;
  EXPECT_EQ(got.max_pair_bytes, want.max_pair_bytes) << phase;
  EXPECT_EQ(got.max_pair_src, want.max_pair_src) << phase;
  EXPECT_EQ(got.max_pair_dst, want.max_pair_dst) << phase;
  EXPECT_EQ(got.hotspot_rank, want.hotspot_rank) << phase;
  EXPECT_EQ(got.incast_rank, want.incast_rank) << phase;
  std::ostringstream got_json, want_json;
  atlas.write_json(got_json);
  canonical.write_json(want_json);
  EXPECT_EQ(got_json.str(), want_json.str()) << phase;
}

TEST(CommAtlas, LedgerMatchesDenseReferenceAcrossGrowthShrinkClearAndCoalesce) {
  util::Xoshiro256 rng{15};
  obs::CommAtlas atlas;
  DenseAtlas dense;
  const auto ensure = [&](int ranks) {
    atlas.ensure_ranks(ranks);
    dense.ensure_ranks(ranks);
  };

  ensure(6);
  atlas.set_grid(2, 3);
  record_random(rng, atlas, dense, 6, {-1, 0, 1, 2}, 400);
  expect_matches_dense(atlas, dense, "initial");

  // Growth partway through: earlier records keep their absolute ids.
  ensure(9);
  atlas.set_grid(3, 3);
  record_random(rng, atlas, dense, 9, {1, 2, 3}, 400);
  expect_matches_dense(atlas, dense, "grown");

  // A shrink re-fold installs a smaller grid after recording: every
  // pair, pre-shrink ones included, is classified under the final grid.
  atlas.set_grid(2, 4);
  record_random(rng, atlas, dense, 8, {3, 4}, 200);
  expect_matches_dense(atlas, dense, "shrunk");

  atlas.clear();
  dense.buckets.clear();
  EXPECT_TRUE(atlas.ledgers().empty());
  record_random(rng, atlas, dense, 9, {0, 1}, 300);
  expect_matches_dense(atlas, dense, "cleared");

  // One level far past 2 x ranks^2 records: the ledger coalesces in
  // place and stays bounded, with every sum unchanged.
  const std::size_t bound = 2u * 9u * 9u;
  record_random(rng, atlas, dense, 9, {5}, 20 * static_cast<int>(bound));
  EXPECT_LT(atlas.ledgers().at(5).size(), bound);
  expect_matches_dense(atlas, dense, "coalesced");
}

// ---------------------------------------------------------------------
// Engine-level reconciliation: the atlas's per-pattern pair sums must
// equal the TrafficMeter totals the report serializes, and the
// comm.bytes.<Pattern> counters, for every algorithm x wire format —
// with and without a chaos fault plan that kills a rank mid-run.

const graph::BuiltGraph& shared_graph() {
  static const graph::BuiltGraph built = test::rmat_graph(10, 8);
  return built;
}

simmpi::FaultPlan chaos_plan_with_kill() {
  simmpi::FaultPlan plan;
  plan.seed = 7;
  plan.collective_fail_rate = 0.02;
  plan.corrupt_rate = 0.01;
  simmpi::RankKill kill;
  kill.rank = 1;
  kill.at_level = 2;
  plan.rank_kills = {kill};
  return plan;
}

std::int64_t counter_of(const core::Engine& engine, const char* name) {
  const auto& counters = engine.metrics()->counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

void expect_reconciled(const core::Engine& engine,
                       const bfs::RunReport& report, bool killed,
                       const std::string& label) {
  using simmpi::Pattern;
  const obs::CommAtlas* atlas = engine.comm_atlas();
  ASSERT_NE(atlas, nullptr) << label;

  // Atlas pair sums == TrafficMeter totals (as the report records them).
  EXPECT_EQ(atlas->pattern_bytes(pid(Pattern::kAlltoallv)),
            report.alltoall_bytes)
      << label;
  EXPECT_EQ(atlas->pattern_bytes(pid(Pattern::kAllgatherv)) +
                atlas->pattern_bytes(pid(Pattern::kBroadcast)) +
                atlas->pattern_bytes(pid(Pattern::kGatherv)),
            report.allgather_bytes)
      << label;
  EXPECT_EQ(atlas->pattern_bytes(pid(Pattern::kTranspose)),
            report.transpose_bytes)
      << label;
  EXPECT_EQ(atlas->pattern_bytes(pid(Pattern::kAllreduce)),
            report.allreduce_bytes)
      << label;

  // Atlas pair sums == the comm.bytes.<Pattern> registry counters. The
  // PointToPoint counter also counts the unmetered recover-restore
  // transfer, so its equality only holds for runs without a kill.
  for (int p = 0; p < static_cast<int>(Pattern::kCount); ++p) {
    const auto pattern = static_cast<Pattern>(p);
    if (pattern == Pattern::kPointToPoint && killed) continue;
    const std::string name =
        std::string("comm.bytes.") + simmpi::to_string(pattern);
    EXPECT_EQ(atlas->pattern_bytes(p),
              static_cast<std::uint64_t>(counter_of(engine, name.c_str())))
        << label << " " << name;
  }

  // The matrix grand total equals the sum over every decomposition.
  const obs::AtlasSummary s = atlas->summary();
  std::uint64_t pattern_total = 0;
  for (int p = 0; p < static_cast<int>(Pattern::kCount); ++p) {
    pattern_total += atlas->pattern_total_bytes(p);
  }
  EXPECT_EQ(pattern_total, s.total_bytes) << label;
  EXPECT_EQ(s.self_bytes + s.network_bytes, s.total_bytes) << label;
  EXPECT_LE(s.subcomm_bytes, s.network_bytes) << label;
  EXPECT_GT(s.network_bytes, 0u) << label;
}

TEST(CommAtlasEngine, ReconcilesAcrossAlgorithmsWireFormatsAndFaults) {
  const graph::BuiltGraph& built = shared_graph();
  const vid_t source = test::hub_source(built.csr);
  const core::Algorithm algos[] = {core::Algorithm::kOneDFlat,
                                   core::Algorithm::kTwoDFlat};
  const comm::WireFormat wires[] = {
      comm::WireFormat::kRaw, comm::WireFormat::kSieve,
      comm::WireFormat::kBitmap, comm::WireFormat::kVarint,
      comm::WireFormat::kAuto};

  for (core::Algorithm algo : algos) {
    for (comm::WireFormat wire : wires) {
      for (bool killed : {false, true}) {
        core::EngineOptions opts;
        opts.algorithm = algo;
        opts.cores = 16;
        opts.wire_format = wire;
        opts.atlas = true;
        opts.metrics = true;
        if (killed) {
          opts.faults = chaos_plan_with_kill();
          opts.recover.policy = recover::Policy::kShrink;
          opts.recover.checkpoint_every = 1;
        }
        const std::string label = std::string(core::to_string(algo)) + "/" +
                                  comm::to_string(wire) +
                                  (killed ? "/chaos-kill" : "/clean");

        core::Engine engine{built.edges, built.csr.num_vertices(), opts};
        const auto out = engine.run(source);
        if (killed) {
          ASSERT_GE(out.report.recover.rank_failures, 1) << label;
        }
        expect_reconciled(engine, out.report, killed, label);
      }
    }
  }
}

// The 1D codec path: every encoded byte the wire.* counters account for
// must appear in the atlas's "1d-exchange" bucket — including the
// self-addressed blocks the local ledger holds, which the meter skips.
// Payload corruption re-issues re-record the exchange (meter and atlas
// alike) but not the encode, so this runs on clean plans only.
TEST(CommAtlasEngine, OneDExchangeSiteMatchesWireBytesAfter) {
  const graph::BuiltGraph& built = shared_graph();
  const vid_t source = test::hub_source(built.csr);
  const comm::WireFormat wires[] = {
      comm::WireFormat::kSieve, comm::WireFormat::kBitmap,
      comm::WireFormat::kVarint, comm::WireFormat::kAuto};
  for (comm::WireFormat wire : wires) {
    core::EngineOptions opts;
    opts.algorithm = core::Algorithm::kOneDFlat;
    opts.cores = 16;
    opts.wire_format = wire;
    opts.atlas = true;
    opts.metrics = true;
    core::Engine engine{built.edges, built.csr.num_vertices(), opts};
    (void)engine.run(source);
    EXPECT_EQ(engine.comm_atlas()->site_total_bytes("1d-exchange"),
              static_cast<std::uint64_t>(
                  counter_of(engine, "wire.bytes_after")))
        << comm::to_string(wire);
  }
}

// 2D shrink recovery re-folds to a smaller grid while the matrix keeps
// its original dimension, so pre-shrink pairs stay attributed.
TEST(CommAtlasEngine, ShrinkKeepsMatrixDimensionAndShrinksGrid) {
  const graph::BuiltGraph& built = shared_graph();
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kTwoDFlat;
  opts.cores = 16;
  opts.atlas = true;
  simmpi::RankKill kill;
  kill.rank = 1;
  kill.at_level = 2;
  opts.faults.rank_kills = {kill};
  opts.recover.policy = recover::Policy::kShrink;
  opts.recover.checkpoint_every = 1;

  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto out = engine.run(test::hub_source(built.csr));
  ASSERT_GE(out.report.recover.rank_failures, 1);

  const obs::CommAtlas* atlas = engine.comm_atlas();
  EXPECT_EQ(atlas->ranks(), 16);
  EXPECT_LE(atlas->grid_rows() * atlas->grid_cols(), atlas->ranks());
  EXPECT_LT(atlas->grid_rows() * atlas->grid_cols(), 16);
  EXPECT_GT(atlas->summary().network_bytes, 0u);
}

// Passivity: attaching the atlas must not change the run — the report
// JSON is byte-identical with and without it.
TEST(CommAtlasEngine, AttachingAtlasKeepsReportByteIdentical) {
  const graph::BuiltGraph& built = shared_graph();
  const vid_t source = test::hub_source(built.csr);
  for (core::Algorithm algo :
       {core::Algorithm::kOneDFlat, core::Algorithm::kTwoDFlat}) {
    core::EngineOptions plain;
    plain.algorithm = algo;
    plain.cores = 16;
    core::EngineOptions observed = plain;
    observed.atlas = true;

    core::Engine a{built.edges, built.csr.num_vertices(), plain};
    core::Engine b{built.edges, built.csr.num_vertices(), observed};
    const std::string ja = bfs::report_to_json(a.run(source).report, true);
    const std::string jb = bfs::report_to_json(b.run(source).report, true);
    EXPECT_EQ(ja, jb) << core::to_string(algo);
    EXPECT_EQ(a.comm_atlas(), nullptr);
    ASSERT_NE(b.comm_atlas(), nullptr);
    EXPECT_GT(b.comm_atlas()->summary().total_bytes, 0u);
  }
}

// And the same through the 2D hybrid direction: all three bottom-up
// exchanges must land in the atlas, with the completion/result traffic
// riding transpose partners (captured by the Transpose pattern).
TEST(CommAtlasEngine, HybridBottomUpExchangesAreAttributed) {
  const graph::BuiltGraph& built = shared_graph();
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kTwoDFlat;
  opts.cores = 16;
  opts.direction = bfs::DirectionMode::kHybrid;
  opts.atlas = true;
  opts.metrics = true;  // expect_reconciled reads the comm.bytes.* counters
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto out = engine.run(test::hub_source(built.csr));
  ASSERT_GT(out.report.dirop.bottom_up_levels, 0)
      << "hybrid must actually engage bottom-up on the R-MAT instance";

  const obs::CommAtlas* atlas = engine.comm_atlas();
  EXPECT_GT(atlas->site_total_bytes("2d-bu-frontier"), 0u);
  EXPECT_GT(atlas->site_total_bytes("2d-bu-result"), 0u);
  expect_reconciled(engine, out.report, false, "2d-hybrid");
}

// Golden digests of the engine-level atlas output: the write_json bytes
// and the flight recorder's per-level "atlas" events (level, hotspot
// rank, bytes, network bytes, subcomm bytes). The constants were taken
// from the dense per-bucket layout the pair ledgers replaced, so any
// drift in storage, folding or tie-breaking shows up here.
struct AtlasDigests {
  std::uint64_t json = 0;
  std::uint64_t events = 0;
  std::int64_t rank_failures = 0;
};

AtlasDigests atlas_digests(const core::EngineOptions& opts) {
  static const graph::BuiltGraph built = test::rmat_graph(11, 8, 5);
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto out = engine.run(test::hub_source(built.csr));
  std::ostringstream json;
  engine.comm_atlas()->write_json(json);
  std::vector<std::uint64_t> fields;
  for (const obs::FlightEvent& e :
       engine.flight_recorder()->chronological()) {
    if (std::string(e.kind) != "atlas") continue;
    fields.push_back(static_cast<std::uint64_t>(e.level));
    fields.push_back(static_cast<std::uint64_t>(e.rank));
    for (const double v : e.value) {
      fields.push_back(static_cast<std::uint64_t>(v));
    }
  }
  EXPECT_FALSE(fields.empty());
  return {test::mix64_digest(json.str()), test::mix64_digest(fields),
          out.report.recover.rank_failures};
}

TEST(CommAtlasEngine, GoldenDigestTwoDHybridShrink) {
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kTwoDFlat;
  opts.cores = 256;
  opts.wire_format = comm::WireFormat::kAuto;
  opts.direction = bfs::DirectionMode::kHybrid;
  opts.atlas = true;
  simmpi::RankKill kill;
  kill.rank = 1;
  kill.at_level = 2;
  opts.faults.rank_kills = {kill};
  opts.recover.policy = recover::Policy::kShrink;
  const AtlasDigests d = atlas_digests(opts);
  ASSERT_GE(d.rank_failures, 1);
  EXPECT_EQ(d.json, 0x2eaf4f8307704868ULL);
  EXPECT_EQ(d.events, 0xec2e36d1f0864797ULL);
}

TEST(CommAtlasEngine, GoldenDigestOneDAuto) {
  core::EngineOptions opts;
  opts.algorithm = core::Algorithm::kOneDFlat;
  opts.cores = 64;
  opts.wire_format = comm::WireFormat::kAuto;
  opts.atlas = true;
  const AtlasDigests d = atlas_digests(opts);
  EXPECT_EQ(d.json, 0x7933587b9f3e36f7ULL);
  EXPECT_EQ(d.events, 0xbf6c0e8ae807ae0aULL);
}

// ---------------------------------------------------------------------
// Doctor golden scenario: a candidate whose atlas shows a skew jump and
// a concentrated pair must be diagnosed as traffic-skew, and the
// hotspot-rank finding must name the seeded rank.

obs::BenchRecord atlas_record(double row_skew, double max_pair_share,
                              int hotspot_rank, int incast_rank) {
  obs::BenchRecord r;
  r.name = "atlas-golden";
  r.config.algorithm = "1d";
  r.config.machine = "generic";
  r.config.wire_format = "raw";
  r.config.cores = 16;
  r.config.ranks = 16;
  r.harmonic_mean_teps = 1e8;
  r.mean_seconds = 1.0;
  r.comm_seconds_mean = 0.5;
  r.comp_seconds_mean = 0.5;
  for (int lv = 0; lv < 4; ++lv) {
    obs::BenchLevelSplit l;
    l.level = lv;
    l.compute_mean = 0.1;
    l.wait_mean = 0.05;
    l.transfer_mean = 0.1;
    r.levels.push_back(l);
  }
  r.atlas.present = true;
  r.atlas.grid_rows = 1;
  r.atlas.grid_cols = 16;
  r.atlas.total_bytes = 1000000;
  r.atlas.network_bytes = 900000;
  r.atlas.row_skew = row_skew;
  r.atlas.col_skew = 1.1;
  r.atlas.max_pair_share = max_pair_share;
  r.atlas.hotspot_rank = hotspot_rank;
  r.atlas.incast_rank = incast_rank;
  return r;
}

TEST(Doctor, AttributesSkewJumpToTrafficSkewAndNamesHotspotRank) {
  const auto baseline = atlas_record(1.2, 0.08, 3, 4);
  auto candidate = atlas_record(3.6, 0.45, 5, 9);
  candidate.harmonic_mean_teps = 7e7;  // a real slowdown to attribute
  for (auto& l : candidate.levels) l.transfer_mean *= 1.5;

  const auto report = obs::diagnose(baseline, candidate);
  bool skew = false, hotspot = false;
  std::string hotspot_detail;
  for (const auto& f : report.findings) {
    if (f.cause == "traffic-skew") skew = true;
    if (f.cause == "hotspot-rank") {
      hotspot = true;
      hotspot_detail = f.detail;
    }
  }
  EXPECT_TRUE(skew);
  ASSERT_TRUE(hotspot);
  EXPECT_NE(hotspot_detail.find("rank 5"), std::string::npos)
      << hotspot_detail;
}

TEST(Doctor, NoAtlasBlockMeansNoAtlasFindings) {
  auto baseline = atlas_record(1.2, 0.08, 3, 4);
  auto candidate = atlas_record(3.6, 0.45, 5, 9);
  baseline.atlas.present = false;  // schema-additive: older records
  const auto report = obs::diagnose(baseline, candidate);
  for (const auto& f : report.findings) {
    EXPECT_NE(f.cause, "traffic-skew");
    EXPECT_NE(f.cause, "hotspot-rank");
  }
}

}  // namespace
}  // namespace dbfs
