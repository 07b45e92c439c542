// Golden digests of the SDC recovery paths: the report JSON (metrics
// embedded), parents, levels and the flight recorder dump of one search
// per configuration, on a scale-10 R-MAT instance. Together they pin
// every place where the checkpoint store, the range-sharded audit or the
// windowed sieve could drift without breaking a tree: which checkpoint a
// flip rejects when snapshots are taken between the flip and the scrub,
// which witness and verdict a visited flip outside a 2D rank's row block
// produces, and what a rollback restores and re-prices. The constants
// were computed with the full-copy checkpoint store, the per-vertex owner
// audit and full-width sieve bitmaps.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bfs/report_json.hpp"
#include "core/engine.hpp"
#include "obs/flight_recorder.hpp"
#include "simmpi/fault.hpp"
#include "test_helpers.hpp"

namespace dbfs {
namespace {

struct Config {
  core::Algorithm algorithm = core::Algorithm::kTwoDFlat;
  int cores = 1024;
  bfs::DirectionMode direction = bfs::DirectionMode::kTopDown;
  std::vector<simmpi::MemFlip> flips;
  std::vector<simmpi::RankKill> kills;
  recover::Policy policy = recover::Policy::kShrink;
  int checkpoint_every = 1;
  int audit_every = 2;
};

simmpi::MemFlip flip(int rank, int level, simmpi::FlipTarget target) {
  simmpi::MemFlip f;
  f.rank = rank;
  f.at_level = level;
  f.target = target;
  return f;
}

struct Digest {
  std::uint64_t value = 0;
  std::int64_t flips_injected = 0;
  std::int64_t checkpoints_rejected = 0;
  std::int64_t rollbacks = 0;
};

Digest sdc_digest(const Config& c) {
  static const graph::BuiltGraph built = test::rmat_graph(10, 16, 3);
  core::EngineOptions opts;
  opts.algorithm = c.algorithm;
  opts.cores = c.cores;
  opts.wire_format = comm::WireFormat::kAuto;
  opts.direction = c.direction;
  opts.metrics = true;
  opts.faults.seed = 3;
  opts.faults.mem_flips = c.flips;
  opts.faults.rank_kills = c.kills;
  opts.recover.policy = c.policy;
  opts.recover.checkpoint_every = c.checkpoint_every;
  opts.recover.audit_every = c.audit_every;
  core::Engine engine{built.edges, built.csr.num_vertices(), opts};
  const auto out = engine.run(test::hub_source(built.csr));

  bfs::ReportJsonOptions json;
  json.metrics = engine.metrics();
  std::ostringstream flight;
  engine.flight_recorder()->write_json(flight);
  const std::vector<std::uint64_t> parts = {
      test::mix64_digest(bfs::report_to_json(out.report, json)),
      test::mix64_digest(out.parent), test::mix64_digest(out.level),
      test::mix64_digest(flight.str())};
  return {test::mix64_digest(parts), out.report.sdc.flips_injected,
          out.report.sdc.checkpoints_rejected, out.report.sdc.rollbacks};
}

using simmpi::FlipTarget;

// Checkpoint flips with 0, 1 or 2 snapshots taken between the flip and
// the scrub that rejects it, and two flips in one search.
TEST(SdcGolden, CheckpointFlipsAcrossAuditCadences) {
  Config c;
  c.flips = {flip(3, 2, FlipTarget::kCheckpoint)};
  for (const auto& [audit_every, expected] :
       {std::pair{0, 0x95ec9fe100bbf55dULL},
        std::pair{2, 0x54af71ceb7cc2982ULL},
        std::pair{3, 0x5ed3e6a5f49fdd60ULL}}) {
    c.audit_every = audit_every;
    const Digest d = sdc_digest(c);
    EXPECT_EQ(d.flips_injected, 1) << audit_every;
    EXPECT_EQ(d.checkpoints_rejected, 1) << audit_every;
    EXPECT_EQ(d.value, expected) << "audit_every=" << audit_every;
  }
  c.flips = {flip(3, 1, FlipTarget::kCheckpoint),
             flip(5, 2, FlipTarget::kCheckpoint)};
  c.audit_every = 3;
  const Digest two = sdc_digest(c);
  EXPECT_EQ(two.flips_injected, 2);
  EXPECT_EQ(two.checkpoints_rejected, 2);
  EXPECT_EQ(two.value, 0xf0a0632f8e55e593ULL);
}

// A spurious sieve bit on a 32x32 grid lands, for these ranks, on a
// vertex outside the rank's row block.
TEST(SdcGolden, VisitedFlipsOutsideTheRowBlock) {
  Config c;
  for (const auto& [rank, expected] :
       {std::pair{700, 0x53333c631aedf3eeULL},
        std::pair{900, 0x41df6856ce78abb5ULL},
        std::pair{1000, 0x8b2765ab00a66c70ULL}}) {
    c.flips = {flip(rank, 2, FlipTarget::kVisited)};
    const Digest d = sdc_digest(c);
    EXPECT_EQ(d.flips_injected, 1) << rank;
    EXPECT_GE(d.rollbacks, 1) << rank;
    EXPECT_EQ(d.value, expected) << "rank=" << rank;
  }
}

TEST(SdcGolden, ParentsLevelsAndDiropFlips) {
  Config parents;
  parents.algorithm = core::Algorithm::kOneDFlat;
  parents.cores = 64;
  parents.audit_every = 1;
  parents.flips = {flip(5, 2, FlipTarget::kParents)};
  Config levels;
  levels.cores = 64;
  levels.flips = {flip(9, 2, FlipTarget::kLevels)};
  Config dirop;
  dirop.direction = bfs::DirectionMode::kHybrid;
  dirop.audit_every = 1;
  dirop.flips = {flip(4, 2, FlipTarget::kDirop)};
  const Digest dp = sdc_digest(parents);
  const Digest dl = sdc_digest(levels);
  const Digest dd = sdc_digest(dirop);
  for (const Digest& d : {dp, dl, dd}) {
    EXPECT_EQ(d.flips_injected, 1);
    EXPECT_GE(d.rollbacks, 1);
  }
  EXPECT_EQ(dp.value, 0x7955150f8a49e092ULL);
  EXPECT_EQ(dl.value, 0x6ae7e05c32a53c80ULL);
  EXPECT_EQ(dd.value, 0x27ccf64389d7fdd0ULL);
}

// A kill and two flips in one search: the recovery restores from the
// delta log, and the sieve is rebuilt over the new layout.
TEST(SdcGolden, KillPlusFlipsUnderShrinkAndSpare) {
  Config c;
  simmpi::RankKill kill;
  kill.rank = 17;
  kill.at_level = 2;
  c.kills = {kill};
  c.flips = {flip(40, 3, FlipTarget::kCheckpoint),
             flip(600, 1, FlipTarget::kVisited)};
  const Digest shrink = sdc_digest(c);
  c.policy = recover::Policy::kSpare;
  const Digest spare = sdc_digest(c);
  for (const Digest& d : {shrink, spare}) {
    EXPECT_EQ(d.flips_injected, 2);
    EXPECT_GE(d.rollbacks, 1);
  }
  EXPECT_EQ(shrink.value, 0x9512b1f8cb6cd31aULL);
  EXPECT_EQ(spare.value, 0xcb1472bd7097edfdULL);
}

TEST(SdcGolden, Grid256AndOneDCheckpointAndVisitedFlips) {
  Config grid;
  grid.cores = 256;
  grid.flips = {flip(200, 2, FlipTarget::kVisited),
                flip(7, 3, FlipTarget::kCheckpoint)};
  Config one_d;
  one_d.algorithm = core::Algorithm::kOneDFlat;
  one_d.cores = 64;
  one_d.flips = {flip(3, 2, FlipTarget::kCheckpoint),
                 flip(20, 3, FlipTarget::kVisited)};
  const Digest dg = sdc_digest(grid);
  const Digest d1 = sdc_digest(one_d);
  EXPECT_EQ(dg.flips_injected, 2);
  EXPECT_EQ(d1.flips_injected, 2);
  EXPECT_EQ(dg.value, 0x3f3042c827356669ULL);
  EXPECT_EQ(d1.value, 0x3d68d0a4467f5f8cULL);
}

}  // namespace
}  // namespace dbfs
