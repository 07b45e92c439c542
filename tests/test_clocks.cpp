#include "model/clocks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/prng.hpp"

namespace dbfs::model {
namespace {

TEST(VirtualClocks, StartAtZero) {
  VirtualClocks c{4};
  EXPECT_EQ(c.ranks(), 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(c.now(r), 0.0);
    EXPECT_DOUBLE_EQ(c.comm_time(r), 0.0);
    EXPECT_DOUBLE_EQ(c.compute_time(r), 0.0);
  }
}

TEST(VirtualClocks, ComputeAdvancesOneRank) {
  VirtualClocks c{2};
  c.advance_compute(0, 1.5);
  EXPECT_DOUBLE_EQ(c.now(0), 1.5);
  EXPECT_DOUBLE_EQ(c.compute_time(0), 1.5);
  EXPECT_DOUBLE_EQ(c.now(1), 0.0);
}

TEST(VirtualClocks, CollectiveSynchronizesToSlowest) {
  VirtualClocks c{3};
  c.advance_compute(0, 1.0);
  c.advance_compute(1, 3.0);
  // rank 2 did nothing.
  const std::vector<int> group{0, 1, 2};
  c.collective(group, 0.5);
  // All leave at max(3.0) + 0.5.
  for (int r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(c.now(r), 3.5);
  // Waiting + transfer charged as comm: rank 0 waited 2.0 + 0.5 transfer.
  EXPECT_DOUBLE_EQ(c.comm_time(0), 2.5);
  EXPECT_DOUBLE_EQ(c.comm_time(1), 0.5);
  EXPECT_DOUBLE_EQ(c.comm_time(2), 3.5);
}

TEST(VirtualClocks, SubgroupCollectiveLeavesOthersUntouched) {
  VirtualClocks c{4};
  c.advance_compute(3, 9.0);
  const std::vector<int> group{0, 1};
  c.collective(group, 1.0);
  EXPECT_DOUBLE_EQ(c.now(0), 1.0);
  EXPECT_DOUBLE_EQ(c.now(1), 1.0);
  EXPECT_DOUBLE_EQ(c.now(2), 0.0);
  EXPECT_DOUBLE_EQ(c.now(3), 9.0);
}

TEST(VirtualClocks, VaryingCostsAllLeaveAtMax) {
  VirtualClocks c{3};
  const std::vector<int> group{0, 1, 2};
  const std::vector<double> costs{1.0, 5.0, 2.0};
  c.collective_varying(group, costs);
  for (int r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(c.now(r), 5.0);
  EXPECT_DOUBLE_EQ(c.comm_time(0), 5.0);
}

TEST(VirtualClocks, MaxNow) {
  VirtualClocks c{3};
  c.advance_compute(1, 7.0);
  EXPECT_DOUBLE_EQ(c.max_now(), 7.0);
}

TEST(VirtualClocks, SplitsCommAndCompute) {
  VirtualClocks c{2};
  c.advance_compute(0, 2.0);
  c.advance_compute(1, 2.0);
  const std::vector<int> group{0, 1};
  c.collective(group, 1.0);
  c.advance_compute(0, 1.0);
  EXPECT_DOUBLE_EQ(c.compute_time(0), 3.0);
  EXPECT_DOUBLE_EQ(c.comm_time(0), 1.0);
  EXPECT_DOUBLE_EQ(c.now(0), 4.0);
}

TEST(VirtualClocks, ResetZeroesEverything) {
  VirtualClocks c{2};
  c.advance_compute(0, 2.0);
  const std::vector<int> group{0, 1};
  c.collective(group, 1.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.max_now(), 0.0);
  EXPECT_DOUBLE_EQ(c.comm_time(1), 0.0);
  EXPECT_DOUBLE_EQ(c.compute_time(0), 0.0);
}

TEST(VirtualClocks, RepeatedCollectivesAccumulateWaits) {
  VirtualClocks c{2};
  const std::vector<int> group{0, 1};
  for (int i = 0; i < 10; ++i) {
    c.advance_compute(0, 1.0);  // rank 1 always idles
    c.collective(group, 0.1);
  }
  EXPECT_NEAR(c.comm_time(1), 10.0 * 1.1, 1e-9);
  EXPECT_NEAR(c.comm_time(0), 10.0 * 0.1, 1e-9);
}

// max_now() is cached and updated by every mutator; after each step of a
// seeded random mutation sequence it must equal a full scan of the
// clocks. Negative costs and advances exercise the lowered-clock rescan.
TEST(VirtualClocks, CachedMaxNowMatchesFullScanUnderRandomMutations) {
  constexpr int kRanks = 7;
  const auto scan = [](const VirtualClocks& c) {
    double best = 0.0;
    for (double t : c.all_now()) best = std::max(best, t);
    return best;
  };
  util::Xoshiro256 rng{20261017};
  const auto amount = [&rng] {
    // Mostly forward moves; one draw in eight moves a clock back.
    const double x = rng.next_double() * 2.0;
    return rng.next_below(8) == 0 ? -x : x;
  };
  VirtualClocks c{kRanks};
  for (int step = 0; step < 5000; ++step) {
    std::vector<int> group;
    for (int r = 0; r < kRanks; ++r) {
      if (rng.next_below(2) == 0) group.push_back(r);
    }
    switch (rng.next_below(16)) {
      case 0:
        c.reset();
        break;
      case 1:
        c.seed(amount() * 10.0);
        break;
      case 2:
      case 3:
      case 4: {
        std::vector<double> costs;
        for (std::size_t i = 0; i < group.size(); ++i) {
          costs.push_back(amount());
        }
        c.collective_varying(group, costs);
        break;
      }
      case 5:
      case 6:
      case 7:
      case 8:
        c.collective(group, amount());
        break;
      default:
        c.advance_compute(static_cast<int>(rng.next_below(kRanks)), amount());
        break;
    }
    ASSERT_EQ(c.max_now(), scan(c)) << "step " << step;
  }
}

}  // namespace
}  // namespace dbfs::model
