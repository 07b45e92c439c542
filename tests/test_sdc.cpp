// Silent-data-corruption resilience: at-rest memory flips (the MemFlip
// fault class), the ABFT state auditor (src/bfs/audit.*), and the
// self-verifying CheckpointStore. The contract under test mirrors the
// fail-stop one in test_recover.cpp but is strictly harder — nothing on
// the wire notices an at-rest flip, so detection must come from the
// audits or from checkpoint verification, and every detected corruption
// must roll back and converge to parents/levels bit-identical to a
// fault-free run. Plus the inertness guarantees (auditing off and no
// flip plan = byte-identical reports) and the FaultPlan serialization
// that carries corruption schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bfs/report_json.hpp"
#include "bfs/serial.hpp"
#include "core/engine.hpp"
#include "dist/partition1d.hpp"
#include "dist/vector_dist.hpp"
#include "graph/validator.hpp"
#include "recover/checkpoint.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/process_grid.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace dbfs {
namespace {

core::EngineOptions base_options(core::Algorithm algorithm, int cores) {
  core::EngineOptions opts;
  opts.algorithm = algorithm;
  opts.cores = cores;
  opts.machine = model::generic();
  return opts;
}

simmpi::MemFlip level_flip(int rank, int level, simmpi::FlipTarget target) {
  simmpi::MemFlip flip;
  flip.rank = rank;
  flip.at_level = level;
  flip.target = target;
  return flip;
}

// ---- flip-spec and plan serialization ---------------------------------

TEST(SdcFaultPlan, FlipSpecParsing) {
  const auto flips =
      simmpi::parse_flip_specs("2@level3:parents,0@level1:dirop");
  ASSERT_EQ(flips.size(), 2u);
  EXPECT_EQ(flips[0].rank, 2);
  EXPECT_EQ(flips[0].at_level, 3);
  EXPECT_EQ(flips[0].target, simmpi::FlipTarget::kParents);
  EXPECT_EQ(flips[1].rank, 0);
  EXPECT_EQ(flips[1].at_level, 1);
  EXPECT_EQ(flips[1].target, simmpi::FlipTarget::kDirop);

  EXPECT_THROW(simmpi::parse_flip_specs(""), std::invalid_argument);
  EXPECT_THROW(simmpi::parse_flip_specs("1@level2"), std::invalid_argument);
  EXPECT_THROW(simmpi::parse_flip_specs("1@level2:bogus"),
               std::invalid_argument);
  EXPECT_THROW(simmpi::parse_flip_specs("x@level2:parents"),
               std::invalid_argument);
  EXPECT_THROW(simmpi::parse_flip_specs("1@t0.5:parents"),
               std::invalid_argument);
  EXPECT_THROW(simmpi::parse_flip_specs("1@level-2:parents"),
               std::invalid_argument);
}

TEST(SdcFaultPlan, FlipTargetNamesRoundTrip) {
  const simmpi::FlipTarget targets[] = {
      simmpi::FlipTarget::kParents, simmpi::FlipTarget::kLevels,
      simmpi::FlipTarget::kVisited, simmpi::FlipTarget::kDirop,
      simmpi::FlipTarget::kCheckpoint};
  for (simmpi::FlipTarget t : targets) {
    EXPECT_EQ(simmpi::parse_flip_target(simmpi::to_string(t)), t);
  }
  EXPECT_THROW(simmpi::parse_flip_target("rowptr"), std::invalid_argument);
}

TEST(SdcFaultPlan, JsonRoundTripPreservesMemFlips) {
  simmpi::FaultPlan plan;
  plan.seed = 11;
  plan.mem_flips = {
      level_flip(2, 3, simmpi::FlipTarget::kLevels),
      level_flip(0, 1, simmpi::FlipTarget::kCheckpoint)};

  const simmpi::FaultPlan back =
      simmpi::fault_plan_from_json(simmpi::to_json(plan));
  ASSERT_EQ(back.mem_flips.size(), 2u);
  EXPECT_EQ(back.mem_flips[0].rank, 2);
  EXPECT_EQ(back.mem_flips[0].at_level, 3);
  EXPECT_EQ(back.mem_flips[0].target, simmpi::FlipTarget::kLevels);
  EXPECT_EQ(back.mem_flips[1].rank, 0);
  EXPECT_EQ(back.mem_flips[1].at_level, 1);
  EXPECT_EQ(back.mem_flips[1].target, simmpi::FlipTarget::kCheckpoint);
  EXPECT_EQ(simmpi::to_json(back), simmpi::to_json(plan));

  // A flip-only plan counts as enabled; a flip-free plan omits the key
  // so pre-SDC readers keep working.
  EXPECT_TRUE(plan.enabled());
  simmpi::FaultPlan no_flips;
  EXPECT_EQ(simmpi::to_json(no_flips).find("mem_flips"), std::string::npos);
}

TEST(SdcFaultPlan, FlipShapeIsKeyedByFlipIdentity) {
  simmpi::FaultPlan plan;
  plan.seed = 5;
  const auto a = level_flip(1, 2, simmpi::FlipTarget::kParents);
  const auto b = level_flip(1, 2, simmpi::FlipTarget::kLevels);
  // Same flip, same draw — replays after a recovery re-inject identical
  // damage. Different flips draw differently.
  EXPECT_EQ(plan.flip_shape(a), plan.flip_shape(a));
  EXPECT_NE(plan.flip_shape(a), plan.flip_shape(b));
}

TEST(SdcFaultPlan, UnknownPlanKeysWarnOnceToStderr) {
  // Unique key name: the warned set is process-wide, so reusing a key
  // from another test would swallow the first warning.
  const std::string json =
      "{\"seed\":1,\"sdc_test_future_knob\":true,"
      "\"mem_flips\":[{\"rank\":1,\"at_level\":2,\"target\":\"parents\"}]}";

  testing::internal::CaptureStderr();
  const simmpi::FaultPlan plan = simmpi::fault_plan_from_json(json);
  const std::string first = testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("sdc_test_future_knob"), std::string::npos) << first;
  EXPECT_NE(first.find("not understood"), std::string::npos) << first;
  // The understood keys parsed despite the stranger.
  ASSERT_EQ(plan.mem_flips.size(), 1u);
  EXPECT_EQ(plan.mem_flips[0].target, simmpi::FlipTarget::kParents);

  testing::internal::CaptureStderr();
  (void)simmpi::fault_plan_from_json(json);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(SdcFaultPlan, AuditFailedErrorCarriesStructuredFields) {
  const simmpi::AuditFailedError e("sdc-audit", "shard-checksum", 3, 2, 77,
                                   1.5);
  EXPECT_EQ(e.site(), "sdc-audit");
  EXPECT_EQ(e.kind(), "audit-failure");
  EXPECT_EQ(e.check(), "shard-checksum");
  EXPECT_EQ(e.rank(), 3);
  EXPECT_EQ(e.level(), 2);
  EXPECT_EQ(e.sample_vertex(), 77);
  EXPECT_EQ(e.virtual_time(), 1.5);
  const std::string what = e.what();
  EXPECT_NE(what.find("shard-checksum"), std::string::npos) << what;
}

// ---- self-verifying CheckpointStore -----------------------------------

// A consistent 4-vertex snapshot rooted at 0 (0 -> 1 at level 1).
recover::Checkpoint small_snapshot() {
  recover::Checkpoint ckpt;
  ckpt.levels_completed = 1;
  ckpt.global_frontier = 1;
  ckpt.parent = {0, 0, kNoVertex, kNoVertex};
  ckpt.level = {0, 1, kUnreached, kUnreached};
  ckpt.frontier = {1};
  return ckpt;
}

// The same traversal one barrier later (1 -> 2 at level 2).
recover::Checkpoint small_snapshot_next() {
  recover::Checkpoint ckpt = small_snapshot();
  ckpt.levels_completed = 2;
  ckpt.parent[2] = 1;
  ckpt.level[2] = 2;
  ckpt.frontier = {2};
  return ckpt;
}

// Store `snapshot` the way the level loop does: header plus live arrays.
std::uint64_t take(recover::CheckpointStore& store,
                   const recover::Checkpoint& snapshot) {
  return store.take(snapshot, snapshot.parent, snapshot.level);
}

// The delta small_snapshot_next() stores on top of small_snapshot().
recover::CheckpointDelta small_delta() {
  recover::CheckpointDelta delta;
  delta.header = small_snapshot_next();
  delta.num_vertices = 4;
  delta.records = {{2, 1, 2}};
  return delta;
}

TEST(SdcCheckpointStore, ChecksumCoversEveryField) {
  const recover::CheckpointDelta base = small_delta();
  const std::uint64_t digest = recover::checkpoint_checksum(base);
  EXPECT_EQ(recover::checkpoint_checksum(small_delta()), digest);

  recover::CheckpointDelta mutated = base;
  mutated.records[0].parent = 0;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.records[0].level = 3;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.records[0].vertex = 3;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.records.push_back({3, 2, 3});
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.num_vertices = 5;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.header.frontier = {0};
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.header.levels_completed = 3;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.header.global_frontier = 2;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.header.dirop_frontier_edges = 9;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.header.dirop_unexplored_edges = 9;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
  mutated = base;
  mutated.header.dirop_bottom_up = true;
  EXPECT_NE(recover::checkpoint_checksum(mutated), digest);
}

TEST(SdcCheckpointStore, DefectCatchesCorruptAtTakeSnapshots) {
  EXPECT_EQ(recover::checkpoint_defect(small_snapshot(), 0), nullptr);
  EXPECT_EQ(recover::checkpoint_defect(small_snapshot_next(), 0), nullptr);
  // The implicit replay-from-source snapshot is always clean.
  EXPECT_EQ(recover::checkpoint_defect(recover::Checkpoint{}, 0), nullptr);

  recover::Checkpoint bad = small_snapshot();
  bad.parent[0] = 1;  // the root must be its own parent
  EXPECT_STREQ(recover::checkpoint_defect(bad, 0), "source-parent");

  bad = small_snapshot();
  bad.level[1] = 3;  // breaks parent/level tree consistency
  EXPECT_NE(recover::checkpoint_defect(bad, 0), nullptr);

  bad = small_snapshot();
  bad.frontier = {2};  // frontier vertex is unvisited
  EXPECT_NE(recover::checkpoint_defect(bad, 0), nullptr);

  bad = small_snapshot();
  bad.global_frontier = 5;  // disagrees with the frontier list
  EXPECT_NE(recover::checkpoint_defect(bad, 0), nullptr);
}

TEST(SdcCheckpointStore, CorruptReplicasAreSkippedAndScrubbed) {
  recover::CheckpointStore store;
  recover::RecoverOptions options;
  options.checkpoint_every = 1;
  store.arm(options);
  take(store, small_snapshot());
  take(store, small_snapshot_next());
  ASSERT_EQ(store.stored(), 2u);
  EXPECT_EQ(store.newest_clean(0).levels_completed, 2);

  // An at-rest flip in the newest replica: rollback must skip past it to
  // the older clean snapshot, and the audit-time scrub must drop it.
  ASSERT_TRUE(store.corrupt_latest(0x9e3779b97f4a7c15ULL));
  EXPECT_EQ(store.newest_clean(0).levels_completed, 1);
  EXPECT_EQ(store.scrub(), 1);
  EXPECT_EQ(store.stored(), 1u);
  EXPECT_EQ(store.scrub(), 0);

  // Both replicas corrupt -> the implicit empty snapshot: recovery never
  // dead-ends, it replays from the source.
  ASSERT_TRUE(store.corrupt_latest(0x123456789abcdefULL));
  const recover::Checkpoint& fallback = store.newest_clean(0);
  EXPECT_EQ(fallback.levels_completed, 0);
  EXPECT_TRUE(fallback.parent.empty());
}

TEST(SdcCheckpointStore, RollbackToTruncatesHistory) {
  recover::CheckpointStore store;
  recover::RecoverOptions options;
  options.checkpoint_every = 1;
  store.arm(options);
  EXPECT_FALSE(store.corrupt_latest(1));  // nothing stored yet

  take(store, small_snapshot());
  take(store, small_snapshot_next());
  ASSERT_TRUE(store.corrupt_latest(0x5bd1e995ULL));
  const recover::Checkpoint& clean = store.newest_clean(0);
  store.rollback_to(clean);
  EXPECT_EQ(store.stored(), 1u);
  EXPECT_EQ(store.newest_clean(0).levels_completed, 1);

  // No stored snapshot is rooted at vertex 2, so newest_clean falls back
  // to the implicit empty snapshot; rolling back to it clears the
  // history, and the store keeps working afterwards.
  const recover::Checkpoint& fallback = store.newest_clean(2);
  EXPECT_TRUE(fallback.parent.empty());
  store.rollback_to(fallback);
  EXPECT_EQ(store.stored(), 0u);
  take(store, small_snapshot());
  EXPECT_EQ(store.stored(), 1u);
}

// ---- delta log vs the full-copy store ---------------------------------

// The store the delta log replaced, kept as the reference: every
// snapshot is a whole Checkpoint, checksummed over its full arrays.
std::uint64_t full_checksum(const recover::Checkpoint& c) {
  std::uint64_t h = 0x6368656b73756dULL;
  const auto mix = [&h](std::uint64_t v) { h = util::mix64(h ^ v); };
  mix(static_cast<std::uint64_t>(c.levels_completed));
  mix(static_cast<std::uint64_t>(c.global_frontier));
  mix(c.level.size());
  for (level_t l : c.level) mix(static_cast<std::uint64_t>(l));
  mix(c.parent.size());
  for (vid_t p : c.parent) mix(static_cast<std::uint64_t>(p));
  mix(c.frontier.size());
  for (vid_t v : c.frontier) mix(static_cast<std::uint64_t>(v));
  mix(static_cast<std::uint64_t>(c.dirop_frontier_edges));
  mix(static_cast<std::uint64_t>(c.dirop_unexplored_edges));
  mix(c.dirop_bottom_up ? 1u : 0u);
  return h;
}

class FullCopyStore {
 public:
  std::uint64_t take(recover::Checkpoint snapshot) {
    const auto visited = static_cast<std::int64_t>(std::count_if(
        snapshot.level.begin(), snapshot.level.end(),
        [](level_t l) { return l != kUnreached; }));
    const std::int64_t fresh = visited - prev_visited_;
    const std::uint64_t increment =
        static_cast<std::uint64_t>(fresh > 0 ? fresh : 0) *
            (sizeof(vid_t) + sizeof(level_t)) +
        snapshot.frontier.size() * sizeof(vid_t);
    prev_visited_ = visited;
    const std::uint64_t sum = full_checksum(snapshot);
    history_.push_back({std::move(snapshot), sum});
    ++taken_;
    bytes_ += increment;
    return increment;
  }

  const recover::Checkpoint& newest_clean(vid_t source) const {
    for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
      if (full_checksum(it->first) != it->second) continue;
      if (recover::checkpoint_defect(it->first, source) != nullptr) continue;
      return it->first;
    }
    return empty_;
  }

  void rollback_to(const recover::Checkpoint& snapshot) {
    while (!history_.empty() && &history_.back().first != &snapshot) {
      history_.pop_back();
    }
    prev_visited_ = static_cast<std::int64_t>(std::count_if(
        snapshot.level.begin(), snapshot.level.end(),
        [](level_t l) { return l != kUnreached; }));
  }

  bool corrupt_latest(std::uint64_t shape) {
    if (history_.empty()) return false;
    recover::Checkpoint& c = history_.back().first;
    struct Slot {
      void* data;
      std::size_t items;
      std::size_t item_bytes;
    };
    std::vector<Slot> slots;
    if (!c.parent.empty()) {
      slots.push_back({c.parent.data(), c.parent.size(), sizeof(vid_t)});
    }
    if (!c.level.empty()) {
      slots.push_back({c.level.data(), c.level.size(), sizeof(level_t)});
    }
    if (!c.frontier.empty()) {
      slots.push_back({c.frontier.data(), c.frontier.size(), sizeof(vid_t)});
    }
    if (slots.empty()) return false;
    const Slot& slot = slots[(shape >> 8) % slots.size()];
    auto* bytes = static_cast<unsigned char*>(slot.data);
    const std::size_t item = (shape >> 16) % slot.items;
    const std::size_t byte = (shape >> 40) % slot.item_bytes;
    bytes[item * slot.item_bytes + byte] ^=
        static_cast<unsigned char>(1u << ((shape >> 50) % 8));
    return true;
  }

  int scrub() {
    const auto first = std::remove_if(
        history_.begin(), history_.end(),
        [](const auto& e) { return full_checksum(e.first) != e.second; });
    const int rejected = static_cast<int>(history_.end() - first);
    history_.erase(first, history_.end());
    return rejected;
  }

  std::int64_t checkpoints_taken() const { return taken_; }
  std::uint64_t bytes_shipped() const { return bytes_; }
  std::size_t stored() const { return history_.size(); }

 private:
  std::vector<std::pair<recover::Checkpoint, std::uint64_t>> history_;
  recover::Checkpoint empty_;
  std::int64_t prev_visited_ = 0;
  std::int64_t taken_ = 0;
  std::uint64_t bytes_ = 0;
};

void expect_same_snapshot(const recover::Checkpoint& got,
                          const recover::Checkpoint& want,
                          const std::string& at) {
  EXPECT_EQ(got.levels_completed, want.levels_completed) << at;
  EXPECT_EQ(got.global_frontier, want.global_frontier) << at;
  EXPECT_EQ(got.frontier, want.frontier) << at;
  EXPECT_EQ(got.dirop_frontier_edges, want.dirop_frontier_edges) << at;
  EXPECT_EQ(got.dirop_unexplored_edges, want.dirop_unexplored_edges) << at;
  EXPECT_EQ(got.dirop_bottom_up, want.dirop_bottom_up) << at;
  EXPECT_EQ(got.parent, want.parent) << at;
  EXPECT_EQ(got.level, want.level) << at;
}

// A live BFS-like state rooted at vertex 0 that grows, loses leaves back
// to unreached, and now and then takes a garbage entry, so snapshots are
// a mix of clean and structurally defective ones.
struct LiveState {
  explicit LiveState(vid_t n)
      : parent(static_cast<std::size_t>(n), kNoVertex),
        level(static_cast<std::size_t>(n), kUnreached) {
    reroot();
  }

  void reroot() {
    std::fill(parent.begin(), parent.end(), kNoVertex);
    std::fill(level.begin(), level.end(), kUnreached);
    parent[0] = 0;
    level[0] = 0;
  }

  void mutate(util::Xoshiro256& rng) {
    const auto n = static_cast<vid_t>(level.size());
    const auto at = [&](vid_t v) { return static_cast<std::size_t>(v); };
    for (std::uint64_t k = rng.next_below(5); k > 0; --k) {
      const auto v = static_cast<vid_t>(rng.next_below(n));
      const auto p = static_cast<vid_t>(rng.next_below(n));
      if (level[at(v)] != kUnreached || level[at(p)] == kUnreached) continue;
      parent[at(v)] = p;
      level[at(v)] = level[at(p)] + 1;
    }
    if (rng.next_below(3) == 0) {
      // A leaf goes back to unreached.
      const auto v = static_cast<vid_t>(1 + rng.next_below(n - 1));
      if (std::find(parent.begin(), parent.end(), v) == parent.end()) {
        parent[at(v)] = kNoVertex;
        level[at(v)] = kUnreached;
      }
    }
    if (rng.next_below(10) == 0) {
      const auto v = static_cast<vid_t>(rng.next_below(n));
      parent[at(v)] = static_cast<vid_t>(rng.next_below(n + 1)) - 1;
      level[at(v)] = static_cast<level_t>(rng.next_below(7)) - 1;
    }
  }

  recover::Checkpoint snapshot(util::Xoshiro256& rng) const {
    recover::Checkpoint c;
    c.parent = parent;
    c.level = level;
    const level_t top = *std::max_element(level.begin(), level.end());
    c.levels_completed = static_cast<int>(top);
    for (std::size_t v = 0; v < level.size(); ++v) {
      if (level[v] == top) c.frontier.push_back(static_cast<vid_t>(v));
    }
    c.global_frontier = static_cast<std::int64_t>(c.frontier.size()) +
                        (rng.next_below(20) == 0 ? 1 : 0);
    c.dirop_frontier_edges = static_cast<eid_t>(rng.next_below(100));
    c.dirop_unexplored_edges = static_cast<eid_t>(rng.next_below(100));
    c.dirop_bottom_up = rng.next_below(2) == 1;
    return c;
  }

  void restore(const recover::Checkpoint& c) {
    if (c.level.empty()) {
      reroot();
    } else {
      parent = c.parent;
      level = c.level;
    }
  }

  std::vector<vid_t> parent;
  std::vector<level_t> level;
};

// Seeded random take / corrupt_latest / scrub / newest_clean /
// rollback_to sequences against the full-copy reference: every result
// and every counter must match after every operation, including flips
// repeated on the same bit and snapshots taken between a flip and the
// scrub that rejects it.
TEST(SdcCheckpointStore, DeltaLogMatchesFullCopyReference) {
  constexpr vid_t n = 24;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    util::Xoshiro256 rng(seed);
    recover::CheckpointStore store;
    store.arm(recover::RecoverOptions{});
    FullCopyStore ref;
    LiveState live(n);
    std::uint64_t shape = 0;
    for (int op = 0; op < 2500; ++op) {
      const std::string at =
          "seed " + std::to_string(seed) + " op " + std::to_string(op);
      const std::uint64_t kind = rng.next_below(100);
      if (kind < 35) {
        live.mutate(rng);
        recover::Checkpoint c = live.snapshot(rng);
        ASSERT_EQ(store.take(c, c.parent, c.level), ref.take(c)) << at;
      } else if (kind < 60) {
        // Now and then the same shape again: a second flip of one bit.
        if (rng.next_below(3) != 0) shape = rng();
        ASSERT_EQ(store.corrupt_latest(shape), ref.corrupt_latest(shape))
            << at;
      } else if (kind < 75) {
        ASSERT_EQ(store.scrub(), ref.scrub()) << at;
      } else {
        // Mostly the true root; sometimes another vertex or one out of
        // range, which no stored snapshot passes (replay from source).
        const std::uint64_t pick = rng.next_below(10);
        const vid_t source =
            pick < 7 ? 0 : static_cast<vid_t>(rng.next_below(n + 4));
        const recover::Checkpoint& got = store.newest_clean(source);
        const recover::Checkpoint& want = ref.newest_clean(source);
        expect_same_snapshot(got, want, at);
        if (rng.next_below(2) == 0) {
          live.restore(want);
          store.rollback_to(got);
          ref.rollback_to(want);
        }
      }
      ASSERT_EQ(store.stored(), ref.stored()) << at;
      ASSERT_EQ(store.checkpoints_taken(), ref.checkpoints_taken()) << at;
      ASSERT_EQ(store.bytes_shipped(), ref.bytes_shipped()) << at;
    }
  }
}

// The layouts behind LevelLoop::shard_range and sieve_window: each rank's
// range is exactly the vertices owner() gives it, the ranges tile [0, n),
// and a 2D rank's piece lies inside its row block (its sieve window).
void expect_tiles(vid_t n, int parts,
                  const std::function<VertexRange(int)>& range,
                  const std::function<int(vid_t)>& owner,
                  const std::string& label) {
  std::vector<VertexRange> ranges;
  for (int r = 0; r < parts; ++r) ranges.push_back(range(r));
  for (int r = 0; r < parts; ++r) {
    for (vid_t v = ranges[r].begin; v < ranges[r].end; ++v) {
      ASSERT_EQ(owner(v), r) << label << " v=" << v;
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](VertexRange a, VertexRange b) { return a.begin < b.begin; });
  vid_t next = 0;
  for (const VertexRange& r : ranges) {
    ASSERT_GE(r.size(), 0) << label;
    if (r.size() == 0) continue;
    ASSERT_EQ(r.begin, next) << label;
    next = r.end;
  }
  EXPECT_EQ(next, n) << label;
}

TEST(SdcLayout, ShardRangesPartitionVerticesAndMatchOwner) {
  for (vid_t n : {1, 7, 100, 1000, 2048}) {
    const std::string size = "n=" + std::to_string(n);
    for (int parts : {1, 3, 16, 64}) {
      const dist::BlockPartition uniform(n, parts);
      expect_tiles(
          n, parts, [&](int r) { return uniform.range(r); },
          [&](vid_t v) { return uniform.owner(v); },
          size + " 1d uniform p=" + std::to_string(parts));
      std::vector<eid_t> degrees(static_cast<std::size_t>(n));
      for (vid_t v = 0; v < n; ++v) {
        degrees[static_cast<std::size_t>(v)] = v % 5 == 0 ? 40 : v % 3;
      }
      const auto balanced = dist::BlockPartition::edge_balanced(degrees, parts);
      expect_tiles(
          n, parts, [&](int r) { return balanced.range(r); },
          [&](vid_t v) { return balanced.owner(v); },
          size + " 1d edge-balanced p=" + std::to_string(parts));
    }
    for (const auto& [cores, threads] :
         {std::pair{16, 1}, std::pair{36, 1}, std::pair{64, 4},
          std::pair{1024, 1}}) {
      const auto full = simmpi::ProcessGrid::closest_square(cores, threads);
      // The grid a single death re-folds to (Bfs2D's shrink).
      const auto shrunk = simmpi::ProcessGrid::closest_square(
          (full.ranks() - 1) * threads, threads);
      for (const simmpi::ProcessGrid& grid : {full, shrunk}) {
        for (dist::VectorDistKind kind :
             {dist::VectorDistKind::kTwoD, dist::VectorDistKind::kDiagonal}) {
          const dist::VectorDist vd(n, grid, kind);
          const std::string label = size + " 2d " + dist::to_string(kind) +
                                    " " + std::to_string(grid.pr()) + "x" +
                                    std::to_string(grid.pc());
          expect_tiles(
              n, grid.ranks(),
              [&](int r) { return vd.piece(grid.row_of(r), grid.col_of(r)); },
              [&](vid_t v) { return vd.owner_rank(v); }, label);
          for (int r = 0; r < grid.ranks(); ++r) {
            const VertexRange piece = vd.piece(grid.row_of(r), grid.col_of(r));
            const VertexRange window = vd.row_blocks().range(grid.row_of(r));
            if (piece.size() == 0) continue;
            EXPECT_GE(piece.begin, window.begin) << label << " rank " << r;
            EXPECT_LE(piece.end, window.end) << label << " rank " << r;
          }
        }
      }
    }
  }
}

// ---- the differential matrix ------------------------------------------

// Flips against live (parent, level) shards for every distributed
// algorithm x audit cadence must be detected, rolled back, and repaired
// to the exact fault-free answer.
TEST(SdcChaos, FlippedRunsMatchFaultFreeBitForBit) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);
  const auto reference = graph::reference_levels(built.csr, source);

  const core::Algorithm algorithms[] = {
      core::Algorithm::kOneDFlat, core::Algorithm::kOneDHybrid,
      core::Algorithm::kTwoDFlat, core::Algorithm::kTwoDHybrid};
  const simmpi::FlipTarget targets[] = {simmpi::FlipTarget::kParents,
                                        simmpi::FlipTarget::kLevels};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions clean = base_options(algorithm, 16);
    core::Engine clean_engine{built.edges, n, clean};
    const auto expected = clean_engine.run(source);

    for (simmpi::FlipTarget target : targets) {
      for (int cadence : {1, 2}) {
        core::EngineOptions opts = base_options(algorithm, 16);
        opts.faults.mem_flips = {level_flip(1, 2, target)};
        opts.recover.checkpoint_every = 1;
        opts.recover.audit_every = cadence;
        core::Engine engine{built.edges, n, opts};
        const auto out = engine.run(source);

        const std::string label = std::string(core::to_string(algorithm)) +
                                  "/" + simmpi::to_string(target) +
                                  "/audit=" + std::to_string(cadence);
        EXPECT_EQ(out.parent, expected.parent) << label;
        EXPECT_EQ(out.level, expected.level) << label;
        EXPECT_TRUE(out.report.sdc.enabled) << label;
        EXPECT_GE(out.report.sdc.flips_injected, 1) << label;
        EXPECT_GE(out.report.sdc.audit_failures, 1) << label;
        EXPECT_GE(out.report.sdc.rollbacks, 1) << label;
        const auto v = graph::validate_bfs_tree(built.csr, source,
                                                out.parent, reference);
        EXPECT_TRUE(v.ok) << label << ": " << v.error;
      }
    }
  }
}

// A spurious bit in the sender-side visited sieve would silently starve
// the victim vertex of its parent; the sieve's internal mark checksums
// must catch it even after the vertex becomes legitimately visited.
TEST(SdcChaos, VisitedFlipDetectedInWireMode) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 16);
  clean.wire_format = comm::WireFormat::kSieve;
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);

  for (int cadence : {1, 2}) {
    core::EngineOptions opts = clean;
    opts.faults.mem_flips = {
        level_flip(1, 2, simmpi::FlipTarget::kVisited)};
    opts.recover.checkpoint_every = 1;
    opts.recover.audit_every = cadence;
    core::Engine engine{built.edges, n, opts};
    const auto out = engine.run(source);
    EXPECT_EQ(out.parent, expected.parent) << "audit=" << cadence;
    EXPECT_EQ(out.level, expected.level) << "audit=" << cadence;
    EXPECT_GE(out.report.sdc.flips_injected, 1) << "audit=" << cadence;
    EXPECT_GE(out.report.sdc.rollbacks, 1) << "audit=" << cadence;
  }
}

// A flipped bit in the direction-optimization m_u scalar must be caught
// by the replica comparison before the heuristic diverges the replay.
TEST(SdcChaos, DiropFlipRepairedInHybrid2D) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kTwoDFlat, 16);
  clean.direction = bfs::DirectionMode::kHybrid;
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);

  core::EngineOptions opts = clean;
  opts.faults.mem_flips = {level_flip(1, 2, simmpi::FlipTarget::kDirop)};
  opts.recover.checkpoint_every = 1;
  opts.recover.audit_every = 1;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.level, expected.level);
  EXPECT_GE(out.report.sdc.flips_injected, 1);
  EXPECT_GE(out.report.sdc.rollbacks, 1);
}

// A flip in a stored replica (not live state) must be rejected by the
// audit-time scrub and must never be restored from; the live traversal
// is unharmed, so no rollback fires.
TEST(SdcChaos, CorruptedCheckpointReplicaIsRejectedNotRestored) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 16);
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);

  core::EngineOptions opts = clean;
  opts.faults.mem_flips = {
      level_flip(1, 2, simmpi::FlipTarget::kCheckpoint)};
  opts.recover.checkpoint_every = 1;
  opts.recover.audit_every = 1;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.level, expected.level);
  EXPECT_GE(out.report.sdc.flips_injected, 1);
  EXPECT_GE(out.report.sdc.checkpoints_rejected, 1);
  EXPECT_EQ(out.report.sdc.rollbacks, 0);
  EXPECT_EQ(out.report.sdc.audit_failures, 0);
}

// Fail-stop and silent corruption compose: a kill and a flip in the same
// run exercise recover_from and rollback_from back to back, and the
// answer must still be exact.
TEST(SdcChaos, KillAndFlipComposeToTheExactAnswer) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  const recover::Policy policies[] = {recover::Policy::kShrink,
                                      recover::Policy::kSpare};
  for (recover::Policy policy : policies) {
    core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 16);
    core::Engine clean_engine{built.edges, n, clean};
    const auto expected = clean_engine.run(source);

    core::EngineOptions opts = clean;
    simmpi::RankKill kill;
    kill.rank = 2;
    kill.at_level = 2;
    opts.faults.rank_kills = {kill};
    opts.faults.mem_flips = {
        level_flip(1, 3, simmpi::FlipTarget::kParents)};
    opts.recover.policy = policy;
    opts.recover.checkpoint_every = 1;
    opts.recover.audit_every = 1;
    core::Engine engine{built.edges, n, opts};
    const auto out = engine.run(source);

    const std::string label = recover::to_string(policy);
    EXPECT_EQ(out.parent, expected.parent) << label;
    EXPECT_EQ(out.level, expected.level) << label;
    EXPECT_GE(out.report.recover.rank_failures, 1) << label;
    EXPECT_GE(out.report.sdc.flips_injected, 1) << label;
    EXPECT_GE(out.report.sdc.rollbacks, 1) << label;
  }
}

// A kill that becomes due during a rollback's own priced restore (the
// "sdc-rollback" collective) is a death like any other: it must be
// recovered instead of escaping run(). The kill time is taken
// just before the failed audit's verdict in a flip-only run, so the kill
// is not yet due at the audit allreduce but is at the rollback right
// after it.
TEST(SdcChaos, KillDuringRollbackIsRecovered) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  const core::Algorithm algorithms[] = {core::Algorithm::kOneDFlat,
                                        core::Algorithm::kTwoDFlat};
  const recover::Policy policies[] = {recover::Policy::kShrink,
                                      recover::Policy::kSpare};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions clean = base_options(algorithm, 16);
    core::Engine clean_engine{built.edges, n, clean};
    const auto expected = clean_engine.run(source);

    for (recover::Policy policy : policies) {
      const std::string label = std::string(core::to_string(algorithm)) +
                                "/" + recover::to_string(policy);
      core::EngineOptions opts = clean;
      opts.faults.mem_flips = {
          level_flip(1, 2, simmpi::FlipTarget::kParents)};
      opts.recover.policy = policy;
      opts.recover.checkpoint_every = 1;
      opts.recover.audit_every = 1;

      double verdict_at = -1.0;
      {
        core::Engine flipped{built.edges, n, opts};
        flipped.run(source);
        for (const auto& e : flipped.flight_recorder()->chronological()) {
          // Payload slot 0 of an "audit" event is its mismatch count.
          if (std::string(e.kind) == "audit" && e.value[0] > 0.0) {
            verdict_at = e.t;
            break;
          }
        }
      }
      ASSERT_GT(verdict_at, 0.0) << label;

      simmpi::RankKill kill;
      kill.rank = 3;
      kill.at_time = 0.99999 * verdict_at;
      opts.faults.rank_kills = {kill};
      core::Engine engine{built.edges, n, opts};
      const auto out = engine.run(source);
      EXPECT_EQ(out.parent, expected.parent) << label;
      EXPECT_EQ(out.level, expected.level) << label;
      EXPECT_GE(out.report.recover.rank_failures, 1) << label;
      EXPECT_GE(out.report.sdc.rollbacks, 1) << label;
    }
  }
}

// Flips naming ranks the cluster does not have are ignored, like kills
// and straggler entries — the run completes flip-free and exact.
TEST(SdcChaos, FlipsForAbsentRanksAreIgnored) {
  const auto built = test::rmat_graph(8, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions clean = base_options(core::Algorithm::kOneDFlat, 4);
  core::Engine clean_engine{built.edges, n, clean};
  const auto expected = clean_engine.run(source);

  core::EngineOptions opts = clean;
  opts.faults.mem_flips = {
      level_flip(50, 1, simmpi::FlipTarget::kParents)};
  opts.recover.checkpoint_every = 1;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);
  EXPECT_EQ(out.parent, expected.parent);
  EXPECT_EQ(out.level, expected.level);
  EXPECT_EQ(out.report.sdc.flips_injected, 0);
  EXPECT_EQ(out.report.sdc.rollbacks, 0);
}

// ---- inertness and observability --------------------------------------

// Auditing a clean run costs virtual time but must never change the
// answer; with auditing off and no flip plan the report JSON is
// byte-identical to a build without the subsystem.
TEST(Sdc, AuditOnlyRunsKeepTheAnswerAndPlainRunsStayByteIdentical) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  const core::Algorithm algorithms[] = {core::Algorithm::kOneDFlat,
                                        core::Algorithm::kTwoDFlat};
  for (core::Algorithm algorithm : algorithms) {
    core::EngineOptions plain = base_options(algorithm, 16);
    core::Engine plain_engine{built.edges, n, plain};
    const auto expected = plain_engine.run(source);
    const std::string plain_json =
        bfs::report_to_json(expected.report, false);
    EXPECT_EQ(plain_json.find("\"sdc\""), std::string::npos);

    // Two plain runs are byte-identical (determinism of the baseline the
    // inertness claim is made against).
    core::Engine plain_again{built.edges, n, plain};
    EXPECT_EQ(bfs::report_to_json(plain_again.run(source).report, false),
              plain_json)
        << core::to_string(algorithm);

    core::EngineOptions audited = plain;
    audited.recover.audit_every = 2;
    core::Engine audited_engine{built.edges, n, audited};
    const auto out = audited_engine.run(source);
    EXPECT_EQ(out.parent, expected.parent) << core::to_string(algorithm);
    EXPECT_EQ(out.level, expected.level) << core::to_string(algorithm);
    EXPECT_TRUE(out.report.sdc.enabled);
    EXPECT_EQ(out.report.sdc.audit_every, 2);
    EXPECT_GE(out.report.sdc.audits, 1);
    EXPECT_EQ(out.report.sdc.audit_failures, 0);
    EXPECT_EQ(out.report.sdc.rollbacks, 0);
    EXPECT_GT(out.report.sdc.audit_seconds, 0.0);
    // Audit-only arming must not make the run look recovery-armed.
    EXPECT_FALSE(out.report.recover.enabled);
    EXPECT_NE(bfs::report_to_json(out.report, false).find("\"sdc\":{"),
              std::string::npos);
  }
}

TEST(Sdc, ReportMetricsAndJsonDescribeTheRepair) {
  const auto built = test::rmat_graph(9, 8);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = test::hub_source(built.csr);

  core::EngineOptions opts = base_options(core::Algorithm::kTwoDFlat, 16);
  opts.faults.mem_flips = {level_flip(1, 2, simmpi::FlipTarget::kParents)};
  opts.recover.checkpoint_every = 1;
  opts.recover.audit_every = 1;
  opts.metrics = true;
  core::Engine engine{built.edges, n, opts};
  const auto out = engine.run(source);

  const bfs::SdcReport& s = out.report.sdc;
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.audit_every, 1);
  EXPECT_GE(s.audits, 2);
  EXPECT_GE(s.audit_failures, 1);
  EXPECT_EQ(s.flips_injected, 1);
  EXPECT_GE(s.rollbacks, 1);
  EXPECT_GE(s.replayed_levels, 1);
  EXPECT_GT(s.audit_seconds, 0.0);
  EXPECT_GT(s.rollback_seconds, 0.0);

  ASSERT_NE(engine.metrics(), nullptr);
  EXPECT_GE(engine.metrics()->counter("sdc.audits"), 2);
  EXPECT_GE(engine.metrics()->counter("sdc.audit_failures"), 1);
  EXPECT_EQ(engine.metrics()->counter("sdc.flips_injected"), 1);
  EXPECT_GE(engine.metrics()->counter("sdc.rollbacks"), 1);
  EXPECT_GE(engine.metrics()->counter("sdc.replayed_levels"), 1);

  const std::string json = bfs::report_to_json(out.report, false);
  EXPECT_NE(json.find("\"sdc\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"audits\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rollbacks\":"), std::string::npos) << json;
}

// ---- structured validation errors -------------------------------------

TEST(SdcValidator, StructuredFailureNamesInvariantAndVertex) {
  const auto built = test::rmat_graph(8, 8);
  const vid_t source = test::hub_source(built.csr);
  const auto serial = bfs::serial_bfs(built.csr, source);

  const auto ok = graph::validate_bfs_tree(built.csr, source, serial.parent);
  EXPECT_TRUE(ok.ok);
  EXPECT_TRUE(ok.failed_check.empty());
  EXPECT_EQ(ok.sample_vertex, -1);

  // Rewire one visited vertex straight to the source when no edge joins
  // them (re-rooting can never create a parent cycle): the tree-edge
  // check must name both the invariant and the offending vertex.
  const vid_t n = built.csr.num_vertices();
  std::vector<vid_t> tampered = serial.parent;
  vid_t victim = -1;
  for (vid_t v = 0; v < n; ++v) {
    if (v == source || tampered[v] == kNoVertex) continue;
    const auto nbrs = built.csr.neighbors(v);
    if (!std::binary_search(nbrs.begin(), nbrs.end(), source)) {
      tampered[v] = source;
      victim = v;
      break;
    }
  }
  ASSERT_GE(victim, 0) << "graph too dense to plant a missing tree edge";
  const auto bad = graph::validate_bfs_tree(built.csr, source, tampered);
  ASSERT_FALSE(bad.ok);
  EXPECT_EQ(bad.failed_check, "tree-edge-missing");
  EXPECT_EQ(bad.sample_vertex, victim);
  EXPECT_NE(bad.error.find("check 3"), std::string::npos) << bad.error;
}

}  // namespace
}  // namespace dbfs
