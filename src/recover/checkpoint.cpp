#include "recover/checkpoint.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/prng.hpp"

namespace dbfs::recover {

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::kShrink:
      return "shrink";
    case Policy::kSpare:
      return "spare";
  }
  return "?";
}

Policy parse_policy(const std::string& name) {
  if (name == "shrink") return Policy::kShrink;
  if (name == "spare") return Policy::kSpare;
  throw std::invalid_argument("unknown recovery policy: " + name);
}

std::uint64_t checkpoint_checksum(const CheckpointDelta& delta) noexcept {
  std::uint64_t h = 0x6368656b73756dULL;  // "cheksum" seed
  const auto mix = [&h](std::uint64_t v) { h = util::mix64(h ^ v); };
  const CheckpointHeader& head = delta.header;
  mix(static_cast<std::uint64_t>(head.levels_completed));
  mix(static_cast<std::uint64_t>(head.global_frontier));
  mix(delta.num_vertices);
  mix(delta.records.size());
  for (const CheckpointRecord& r : delta.records) {
    mix(static_cast<std::uint64_t>(r.vertex));
    mix(static_cast<std::uint64_t>(r.parent));
    mix(static_cast<std::uint64_t>(r.level));
  }
  mix(head.frontier.size());
  for (vid_t v : head.frontier) mix(static_cast<std::uint64_t>(v));
  mix(static_cast<std::uint64_t>(head.dirop_frontier_edges));
  mix(static_cast<std::uint64_t>(head.dirop_unexplored_edges));
  mix(head.dirop_bottom_up ? 1u : 0u);
  return h;
}

const char* checkpoint_defect(const Checkpoint& snapshot, vid_t source) {
  if (snapshot.level.empty() && snapshot.parent.empty()) {
    return nullptr;  // the implicit replay-from-source snapshot
  }
  const std::size_t n = snapshot.level.size();
  if (snapshot.parent.size() != n) return "array-size-mismatch";
  if (source < 0 || static_cast<std::size_t>(source) >= n) {
    return "source-out-of-range";
  }
  if (snapshot.parent[static_cast<std::size_t>(source)] != source) {
    return "source-parent";
  }
  if (snapshot.level[static_cast<std::size_t>(source)] != 0) {
    return "source-level";
  }
  for (std::size_t v = 0; v < n; ++v) {
    const level_t lv = snapshot.level[v];
    const vid_t pv = snapshot.parent[v];
    if (lv == kUnreached) {
      if (pv != kNoVertex) return "unreached-with-parent";
      continue;
    }
    if (lv < 0 || lv > snapshot.levels_completed) return "level-range";
    if (static_cast<vid_t>(v) == source) continue;
    if (pv < 0 || static_cast<std::size_t>(pv) >= n) return "parent-range";
    if (snapshot.level[static_cast<std::size_t>(pv)] != lv - 1) {
      return "tree-property";
    }
  }
  if (snapshot.global_frontier !=
      static_cast<std::int64_t>(snapshot.frontier.size())) {
    return "frontier-count";
  }
  level_t frontier_level = -1;
  for (vid_t v : snapshot.frontier) {
    if (v < 0 || static_cast<std::size_t>(v) >= n) return "frontier-range";
    const level_t lv = snapshot.level[static_cast<std::size_t>(v)];
    if (lv == kUnreached) return "frontier-unvisited";
    if (frontier_level < 0) frontier_level = lv;
    if (lv != frontier_level) return "frontier-level";
  }
  return nullptr;
}

namespace {

std::int64_t count_visited(std::span<const level_t> level) {
  std::int64_t visited = 0;
  for (level_t l : level) visited += l != kUnreached ? 1 : 0;
  return visited;
}

}  // namespace

void CheckpointStore::arm(const RecoverOptions& options) {
  options_ = options;
  armed_ = true;
  log_.clear();
  num_vertices_ = 0;
  image_parent_.clear();
  image_level_.clear();
  prev_visited_ = 0;
  taken_ = 0;
  bytes_ = 0;
}

std::uint64_t CheckpointStore::take(CheckpointHeader header,
                                    std::span<const vid_t> parent,
                                    std::span<const level_t> level) {
  const std::size_t n = level.size();
  if (parent.size() != n) {
    throw std::invalid_argument("CheckpointStore::take: parent and level "
                                "arrays differ in length");
  }
  if (log_.empty()) {
    num_vertices_ = n;
    rebase_image();
  } else if (n != num_vertices_) {
    throw std::invalid_argument("CheckpointStore::take: the vertex count "
                                "changed while snapshots are stored");
  }
  // One pass: count visited vertices for the metered increment, and
  // record (and fold into the image) every entry the image lacks.
  Entry entry;
  entry.delta.header = std::move(header);
  entry.delta.num_vertices = n;
  std::int64_t visited = 0;
  for (std::size_t v = 0; v < n; ++v) {
    visited += level[v] != kUnreached ? 1 : 0;
    if (level[v] != image_level_[v] || parent[v] != image_parent_[v]) {
      image_level_[v] = level[v];
      image_parent_[v] = parent[v];
      entry.delta.records.push_back(
          {static_cast<vid_t>(v), parent[v], level[v]});
    }
  }
  // Incremental on the wire: only entries visited since the previous
  // snapshot ship to the replica, plus the frontier list. The level-0
  // snapshot (just the source) is free by the same rule.
  const std::int64_t fresh = visited - prev_visited_;
  const std::uint64_t increment =
      static_cast<std::uint64_t>(fresh > 0 ? fresh : 0) *
          (sizeof(vid_t) + sizeof(level_t)) +
      entry.delta.header.frontier.size() * sizeof(vid_t);
  prev_visited_ = visited;
  entry.checksum = checkpoint_checksum(entry.delta);
  log_.push_back(std::move(entry));
  ++taken_;
  bytes_ += increment;
  return increment;
}

void CheckpointStore::materialize(std::size_t newest, Checkpoint& out) const {
  static_cast<CheckpointHeader&>(out) = log_[newest].delta.header;
  out.parent.assign(num_vertices_, kNoVertex);
  out.level.assign(num_vertices_, kUnreached);
  for (std::size_t k = 0; k <= newest; ++k) {
    for (const CheckpointRecord& r : log_[k].delta.records) {
      out.parent[static_cast<std::size_t>(r.vertex)] = r.parent;
      out.level[static_cast<std::size_t>(r.vertex)] = r.level;
    }
  }
}

void CheckpointStore::rebase_image() {
  if (log_.empty()) {
    image_parent_.assign(num_vertices_, kNoVertex);
    image_level_.assign(num_vertices_, kUnreached);
    return;
  }
  Checkpoint newest;
  materialize(log_.size() - 1, newest);
  image_parent_ = std::move(newest.parent);
  image_level_ = std::move(newest.level);
}

const Checkpoint& CheckpointStore::newest_clean(vid_t source) {
  for (std::size_t k = log_.size(); k-- > 0;) {
    const Entry& e = log_[k];
    if (e.rejected || checkpoint_checksum(e.delta) != e.checksum) continue;
    materialize(k, view_);
    if (checkpoint_defect(view_, source) != nullptr) continue;
    view_index_ = k;
    return view_;
  }
  return empty_;
}

void CheckpointStore::rollback_to(const Checkpoint& snapshot) {
  if (&snapshot == &empty_) {
    log_.clear();
  } else if (&snapshot == &view_) {
    log_.erase(log_.begin() + static_cast<std::ptrdiff_t>(view_index_) + 1,
               log_.end());
  } else {
    throw std::invalid_argument("CheckpointStore::rollback_to: not a "
                                "snapshot newest_clean returned");
  }
  // The image is the new newest snapshot's arrays (empty when nothing
  // is stored; the next take() re-bases it).
  image_parent_ = snapshot.parent;
  image_level_ = snapshot.level;
  // Reset the incremental baseline: the next take() re-ships everything
  // the discarded snapshots had already replicated.
  prev_visited_ = count_visited(snapshot.level);
}

bool CheckpointStore::corrupt_latest(std::uint64_t shape) {
  if (log_.empty()) return false;
  Entry& e = log_.back();
  std::vector<vid_t>& frontier = e.delta.header.frontier;
  // Pick a non-empty array — parent, level, frontier, in that order, as
  // in a full copy — then an item and a bit, like the wire-payload
  // corrupter in comm.hpp. The stored checksum is deliberately left
  // stale, which is what distinguishes rot from a legitimate rewrite.
  const std::size_t n = e.delta.num_vertices;
  const std::size_t slots = (n > 0 ? 2 : 0) + (frontier.empty() ? 0 : 1);
  if (slots == 0) return false;
  const std::size_t slot = n > 0 ? (shape >> 8) % slots : 2;
  const auto flip_bit = [shape](auto& value) {
    const std::size_t byte = (shape >> 40) % sizeof(value);
    reinterpret_cast<unsigned char*>(&value)[byte] ^=
        static_cast<unsigned char>(1u << ((shape >> 50) % 8));
  };
  if (slot == 2) {
    flip_bit(frontier[(shape >> 16) % frontier.size()]);
    return true;
  }
  // The victim entry as the newest snapshot holds it. When this delta
  // did not ship it, the flip adds a record carrying the image's value.
  const auto v = static_cast<vid_t>((shape >> 16) % n);
  auto& records = e.delta.records;
  auto it = std::lower_bound(
      records.begin(), records.end(), v,
      [](const CheckpointRecord& r, vid_t x) { return r.vertex < x; });
  if (it == records.end() || it->vertex != v) {
    const auto i = static_cast<std::size_t>(v);
    it = records.insert(it, {v, image_parent_[i], image_level_[i]});
    e.injected.push_back(*it);
  }
  if (slot == 0) {
    flip_bit(it->parent);
  } else {
    flip_bit(it->level);
  }
  // The image follows the flip, so the next take() re-ships the true
  // value and later snapshots materialize clean.
  image_parent_[static_cast<std::size_t>(v)] = it->parent;
  image_level_[static_cast<std::size_t>(v)] = it->level;
  const auto added = std::find_if(
      e.injected.begin(), e.injected.end(),
      [v](const CheckpointRecord& r) { return r.vertex == v; });
  if (added != e.injected.end() && added->parent == it->parent &&
      added->level == it->level) {
    records.erase(it);
    e.injected.erase(added);
  }
  return true;
}

int CheckpointStore::scrub() {
  int rejected = 0;
  for (Entry& e : log_) {
    if (e.rejected || checkpoint_checksum(e.delta) == e.checksum) continue;
    e.rejected = true;
    ++rejected;
  }
  if (!log_.empty() && log_.back().rejected) {
    while (!log_.empty() && log_.back().rejected) log_.pop_back();
    rebase_image();
  }
  return rejected;
}

std::size_t CheckpointStore::stored() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      log_.begin(), log_.end(), [](const Entry& e) { return !e.rejected; }));
}

std::uint64_t restore_payload_bytes(const Checkpoint& snapshot) {
  const std::int64_t visited = count_visited(snapshot.level);
  return static_cast<std::uint64_t>(visited > 0 ? visited : 0) *
             (sizeof(vid_t) + sizeof(level_t)) +
         snapshot.frontier.size() * sizeof(vid_t);
}

std::uint64_t shard_payload_bytes(std::uint64_t shard_vertices) noexcept {
  return shard_vertices * (sizeof(vid_t) + sizeof(level_t));
}

}  // namespace dbfs::recover
