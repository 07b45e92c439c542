#include "comm/sieve.hpp"

namespace dbfs::comm {

void Sieve::reset(std::span<const VertexRange> windows) {
  bitmaps_.resize(windows.size());
  for (std::size_t r = 0; r < windows.size(); ++r) {
    Bitmap& b = bitmaps_[r];
    b.lo = windows[r].begin;
    b.width = static_cast<std::uint64_t>(windows[r].size());
    b.words.assign((static_cast<std::size_t>(b.width) + 63) / 64, 0);
    b.strays.clear();
    b.sum = 0;
  }
}

void Sieve::corrupt(int rank, vid_t v) {
  Bitmap& b = bitmaps_[static_cast<std::size_t>(rank)];
  const auto off = static_cast<std::uint64_t>(v - b.lo);
  if (off < b.width) {
    b.words[off >> 6] ^= std::uint64_t{1} << (off & 63);
    return;
  }
  const auto it = std::lower_bound(b.strays.begin(), b.strays.end(), v);
  if (it != b.strays.end() && *it == v) {
    b.strays.erase(it);
  } else {
    b.strays.insert(it, v);
  }
}

}  // namespace dbfs::comm
