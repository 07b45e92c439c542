// Compressed wire formats for the per-level frontier/candidate exchanges
// (Lv et al. 2012, "Compression and Sieve"; Buluç et al. 2017): dense
// destination blocks ship as owner-range bitmaps, sparse blocks as
// delta-encoded varints, and the `auto` polyalgorithm picks the smaller
// encoding per (destination, level) from exact byte sizes — the same
// size-based switching idea as the SpMSV SPA/heap selector.
//
// Every encoded block is self-framing (tag byte + item count + payload
// length, all LEB128), so a stream formed by concatenating blocks — the
// receive side of an alltoallv or allgatherv — decodes unambiguously
// block by block. Encoded payloads travel through the existing simmpi
// collectives as std::uint8_t items, which keeps the traffic metering and
// the checked_* payload checksums working unchanged on the compressed
// bytes. An empty block encodes to zero bytes, matching the raw path.
//
// This header is deliberately independent of the bfs layer: candidate
// codecs are templated over any trivially-copyable item exposing
// `.vertex`/`.parent` members (bfs::Candidate in practice).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace dbfs::comm {

/// CLI-selectable policy for the candidate/frontier exchanges.
enum class WireFormat {
  kRaw,     ///< legacy byte-for-byte path: no sieve, 16-byte candidates
  kSieve,   ///< sender-side visited sieve, raw item encoding
  kBitmap,  ///< sieve + owner-range bitmap blocks (varint fallback when a
            ///< block still carries duplicate targets)
  kVarint,  ///< sieve + delta-encoded varint blocks
  kAuto,    ///< sieve + per-block minimum of {items, bitmap, varint}
};

const char* to_string(WireFormat f);
/// Parse "raw|sieve|bitmap|varint|auto"; throws std::invalid_argument.
WireFormat parse_wire_format(const std::string& name);

/// True when the format filters candidates through the visited sieve.
inline bool wire_sieves(WireFormat f) noexcept {
  return f != WireFormat::kRaw;
}
/// True when the format compresses payload blocks (vs raw item bytes).
inline bool wire_compresses(WireFormat f) noexcept {
  return f == WireFormat::kBitmap || f == WireFormat::kVarint ||
         f == WireFormat::kAuto;
}

/// Per-block encoding actually chosen on the wire (the frame tag byte).
enum class BlockEncoding : std::uint8_t {
  kItems = 0,   ///< raw little-endian item bytes
  kBitmap = 1,  ///< base/width presence bitmap + varint parents
  kVarint = 2,  ///< varint vertex deltas + varint parents
};

/// Byte accounting for the metrics registry and the codec cost charges.
struct WireStats {
  std::uint64_t raw_bytes = 0;      ///< bytes the blocks would cost unencoded
  std::uint64_t encoded_bytes = 0;  ///< bytes actually shipped (incl. frames)
  std::uint64_t items = 0;
  std::uint64_t blocks_items = 0;
  std::uint64_t blocks_bitmap = 0;
  std::uint64_t blocks_varint = 0;

  void merge(const WireStats& o) noexcept {
    raw_bytes += o.raw_bytes;
    encoded_bytes += o.encoded_bytes;
    items += o.items;
    blocks_items += o.blocks_items;
    blocks_bitmap += o.blocks_bitmap;
    blocks_varint += o.blocks_varint;
  }

  /// encoded/raw shipped-byte ratio: < 1 means the codec pays for
  /// itself, ~1 means it is shipping raw blocks plus framing. 1.0 when
  /// nothing has been encoded yet. This is the definition the doctor's
  /// codec-fallback classifier and the wire.* metrics share.
  double compression_ratio() const noexcept;

  /// Share of emitted blocks that fell back to raw item lists (0 when no
  /// blocks were emitted).
  double raw_block_share() const noexcept;
};

/// Malformed frame or truncated payload. Checked collectives verify the
/// transported bytes, so hitting this indicates a codec bug, not a fault.
struct WireDecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---------- LEB128 varints ----------

inline void put_uvarint(std::vector<std::uint8_t>& out,
                        std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// Bytes put_uvarint writes for `value`: one per started 7-bit group.
inline std::size_t uvarint_size(std::uint64_t value) noexcept {
  return static_cast<std::size_t>((std::bit_width(value | 1) + 6) / 7);
}

/// Decode one varint from data[0..size); returns bytes consumed and
/// writes the value. Throws WireDecodeError on truncation or overflow.
inline std::size_t get_uvarint(const std::uint8_t* data, std::size_t size,
                               std::uint64_t* value) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < size && i < 10; ++i) {
    v |= static_cast<std::uint64_t>(data[i] & 0x7F) << (7 * i);
    if ((data[i] & 0x80) == 0) {
      *value = v;
      return i + 1;
    }
  }
  throw WireDecodeError("wire: truncated or overlong varint");
}

// ---------- frontier vertex lists (2D expand payloads) ----------

/// Encode one strictly-ascending vertex list as a framed block appended
/// to `out`. kRaw/kSieve ship raw 8-byte ids; compressing formats pick
/// per the policy. Empty input appends nothing.
void encode_vertex_list(std::span<const vid_t> sorted, WireFormat format,
                        std::vector<std::uint8_t>& out, WireStats* stats);

/// Decode a concatenation of framed vertex-list blocks, appending the
/// vertices to `out` in stream order.
void decode_vertex_stream(const std::uint8_t* data, std::size_t size,
                          std::vector<vid_t>& out);

/// Dense-bitmap fast path for vertex lists whose owner range is known to
/// the caller (the bottom-up frontier/visited exchanges, where every
/// vertex falls in [range_begin, range_end)): when the format compresses
/// and the list fills at least 1/8 of the range — the density at which a
/// range-wide presence bitmap beats raw 8-byte ids outright — one bitmap
/// block spanning the whole range is emitted directly, with no per-item
/// sizing pass. Sparse lists and non-compressing formats delegate to
/// encode_vertex_list unchanged; either way the output decodes with
/// decode_vertex_stream. This is a separate entry point so the top-down
/// expand/fold byte streams stay byte-for-byte what they were.
void encode_vertex_bitmap(std::span<const vid_t> sorted, vid_t range_begin,
                          vid_t range_end, WireFormat format,
                          std::vector<std::uint8_t>& out, WireStats* stats);

// ---------- candidate blocks ----------

namespace detail {

struct Frame {
  BlockEncoding encoding;
  std::uint64_t count;
  std::uint64_t payload_bytes;
  std::size_t header_bytes;
};

/// Parse one block frame; validates the payload fits in the buffer.
Frame read_frame(const std::uint8_t* data, std::size_t size);

void write_frame(std::vector<std::uint8_t>& out, BlockEncoding encoding,
                 std::uint64_t count, std::uint64_t payload_bytes);

/// Byte size of the bitmap payload for vertices spanning [base, last], or
/// 0 when the block is not bitmap-encodable (duplicates present).
std::uint64_t bitmap_payload_size(std::uint64_t width, bool unique,
                                  std::uint64_t parent_varint_bytes) noexcept;

}  // namespace detail

/// Encode one destination block of candidate items as a framed block
/// appended to `out`. Compressing formats require the block sorted
/// ascending by `.vertex` (the sieve pass guarantees this); kBitmap
/// falls back to varint per block when duplicate targets remain. Empty
/// input appends nothing.
template <typename C>
void encode_candidates(std::span<const C> block, WireFormat format,
                       std::vector<std::uint8_t>& out, WireStats* stats) {
  static_assert(std::is_trivially_copyable_v<C>,
                "wire items must be trivially copyable");
  if (block.empty()) return;
  const std::uint64_t raw_bytes =
      static_cast<std::uint64_t>(block.size()) * sizeof(C);
  const std::size_t out_before = out.size();

  BlockEncoding choice = BlockEncoding::kItems;
  std::uint64_t varint_payload = 0;
  std::uint64_t bitmap_payload = 0;
  if (wire_compresses(format)) {
    // Exact payload sizes, computed without writing: varint = delta +
    // parent per item; bitmap = base + width + presence bits + parents.
    bool unique = true;
    std::uint64_t parent_bytes = 0;
    vid_t prev = 0;
    for (std::size_t i = 0; i < block.size(); ++i) {
      const vid_t v = block[i].vertex;
      const auto delta = static_cast<std::uint64_t>(v - (i == 0 ? 0 : prev));
      if (i > 0 && v == prev) unique = false;
      varint_payload += uvarint_size(i == 0
                                         ? static_cast<std::uint64_t>(v)
                                         : delta);
      const auto pb =
          uvarint_size(static_cast<std::uint64_t>(block[i].parent));
      varint_payload += pb;
      parent_bytes += pb;
      prev = v;
    }
    const auto width = static_cast<std::uint64_t>(
        block.back().vertex - block.front().vertex + 1);
    bitmap_payload = detail::bitmap_payload_size(width, unique, parent_bytes);
    if (bitmap_payload > 0) {
      bitmap_payload += uvarint_size(
          static_cast<std::uint64_t>(block.front().vertex)) +
          uvarint_size(width);
    }

    if (format == WireFormat::kVarint) {
      choice = BlockEncoding::kVarint;
    } else if (format == WireFormat::kBitmap) {
      choice = bitmap_payload > 0 ? BlockEncoding::kBitmap
                                  : BlockEncoding::kVarint;
    } else {  // kAuto: strict minimum, raw wins ties (cheapest to decode)
      choice = BlockEncoding::kItems;
      std::uint64_t best = raw_bytes;
      if (bitmap_payload > 0 && bitmap_payload < best) {
        best = bitmap_payload;
        choice = BlockEncoding::kBitmap;
      }
      if (varint_payload < best) choice = BlockEncoding::kVarint;
    }
  }

  switch (choice) {
    case BlockEncoding::kItems: {
      detail::write_frame(out, BlockEncoding::kItems,
                          static_cast<std::uint64_t>(block.size()),
                          raw_bytes);
      const std::size_t at = out.size();
      out.resize(at + static_cast<std::size_t>(raw_bytes));
      std::memcpy(out.data() + at, block.data(),
                  static_cast<std::size_t>(raw_bytes));
      if (stats != nullptr) ++stats->blocks_items;
      break;
    }
    case BlockEncoding::kBitmap: {
      detail::write_frame(out, BlockEncoding::kBitmap,
                          static_cast<std::uint64_t>(block.size()),
                          bitmap_payload);
      const auto base = static_cast<std::uint64_t>(block.front().vertex);
      const auto width = static_cast<std::uint64_t>(
          block.back().vertex - block.front().vertex + 1);
      put_uvarint(out, base);
      put_uvarint(out, width);
      const std::size_t bits_at = out.size();
      out.resize(bits_at + static_cast<std::size_t>((width + 7) / 8), 0);
      for (const C& c : block) {
        const auto bit =
            static_cast<std::uint64_t>(c.vertex) - base;
        out[bits_at + static_cast<std::size_t>(bit >> 3)] |=
            static_cast<std::uint8_t>(1u << (bit & 7));
      }
      for (const C& c : block) {
        put_uvarint(out, static_cast<std::uint64_t>(c.parent));
      }
      if (stats != nullptr) ++stats->blocks_bitmap;
      break;
    }
    case BlockEncoding::kVarint: {
      detail::write_frame(out, BlockEncoding::kVarint,
                          static_cast<std::uint64_t>(block.size()),
                          varint_payload);
      vid_t prev = 0;
      for (std::size_t i = 0; i < block.size(); ++i) {
        put_uvarint(out, static_cast<std::uint64_t>(
                             i == 0 ? block[i].vertex
                                    : block[i].vertex - prev));
        put_uvarint(out, static_cast<std::uint64_t>(block[i].parent));
        prev = block[i].vertex;
      }
      if (stats != nullptr) ++stats->blocks_varint;
      break;
    }
  }

  if (stats != nullptr) {
    stats->raw_bytes += raw_bytes;
    stats->encoded_bytes += out.size() - out_before;
    stats->items += block.size();
  }
}

/// Decode a concatenation of framed candidate blocks, appending the items
/// to `out` in stream order (bitmap blocks come back vertex-ascending,
/// exactly the order they were encoded in).
template <typename C>
void decode_candidate_stream(const std::uint8_t* data, std::size_t size,
                             std::vector<C>& out) {
  std::size_t offset = 0;
  while (offset < size) {
    const detail::Frame f = detail::read_frame(data + offset, size - offset);
    const std::uint8_t* payload = data + offset + f.header_bytes;
    switch (f.encoding) {
      case BlockEncoding::kItems: {
        if (f.payload_bytes != f.count * sizeof(C)) {
          throw WireDecodeError("wire: item block size mismatch");
        }
        const std::size_t at = out.size();
        out.resize(at + static_cast<std::size_t>(f.count));
        std::memcpy(out.data() + at, payload,
                    static_cast<std::size_t>(f.payload_bytes));
        break;
      }
      case BlockEncoding::kBitmap: {
        std::size_t pos = 0;
        std::uint64_t base = 0;
        std::uint64_t width = 0;
        pos += get_uvarint(payload + pos,
                           static_cast<std::size_t>(f.payload_bytes) - pos,
                           &base);
        pos += get_uvarint(payload + pos,
                           static_cast<std::size_t>(f.payload_bytes) - pos,
                           &width);
        const auto bitmap_bytes = static_cast<std::size_t>((width + 7) / 8);
        if (pos + bitmap_bytes > f.payload_bytes) {
          throw WireDecodeError("wire: bitmap block truncated");
        }
        const std::uint8_t* bits = payload + pos;
        pos += bitmap_bytes;
        std::uint64_t found = 0;
        for (std::uint64_t b = 0; b < width; ++b) {
          if ((bits[static_cast<std::size_t>(b >> 3)] >> (b & 7)) & 1u) {
            std::uint64_t parent = 0;
            pos += get_uvarint(
                payload + pos,
                static_cast<std::size_t>(f.payload_bytes) - pos, &parent);
            C c{};
            c.vertex = static_cast<vid_t>(base + b);
            c.parent = static_cast<vid_t>(parent);
            out.push_back(c);
            ++found;
          }
        }
        if (found != f.count || pos != f.payload_bytes) {
          throw WireDecodeError("wire: bitmap block count mismatch");
        }
        break;
      }
      case BlockEncoding::kVarint: {
        std::size_t pos = 0;
        vid_t prev = 0;
        for (std::uint64_t i = 0; i < f.count; ++i) {
          std::uint64_t delta = 0;
          std::uint64_t parent = 0;
          pos += get_uvarint(
              payload + pos,
              static_cast<std::size_t>(f.payload_bytes) - pos, &delta);
          pos += get_uvarint(
              payload + pos,
              static_cast<std::size_t>(f.payload_bytes) - pos, &parent);
          C c{};
          c.vertex = prev + static_cast<vid_t>(delta);
          c.parent = static_cast<vid_t>(parent);
          prev = c.vertex;
          out.push_back(c);
        }
        if (pos != f.payload_bytes) {
          throw WireDecodeError("wire: varint block size mismatch");
        }
        break;
      }
      default:
        throw WireDecodeError("wire: unknown block encoding");
    }
    offset += f.header_bytes + static_cast<std::size_t>(f.payload_bytes);
  }
}

}  // namespace dbfs::comm
