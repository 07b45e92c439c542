#include "comm/wire_format.hpp"

namespace dbfs::comm {

const char* to_string(WireFormat f) {
  switch (f) {
    case WireFormat::kRaw:
      return "raw";
    case WireFormat::kSieve:
      return "sieve";
    case WireFormat::kBitmap:
      return "bitmap";
    case WireFormat::kVarint:
      return "varint";
    case WireFormat::kAuto:
      return "auto";
  }
  return "?";
}

double WireStats::compression_ratio() const noexcept {
  if (raw_bytes == 0) return 1.0;
  return static_cast<double>(encoded_bytes) / static_cast<double>(raw_bytes);
}

double WireStats::raw_block_share() const noexcept {
  const std::uint64_t total = blocks_items + blocks_bitmap + blocks_varint;
  if (total == 0) return 0.0;
  return static_cast<double>(blocks_items) / static_cast<double>(total);
}

WireFormat parse_wire_format(const std::string& name) {
  if (name == "raw") return WireFormat::kRaw;
  if (name == "sieve") return WireFormat::kSieve;
  if (name == "bitmap") return WireFormat::kBitmap;
  if (name == "varint") return WireFormat::kVarint;
  if (name == "auto") return WireFormat::kAuto;
  throw std::invalid_argument("unknown wire format: " + name);
}

namespace detail {

Frame read_frame(const std::uint8_t* data, std::size_t size) {
  if (size == 0) throw WireDecodeError("wire: empty frame");
  const std::uint8_t tag = data[0];
  if (tag > static_cast<std::uint8_t>(BlockEncoding::kVarint)) {
    throw WireDecodeError("wire: unknown block encoding tag");
  }
  Frame f;
  f.encoding = static_cast<BlockEncoding>(tag);
  std::size_t pos = 1;
  pos += get_uvarint(data + pos, size - pos, &f.count);
  pos += get_uvarint(data + pos, size - pos, &f.payload_bytes);
  f.header_bytes = pos;
  if (f.payload_bytes > size - pos) {
    throw WireDecodeError("wire: frame payload overruns buffer");
  }
  return f;
}

void write_frame(std::vector<std::uint8_t>& out, BlockEncoding encoding,
                 std::uint64_t count, std::uint64_t payload_bytes) {
  out.push_back(static_cast<std::uint8_t>(encoding));
  put_uvarint(out, count);
  put_uvarint(out, payload_bytes);
}

std::uint64_t bitmap_payload_size(std::uint64_t width, bool unique,
                                  std::uint64_t parent_varint_bytes) noexcept {
  // A duplicate target cannot be expressed as a presence bit; the caller
  // falls back to varint. Cap the range so one outlier vertex cannot
  // inflate the presence bitmap past any useful size.
  constexpr std::uint64_t kMaxWidth = std::uint64_t{1} << 32;
  if (!unique || width == 0 || width > kMaxWidth) return 0;
  return (width + 7) / 8 + parent_varint_bytes;
}

}  // namespace detail

void encode_vertex_list(std::span<const vid_t> sorted, WireFormat format,
                        std::vector<std::uint8_t>& out, WireStats* stats) {
  if (sorted.empty()) return;
  const std::uint64_t raw_bytes =
      static_cast<std::uint64_t>(sorted.size()) * sizeof(vid_t);
  const std::size_t out_before = out.size();

  BlockEncoding choice = BlockEncoding::kItems;
  std::uint64_t varint_payload = 0;
  std::uint64_t bitmap_payload = 0;
  if (wire_compresses(format)) {
    bool unique = true;
    vid_t prev = 0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0 && sorted[i] == prev) unique = false;
      varint_payload += uvarint_size(static_cast<std::uint64_t>(
          i == 0 ? sorted[i] : sorted[i] - prev));
      prev = sorted[i];
    }
    const auto width =
        static_cast<std::uint64_t>(sorted.back() - sorted.front() + 1);
    bitmap_payload = detail::bitmap_payload_size(width, unique, 0);
    if (bitmap_payload > 0) {
      bitmap_payload += uvarint_size(
          static_cast<std::uint64_t>(sorted.front())) +
          uvarint_size(width);
    }
    if (format == WireFormat::kVarint) {
      choice = BlockEncoding::kVarint;
    } else if (format == WireFormat::kBitmap) {
      choice = bitmap_payload > 0 ? BlockEncoding::kBitmap
                                  : BlockEncoding::kVarint;
    } else {
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
                          static_cast<std::uint64_t>(sorted.size()),
                          raw_bytes);
      const std::size_t at = out.size();
      out.resize(at + static_cast<std::size_t>(raw_bytes));
      std::memcpy(out.data() + at, sorted.data(),
                  static_cast<std::size_t>(raw_bytes));
      if (stats != nullptr) ++stats->blocks_items;
      break;
    }
    case BlockEncoding::kBitmap: {
      detail::write_frame(out, BlockEncoding::kBitmap,
                          static_cast<std::uint64_t>(sorted.size()),
                          bitmap_payload);
      const auto base = static_cast<std::uint64_t>(sorted.front());
      const auto width =
          static_cast<std::uint64_t>(sorted.back() - sorted.front() + 1);
      put_uvarint(out, base);
      put_uvarint(out, width);
      const std::size_t bits_at = out.size();
      out.resize(bits_at + static_cast<std::size_t>((width + 7) / 8), 0);
      for (vid_t v : sorted) {
        const auto bit = static_cast<std::uint64_t>(v) - base;
        out[bits_at + static_cast<std::size_t>(bit >> 3)] |=
            static_cast<std::uint8_t>(1u << (bit & 7));
      }
      if (stats != nullptr) ++stats->blocks_bitmap;
      break;
    }
    case BlockEncoding::kVarint: {
      detail::write_frame(out, BlockEncoding::kVarint,
                          static_cast<std::uint64_t>(sorted.size()),
                          varint_payload);
      vid_t prev = 0;
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        put_uvarint(out, static_cast<std::uint64_t>(
                             i == 0 ? sorted[i] : sorted[i] - prev));
        prev = sorted[i];
      }
      if (stats != nullptr) ++stats->blocks_varint;
      break;
    }
  }

  if (stats != nullptr) {
    stats->raw_bytes += raw_bytes;
    stats->encoded_bytes += out.size() - out_before;
    stats->items += sorted.size();
  }
}

void encode_vertex_bitmap(std::span<const vid_t> sorted, vid_t range_begin,
                          vid_t range_end, WireFormat format,
                          std::vector<std::uint8_t>& out, WireStats* stats) {
  if (sorted.empty()) return;
  const auto width =
      static_cast<std::uint64_t>(range_end) - static_cast<std::uint64_t>(
                                                  range_begin);
  // Fast path only when dense enough that a range-wide bitmap wins
  // against raw ids regardless of layout: count bits >= width/8 bits
  // means the bitmap's width/8 bytes <= 8*count bytes of raw items.
  if (!wire_compresses(format) || width == 0 ||
      static_cast<std::uint64_t>(sorted.size()) * 8 < width) {
    encode_vertex_list(sorted, format, out, stats);
    return;
  }
  const std::uint64_t raw_bytes =
      static_cast<std::uint64_t>(sorted.size()) * sizeof(vid_t);
  const std::size_t out_before = out.size();
  const auto base = static_cast<std::uint64_t>(range_begin);
  const std::uint64_t bitmap_payload =
      uvarint_size(base) + uvarint_size(width) + (width + 7) / 8;
  detail::write_frame(out, BlockEncoding::kBitmap,
                      static_cast<std::uint64_t>(sorted.size()),
                      bitmap_payload);
  put_uvarint(out, base);
  put_uvarint(out, width);
  const std::size_t bits_at = out.size();
  out.resize(bits_at + static_cast<std::size_t>((width + 7) / 8), 0);
  for (vid_t v : sorted) {
    const auto bit = static_cast<std::uint64_t>(v) - base;
    out[bits_at + static_cast<std::size_t>(bit >> 3)] |=
        static_cast<std::uint8_t>(1u << (bit & 7));
  }
  if (stats != nullptr) {
    ++stats->blocks_bitmap;
    stats->raw_bytes += raw_bytes;
    stats->encoded_bytes += out.size() - out_before;
    stats->items += sorted.size();
  }
}

void decode_vertex_stream(const std::uint8_t* data, std::size_t size,
                          std::vector<vid_t>& out) {
  std::size_t offset = 0;
  while (offset < size) {
    const detail::Frame f = detail::read_frame(data + offset, size - offset);
    const std::uint8_t* payload = data + offset + f.header_bytes;
    switch (f.encoding) {
      case BlockEncoding::kItems: {
        if (f.payload_bytes != f.count * sizeof(vid_t)) {
          throw WireDecodeError("wire: vertex block size mismatch");
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
        if (pos + bitmap_bytes != f.payload_bytes) {
          throw WireDecodeError("wire: vertex bitmap block truncated");
        }
        const std::uint8_t* bits = payload + pos;
        std::uint64_t found = 0;
        for (std::uint64_t b = 0; b < width; ++b) {
          if ((bits[static_cast<std::size_t>(b >> 3)] >> (b & 7)) & 1u) {
            out.push_back(static_cast<vid_t>(base + b));
            ++found;
          }
        }
        if (found != f.count) {
          throw WireDecodeError("wire: vertex bitmap count mismatch");
        }
        break;
      }
      case BlockEncoding::kVarint: {
        std::size_t pos = 0;
        vid_t prev = 0;
        for (std::uint64_t i = 0; i < f.count; ++i) {
          std::uint64_t delta = 0;
          pos += get_uvarint(
              payload + pos,
              static_cast<std::size_t>(f.payload_bytes) - pos, &delta);
          prev += static_cast<vid_t>(delta);
          out.push_back(prev);
        }
        if (pos != f.payload_bytes) {
          throw WireDecodeError("wire: vertex varint block size mismatch");
        }
        break;
      }
    }
    offset += f.header_bytes + static_cast<std::size_t>(f.payload_bytes);
  }
}

}  // namespace dbfs::comm
