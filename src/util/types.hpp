// Project-wide scalar type aliases.
//
// The paper uses 64-bit vertex identifiers throughout (§4.1); we do the
// same so the code would actually scale to the billions-of-vertices
// instances the paper runs, even though the bundled experiments are
// smaller.
#pragma once

#include <cstdint>

namespace dbfs {

/// Vertex identifier. Signed so that -1 can mean "unreachable / no parent"
/// exactly as the Graph500 specification's parent array does.
using vid_t = std::int64_t;

/// Edge count / offset type.
using eid_t = std::int64_t;

/// Sentinel parent/distance for unvisited vertices.
inline constexpr vid_t kNoVertex = -1;

/// BFS level type; -1 means unreachable.
using level_t = std::int64_t;
inline constexpr level_t kUnreached = -1;

/// Half-open interval [begin, end) of vertex ids.
struct VertexRange {
  vid_t begin = 0;
  vid_t end = 0;

  vid_t size() const noexcept { return end - begin; }
};

}  // namespace dbfs
