#include <cmath>
#include <stdexcept>

#include "graph/generators.hpp"
#include "util/prng.hpp"

namespace dbfs::graph {

namespace {

// One R-MAT edge: descend `scale` levels of the recursive quadrant
// subdivision. With `noise` enabled the quadrant probabilities are
// jittered multiplicatively per level (as the Graph500 generator does) to
// avoid the exact self-similarity artifacts of pure R-MAT.
Edge rmat_edge(const RmatParams& p, util::Xoshiro256& rng) {
  double a = p.a;
  double b = p.b;
  double c = p.c;
  double d = 1.0 - a - b - c;
  vid_t row = 0;
  vid_t col = 0;
  for (int level = 0; level < p.scale; ++level) {
    const double r = rng.next_double();
    // Branchless quadrant pick. With b, c >= 0 the three flags nest
    // (in_a implies in_ab implies in_abc), so a -> (0,0), b -> (0,1),
    // c -> (1,0), d -> (1,1) exactly as an if/else chain would pick; the
    // sums are formed in the same order so every comparison sees the
    // same double.
    const double ab = a + b;
    const vid_t in_a = r < a;
    const vid_t in_ab = r < ab;
    const vid_t in_abc = r < ab + c;
    row = (row << 1) | (in_ab ^ 1);
    col = (col << 1) | (in_a ^ in_ab) | (in_abc ^ 1);
    if (p.noise) {
      // +-5% multiplicative jitter, renormalized.
      auto jitter = [&rng](double x) {
        return x * (0.95 + 0.1 * rng.next_double());
      };
      a = jitter(a);
      b = jitter(b);
      c = jitter(c);
      d = jitter(d);
      const double norm = a + b + c + d;
      a /= norm;
      b /= norm;
      c /= norm;
      d /= norm;
    }
  }
  return Edge{row, col};
}

}  // namespace

EdgeList generate_rmat(const RmatParams& params) {
  if (params.scale < 1 || params.scale > 40) {
    throw std::invalid_argument("generate_rmat: scale out of range");
  }
  const double sum = params.a + params.b + params.c;
  if (params.a < 0 || params.b < 0 || params.c < 0 || sum > 1.0 + 1e-12) {
    throw std::invalid_argument("generate_rmat: invalid probabilities");
  }

  const vid_t n = vid_t{1} << params.scale;
  const eid_t m = static_cast<eid_t>(params.edge_factor) * n;
  EdgeList edges{n};
  edges.reserve(static_cast<std::size_t>(m));

  util::Xoshiro256 rng{params.seed};
  for (eid_t i = 0; i < m; ++i) {
    edges.edges().push_back(rmat_edge(params, rng));
  }
  return edges;
}

}  // namespace dbfs::graph
