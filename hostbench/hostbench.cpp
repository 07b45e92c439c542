// hostbench: measures real host seconds of one named workload end to end
// (graph generation through validated searches) and, in its traced mode,
// per layer. It calls only the library's public API and times each call
// from outside; modeled (alpha-beta) numbers are read from RunReport and
// Engine::metrics() and always carry a model_ / model. prefix.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE] [--short] [--corrupt-parents]
//
// A run repeats rounds until S seconds are spent (at least one, two when
// traced). A round is one pass over each of the workload's graphs; a
// pass sets up its graph and engine from scratch, then searches every
// sampled source once and validates each tree. Every round uses the same
// graphs and sources, so every modeled number and count must repeat
// bit-exactly across rounds; a drift, a throwing search or a tree that
// fails validation makes the run exit 1. The last line of
// stdout is one JSON object holding every metric with its unit (run.py
// picks the BENCHMARK.json subset out of it). See README.md here.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/engine.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/validator.hpp"
#include "model/machine.hpp"
#include "util/stats.hpp"

namespace {

using namespace dbfs;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  int scale;
  core::Algorithm algorithm;
  int cores;
  comm::WireFormat wire;
  bfs::DirectionMode direction;
  bool observed;  ///< tracer + metrics + atlas attached to the engine
  bool armed;     ///< checkpoint_every = 1 and audit_every = 1, no faults
  /// R-MAT instances per run. Host search time differs from one instance
  /// to the next by more than the run-to-run noise (up to 50 % per pass
  /// on the observed workload), so each run averages over several.
  int graphs;
  int searches;   ///< sources per pass (per graph)
  int probe_searches;  ///< sources per side of each traced-run A/B probe
};

// Why each workload exists is recorded in README.md (metric -> layer ->
// workload map); in short: prep is dominated by generate/build/engine
// construction, search by Engine::run, observed by the observers and the
// recovery/audit machinery riding every level of a hybrid 2D search.
constexpr Workload kWorkloads[] = {
    {"rmat18-2d-prep", 18, core::Algorithm::kTwoDFlat, 1024,
     comm::WireFormat::kRaw, bfs::DirectionMode::kTopDown, false, false, 3, 4,
     4},
    {"rmat16-1d-search", 16, core::Algorithm::kOneDFlat, 64,
     comm::WireFormat::kAuto, bfs::DirectionMode::kTopDown, false, false, 3,
     48, 8},
    {"rmat16-2d-observed", 16, core::Algorithm::kTwoDFlat, 1024,
     comm::WireFormat::kAuto, bfs::DirectionMode::kHybrid, true, true, 10, 7,
     7},
};

constexpr int kEdgeFactor = 16;
/// log2 of the directed edge count of the paper's scale-29, ef-16 runs;
/// the Hopper model is miniaturized by our/their edge ratio exactly as
/// bench_suite does it.
constexpr double kPaperLog2Edges = 33.0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

core::EngineOptions engine_options(const Workload& w, eid_t directed_edges,
                                   bool observed, bool armed) {
  core::EngineOptions o;
  o.algorithm = w.algorithm;
  o.cores = w.cores;
  o.machine = model::miniaturized(
      model::hopper(),
      static_cast<double>(directed_edges) / std::pow(2.0, kPaperLog2Edges));
  o.wire_format = w.wire;
  o.direction = w.direction;
  o.trace = o.metrics = o.atlas = observed;
  if (armed) {
    o.recover.checkpoint_every = 1;
    o.recover.audit_every = 1;
  }
  return o;
}

// -------------------------------------------------------------------- spans

/// In-memory span log. Each span has a name, start/end (ns since the log
/// was created), the index of the span that was open when it began, and
/// a trace id shared by every span of one search (or one setup). When
/// disabled it records nothing and only returns durations.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    int trace;
  };

  bool enabled = false;

  /// Runs `body` inside a span and returns its host seconds. The span is
  /// closed even when `body` throws.
  template <class F>
  double time(const char* name, int trace, F&& body) {
    const Clock::time_point begin = Clock::now();
    int index = -1;
    if (enabled) {
      index = static_cast<int>(spans_.size());
      spans_.push_back({name, ns_since_origin(begin), 0,
                        open_.empty() ? -1 : open_.back(), trace});
      open_.push_back(index);
    }
    struct Closer {
      SpanLog& log;
      int index;
      ~Closer() {
        if (index < 0) return;
        log.spans_[static_cast<std::size_t>(index)].end_ns =
            log.ns_since_origin(Clock::now());
        log.open_.pop_back();
      }
    } closer{*this, index};
    body();
    return std::chrono::duration<double>(Clock::now() - begin).count();
  }

  int new_trace() { return next_trace_++; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the part of it its children cover. Children run
  /// sequentially inside their parent, so this is never negative.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    return self;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
  /// ("X") event per span, exact integers in args.
  bool write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::vector<std::int64_t> self = self_ns();
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[384];
      std::snprintf(
          buf, sizeof(buf),
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,"
          "\"trace\":%d,\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}}",
          i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
          s.trace, static_cast<long long>(s.start_ns),
          static_cast<long long>(s.end_ns),
          static_cast<long long>(self[i]));
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::int64_t ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  int next_trace_ = 0;
};

// ------------------------------------------------------------ measurements

/// Modeled counts of one search: every field must repeat bit-exactly for
/// the same graph, source and options.
struct Fingerprint {
  double model_seconds = 0.0;
  std::uint64_t net_bytes = 0;
  eid_t edges_scanned = 0;
  std::size_t levels = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint(const bfs::RunReport& r) {
  return {r.total_seconds,
          r.alltoall_bytes + r.allgather_bytes + r.transpose_bytes +
              r.allreduce_bytes,
          r.edges_traversed, r.levels.size()};
}

/// Per-layer counts summed over searches (divided by the search count
/// when printed). Report-derived fields come from the first round's
/// searches; registry-derived ones from the observers probe.
struct Counts {
  int searches = 0;
  double levels = 0, edges_scanned = 0, discovered = 0;
  double bottom_up_edges = 0, top_down_edges = 0;
  double a2a_bytes = 0, ag_bytes = 0, tr_bytes = 0, ar_bytes = 0;
  double comp_s = 0, comm_s = 0;
  double spa_calls = 0, heap_calls = 0;
  double audits = 0, audit_model_s = 0;
  double teps_recip = 0;  ///< sum of 1/TEPS, for the harmonic mean

  int metric_searches = 0;
  double calls = 0, wait_s = 0, flops = 0;
  double wire_before = 0, wire_after = 0, sieve_drops = 0;
  double checkpoints = 0, checkpoint_bytes = 0;

  void add_report(const bfs::RunReport& r, eid_t directed_edges) {
    ++searches;
    levels += static_cast<double>(r.levels.size());
    edges_scanned += static_cast<double>(r.edges_traversed);
    for (const bfs::LevelStats& l : r.levels) {
      discovered += static_cast<double>(l.newly_visited);
    }
    bottom_up_edges += static_cast<double>(r.dirop.bottom_up_edges);
    top_down_edges += static_cast<double>(r.dirop.top_down_edges);
    a2a_bytes += static_cast<double>(r.alltoall_bytes);
    ag_bytes += static_cast<double>(r.allgather_bytes);
    tr_bytes += static_cast<double>(r.transpose_bytes);
    ar_bytes += static_cast<double>(r.allreduce_bytes);
    comp_s += r.comp_seconds_mean;
    comm_s += r.comm_seconds_mean;
    spa_calls += static_cast<double>(r.spmsv_spa_calls);
    heap_calls += static_cast<double>(r.spmsv_heap_calls);
    audits += static_cast<double>(r.sdc.audits);
    audit_model_s += r.sdc.audit_seconds;
    teps_recip += 1.0 / r.teps(directed_edges);
  }

  void add_metrics(const obs::MetricsRegistry& m, int ranks) {
    ++metric_searches;
    const auto counter = [&m](const std::string& name) {
      const auto it = m.counters().find(name);
      return it == m.counters().end() ? 0.0
                                       : static_cast<double>(it->second);
    };
    const auto hist_sum = [&m](const std::string& name) {
      const auto it = m.histograms().find(name);
      return it == m.histograms().end() ? 0.0 : it->second.sum();
    };
    for (const auto& [name, value] : m.counters()) {
      if (name.rfind("comm.calls.", 0) == 0) {
        calls += static_cast<double>(value);
      }
    }
    wait_s += hist_sum("comm.wait_seconds") / std::max(1, ranks);
    flops += hist_sum("spmsv.flops");
    wire_before += counter("wire.bytes_before");
    wire_after += counter("wire.bytes_after");
    sieve_drops += counter("wire.candidates_dropped");
    checkpoints += counter("recover.checkpoints");
    checkpoint_bytes += counter("recover.checkpoint_bytes");
  }
};

struct PassResult {
  bool traced = false;
  double total_s = 0, setup_s = 0;
  double generate_s = 0, build_s = 0, sources_s = 0, ctor_s = 0, csr_s = 0;
  double validate_s = 0;
  std::vector<double> search_s;  ///< host seconds per Engine::run, in order
  eid_t edges_generated = 0, edges_built = 0, directed_edges = 0;
  int attempted = 0, failed = 0;
  std::vector<Fingerprint> prints;  ///< per source, for the drift check
};

/// What a pass leaves alive for the traced run's probes.
struct Prepared {
  std::optional<graph::BuiltGraph> built;
  std::vector<vid_t> sources;
  std::unique_ptr<core::Engine> engine;
  std::vector<std::vector<level_t>> levels;  ///< per source, traced only
};

struct Config {
  Workload w{};
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
  bool corrupt_parents = false;
  std::string spans_out;
  std::vector<std::uint64_t> graph_seed, source_seed;  ///< per graph
};

/// Prints the first few failures; a corrupted engine would otherwise
/// print one line per search.
void report_error(const char* what, vid_t source, const std::string& detail) {
  static int reported = 0;
  if (++reported > 10) {
    if (reported == 11) std::fprintf(stderr, "hostbench: more errors hidden\n");
    return;
  }
  std::fprintf(stderr, "hostbench: %s at source %lld: %s\n", what,
               static_cast<long long>(source), detail.c_str());
}

/// Breaks the tree the way a wrong kernel would: the first visited
/// non-source vertex becomes its own parent (a cycle the checker must
/// reject). Used only by the self-test's --corrupt-parents.
void corrupt(std::vector<vid_t>& parent, vid_t source) {
  for (std::size_t v = 0; v < parent.size(); ++v) {
    if (parent[v] != kNoVertex && static_cast<vid_t>(v) != source) {
      parent[v] = static_cast<vid_t>(v);
      return;
    }
  }
}

/// One pass over graph `graph`. Report counts go to `counts` when it is
/// not null (the first round's passes).
PassResult run_pass(const Config& cfg, int graph, SpanLog& log,
                    Prepared& prep, Counts* counts) {
  PassResult pr;
  pr.traced = log.enabled;
  const Workload& w = cfg.w;
  pr.total_s = log.time("pass", log.new_trace(), [&] {
    const int setup_trace = log.new_trace();
    pr.setup_s = log.time("setup", setup_trace, [&] {
      graph::EdgeList generated;
      pr.generate_s = log.time("graph.generate", setup_trace, [&] {
        graph::RmatParams params;
        params.scale = w.scale;
        params.edge_factor = kEdgeFactor;
        params.seed = cfg.graph_seed[graph];
        generated = graph::generate_rmat(params);
      });
      pr.edges_generated = generated.num_edges();
      pr.build_s = log.time("graph.build", setup_trace, [&] {
        prep.built.emplace(graph::build_graph(std::move(generated)));
      });
      const graph::BuiltGraph& built = *prep.built;
      pr.edges_built = built.edges.num_edges();
      pr.directed_edges = built.directed_edge_count;
      pr.sources_s = log.time("graph.sources", setup_trace, [&] {
        const graph::Components comps = graph::connected_components(built.csr);
        prep.sources = graph::sample_sources(built.csr, comps, w.searches,
                                             cfg.source_seed[graph]);
      });
      const core::EngineOptions opts = engine_options(
          w, built.directed_edge_count, w.observed, w.armed);
      pr.ctor_s = log.time("core.engine_ctor", setup_trace, [&] {
        prep.engine = std::make_unique<core::Engine>(
            built.edges, built.csr.num_vertices(), opts);
      });
      // Engine::csr() is built lazily; forcing it here keeps the second
      // whole-graph CSR out of the first timed search.
      pr.csr_s = log.time("core.csr", setup_trace,
                          [&] { (void)prep.engine->csr(); });
    });

    core::Engine& engine = *prep.engine;
    prep.levels.clear();
    for (vid_t source : prep.sources) {
      const int trace = log.new_trace();
      ++pr.attempted;
      log.time("search", trace, [&] {
        std::optional<bfs::BfsOutput> out;
        try {
          pr.search_s.push_back(
              log.time("bfs.run", trace, [&] { out = engine.run(source); }));
        } catch (const std::exception& e) {
          ++pr.failed;
          report_error("search threw", source, e.what());
          if (cfg.trace) prep.levels.emplace_back();
          return;
        }
        if (cfg.corrupt_parents) corrupt(out->parent, source);
        graph::ValidationResult v;
        pr.validate_s += log.time("graph.validate", trace, [&] {
          v = graph::validate_bfs_tree(engine.csr(), source, out->parent);
        });
        if (!v.ok) {
          ++pr.failed;
          report_error("validation failed", source,
                       v.failed_check + ": " + v.error);
        }
        pr.prints.push_back(fingerprint(out->report));
        if (counts != nullptr) {
          counts->add_report(out->report, pr.directed_edges);
        }
        if (cfg.trace) prep.levels.push_back(std::move(out->level));
      });
    }
  });
  return pr;
}

// ------------------------------------------------------------------ probes

/// Traced-run A/B probe: the workload's engine against a twin whose
/// options differ in one respect, run back to back on the same sources
/// (order alternating per source). Returns each side's median seconds.
struct ProbeResult {
  double base_p50 = 0, twin_p50 = 0;
  int failed = 0;
  bool drift = false;
};

ProbeResult run_probe(const char* name, SpanLog& log, Prepared& prep,
                      const core::EngineOptions& twin_opts, int count,
                      bool expect_same_model, Counts* counts_from_observed) {
  ProbeResult res;
  const graph::BuiltGraph& built = *prep.built;
  std::vector<double> base_s, twin_s;
  const int probe_trace = log.new_trace();
  log.time(name, probe_trace, [&] {
    std::optional<core::Engine> twin_engine;
    log.time("core.engine_ctor", probe_trace, [&] {
      twin_engine.emplace(built.edges, built.csr.num_vertices(), twin_opts);
    });
    core::Engine& twin = *twin_engine;
    core::Engine& base = *prep.engine;
    const std::size_t n =
        std::min(prep.sources.size(), static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < n; ++i) {
      const vid_t source = prep.sources[i];
      const int trace = log.new_trace();
      std::optional<bfs::BfsOutput> a, b;
      const auto run_on = [&](core::Engine& e, std::optional<bfs::BfsOutput>& o,
                              std::vector<double>& times) {
        times.push_back(log.time("bfs.run", trace, [&] { o = e.run(source); }));
        if (e.metrics() != nullptr && counts_from_observed != nullptr) {
          counts_from_observed->add_metrics(
              *e.metrics(),
              e.cores_used() / std::max(1, e.options().threads_per_rank));
        }
      };
      try {
        if (i % 2 == 0) {
          run_on(base, a, base_s);
          run_on(twin, b, twin_s);
        } else {
          run_on(twin, b, twin_s);
          run_on(base, a, base_s);
        }
      } catch (const std::exception& e) {
        ++res.failed;
        report_error(name, source, e.what());
        continue;
      }
      if (!graph::validate_bfs_tree(base.csr(), source, b->parent).ok) {
        ++res.failed;
        report_error(name, source, "twin tree failed validation");
      }
      if (b->level != a->level) {
        ++res.failed;
        report_error(name, source, "twin levels differ");
      }
      if (expect_same_model &&
          fingerprint(a->report) != fingerprint(b->report)) {
        res.drift = true;
        report_error(name, source, "modeled counts differ between twins");
      }
    }
  });
  res.base_p50 = util::percentile(base_s, 0.5);
  res.twin_p50 = util::percentile(twin_s, 0.5);
  return res;
}

// ------------------------------------------------------------------ output

constexpr const char* kModelPerSearch = "MODEL OUTPUT, per search";
constexpr const char* kModelPerRank = "MODEL OUTPUT, per-rank mean per search";

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double median(std::vector<double> v) {
  return util::percentile(std::move(v), 0.5);
}

/// The highest of the fixed percentiles that has at least ten of `n`
/// samples beyond it; p50 when n < 20. Called with one round's sample
/// count, so the percentile a workload reports does not change with the
/// number of rounds that fit in a run.
double tail_quantile(std::size_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE] [--short] "
               "[--corrupt-parents]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
        have_seconds = cfg.seconds > 0;
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        cfg.trace = t == "1";
        have_trace = true;
      } else if (arg == "--spans-out") {
        cfg.spans_out = value();
      } else if (arg == "--short") {
        cfg.short_mode = true;
      } else if (arg == "--corrupt-parents") {
        cfg.corrupt_parents = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  bool found = false;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      cfg.w = w;
      found = true;
    }
  }
  if (!found) usage(("unknown workload '" + workload + "'").c_str());
  if (cfg.short_mode) {
    // Self-test size: same layers and options, tiny graph.
    cfg.w.scale = 10;
    cfg.w.cores = 64;
    cfg.w.searches = 4;
    cfg.w.probe_searches = 2;
  }
  for (int g = 0; g < cfg.w.graphs; ++g) {
    cfg.graph_seed.push_back(splitmix64(cfg.seed * 64 + g));
    cfg.source_seed.push_back(
        splitmix64(cfg.graph_seed.back() ^ 0x5eed5eed5eed5eedULL));
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "hostbench: refusing to time a non-optimized build "
                       "(build type " HOSTBENCH_BUILD_TYPE ")\n");
  return 3;
#endif
  const Config cfg = parse_args(argc, argv);
  const Workload& w = cfg.w;

  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  std::printf("hostbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              w.name, static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, cfg.short_mode ? " SHORT" : "");
  for (int g = 0; g < w.graphs; ++g) {
    std::printf("hostbench: graph %d graph_seed=%llu source_seed=%llu\n", g,
                static_cast<unsigned long long>(cfg.graph_seed[g]),
                static_cast<unsigned long long>(cfg.source_seed[g]));
  }
  std::printf("hostbench: threads=%d nproc=%ld build=%s compiler=\"%s\"\n",
              threads, sysconf(_SC_NPROCESSORS_ONLN), HOSTBENCH_BUILD_TYPE,
              __VERSION__);
  std::printf("hostbench: scale=%d ef=%d algo=%s cores=%d wire=%s "
              "direction=%s observers=%s armed=%s graphs=%d "
              "searches/graph=%d\n",
              w.scale, kEdgeFactor, core::to_string(w.algorithm), w.cores,
              comm::to_string(w.wire), bfs::to_string(w.direction),
              w.observed ? "on" : "off", w.armed ? "yes" : "no", w.graphs,
              w.searches);
  std::fflush(stdout);

  // ---- rounds of passes
  SpanLog log;
  Prepared prep;
  std::vector<PassResult> passes;
  const Clock::time_point run_start = Clock::now();
  const int min_rounds = cfg.trace ? 2 : 1;
  double longest_round = 0.0;
  bool drift = false;
  Counts c;  // report counts of the first round: every graph once
  for (int r = 0;; ++r) {
    // ABBA order of traced/untraced rounds cancels linear drift in the
    // trace-overhead comparison.
    log.enabled = cfg.trace && (r % 4 == 0 || r % 4 == 3);
    const Clock::time_point round_start = Clock::now();
    for (int g = 0; g < w.graphs; ++g) {
      // Free the previous pass's graph and engine before timing the next
      // one, so peak memory is one pass's and frees are not timed.
      prep.engine.reset();
      prep.built.reset();
      passes.push_back(run_pass(cfg, g, log, prep, r == 0 ? &c : nullptr));
      const PassResult& pr = passes.back();
      std::printf("round %d graph %d%s: total %.3f s, setup %.3f s, "
                  "%zu searches, %d failed\n",
                  r, g, pr.traced ? " [traced]" : "", pr.total_s, pr.setup_s,
                  pr.search_s.size(), pr.failed);
      std::fflush(stdout);
      const PassResult& first = passes[static_cast<std::size_t>(g)];
      if (pr.edges_generated != first.edges_generated ||
          pr.edges_built != first.edges_built || pr.prints != first.prints) {
        drift = true;
        std::fprintf(stderr,
                     "hostbench: round %d graph %d counts differ from "
                     "round 0\n",
                     r, g);
      }
    }
    const Clock::time_point now = Clock::now();
    longest_round =
        std::max(longest_round,
                 std::chrono::duration<double>(now - round_start).count());
    const double elapsed =
        std::chrono::duration<double>(now - run_start).count();
    if (r + 1 >= min_rounds && elapsed + longest_round > cfg.seconds) break;
  }

  // ---- aggregate passes (traced runs aggregate their traced passes)
  std::vector<const PassResult*> used;
  for (const PassResult& pr : passes) {
    if (pr.traced == cfg.trace) used.push_back(&pr);
  }
  std::vector<double> pooled, setup, total, firsts;
  double pooled_edges = 0.0, pooled_sum = 0.0;
  std::map<std::string, std::vector<double>> phase;
  int attempted = 0, failed = 0;
  for (const PassResult& pr : passes) {
    attempted += pr.attempted;
    failed += pr.failed;
  }
  for (const PassResult* pr : used) {
    setup.push_back(pr->setup_s);
    total.push_back(pr->total_s);
    phase["graph.generate_s"].push_back(pr->generate_s);
    phase["graph.build_s"].push_back(pr->build_s);
    phase["graph.sources_s"].push_back(pr->sources_s);
    phase["graph.validate_s"].push_back(pr->validate_s);
    phase["core.engine_ctor_s"].push_back(pr->ctor_s);
    phase["core.csr_s"].push_back(pr->csr_s);
    if (pr->search_s.empty()) continue;
    // The first search of an engine pays one-off costs; it is reported
    // as core.first_search_extra_s and kept out of the pooled samples.
    std::vector<double> rest(pr->search_s.begin() + 1, pr->search_s.end());
    if (!rest.empty()) firsts.push_back(pr->search_s.front() - median(rest));
    pooled.insert(pooled.end(), rest.begin(), rest.end());
    pooled_edges += static_cast<double>(rest.size()) *
                    static_cast<double>(pr->directed_edges);
  }
  eid_t edges_generated = 0, edges_built = 0;
  for (int g = 0; g < w.graphs; ++g) {
    edges_generated += passes[static_cast<std::size_t>(g)].edges_generated;
    edges_built += passes[static_cast<std::size_t>(g)].edges_built;
  }
  const double k = std::max(1, c.searches);
  for (double s : pooled) pooled_sum += s;

  std::vector<Metric> metrics;
  const auto add = [&metrics](std::string name, double value, std::string unit,
                              std::string note = "") {
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  };
  const double p50 = median(pooled);
  const double tq = tail_quantile(static_cast<std::size_t>(
      w.graphs * std::max(0, w.searches - 1)));
  char note[96];
  std::snprintf(note, sizeof(note), "p%g of %zu searches", tq * 100.0,
                pooled.size());
  add("setup_s", median(setup), "s",
      "median of " + std::to_string(setup.size()) + " setups");
  add("search_s_p50", p50, "s",
      "of " + std::to_string(pooled.size()) + " searches");
  add("search_s_tail", util::percentile(pooled, tq), "s", note);
  add("host_mteps",
      pooled_sum > 0 ? pooled_edges / pooled_sum / 1e6 : 0.0,
      "MTEPS", "Graph500 denominator");
  add("total_s", median(total), "s",
      "median pass: setup + searches + validation");
  add("model_gteps", c.teps_recip > 0 ? k / c.teps_recip / 1e9 : 0.0, "GTEPS",
      "MODEL OUTPUT, harmonic mean");
  add("model_net_bytes",
      (c.a2a_bytes + c.ag_bytes + c.tr_bytes + c.ar_bytes) / k, "B",
      kModelPerSearch);
  add("fail_frac",
      attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
      "fraction", std::to_string(failed) + "/" + std::to_string(attempted));
  add("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB");

  int probe_failed = 0;
  if (cfg.trace) {
    // ---- per-layer metrics from the traced passes
    for (auto& [name, values] : phase) {
      add(name, median(values), "s", "median per pass");
    }
    add("graph.edges_generated", static_cast<double>(edges_generated), "count",
        "summed over the run's graphs");
    add("graph.edges_built", static_cast<double>(edges_built), "count",
        "summed over the run's graphs");
    add("core.first_search_extra_s", median(firsts), "s",
        "first search minus pass median");
    add("bfs.levels", c.levels / k, "count", "per search");
    add("bfs.edges_scanned", c.edges_scanned / k, "count", "per search");
    add("bfs.useful_edge_ratio",
        c.edges_scanned > 0 ? c.discovered / c.edges_scanned : 0.0, "ratio",
        "discovered / scanned");
    add("bfs.host_ns_per_edge",
        c.edges_scanned > 0 ? 1e9 * p50 / (c.edges_scanned / k) : 0.0, "ns",
        "search_s_p50 / edges scanned per search");
    const double dir_edges = c.bottom_up_edges + c.top_down_edges;
    add("bfs.bottom_up_edge_share",
        dir_edges > 0 ? c.bottom_up_edges / dir_edges : 0.0, "ratio");
    add("simmpi.net_bytes.alltoallv", c.a2a_bytes / k, "B", kModelPerSearch);
    add("simmpi.net_bytes.allgatherv", c.ag_bytes / k, "B", kModelPerSearch);
    add("simmpi.net_bytes.transpose", c.tr_bytes / k, "B", kModelPerSearch);
    add("simmpi.net_bytes.allreduce", c.ar_bytes / k, "B", kModelPerSearch);
    add("model.comp_s", c.comp_s / k, "s", kModelPerRank);
    add("model.comm_s", c.comm_s / k, "s", kModelPerRank);
    add("sparse.spa_calls", c.spa_calls / k, "count", "per search");
    add("sparse.heap_calls", c.heap_calls / k, "count", "per search");
    add("recover.audits", c.audits / k, "count", "per search");
    add("recover.audit_model_s", c.audit_model_s / k, "s", kModelPerSearch);

    // ---- A/B probes on the last pass's graph, engine and sources
    log.enabled = true;
    const int n_probe = w.probe_searches;
    const eid_t last_edges = passes.back().directed_edges;
    Counts observed;  // registry counts of the workload's own options
    core::EngineOptions obs_twin = engine_options(w, last_edges,
                                                  !w.observed, w.armed);
    const ProbeResult po = run_probe("probe.observers", log, prep, obs_twin,
                                     n_probe, true, &observed);
    // Exactly one side has the registry attached; both sides share every
    // other option, so its counts are the workload's own.
    const double obs_on = w.observed ? po.base_p50 : po.twin_p50;
    const double obs_off = w.observed ? po.twin_p50 : po.base_p50;
    const ProbeResult pa = run_probe(
        "probe.recover", log, prep,
        engine_options(w, last_edges, w.observed, !w.armed), n_probe,
        false, nullptr);
    const double armed_s = w.armed ? pa.base_p50 : pa.twin_p50;
    const double unarmed_s = w.armed ? pa.twin_p50 : pa.base_p50;
    probe_failed = po.failed + pa.failed;
    drift = drift || po.drift;

    // Serial baseline on the same graph and sources; its levels must
    // equal the distributed levels of the last traced pass.
    std::vector<double> serial_s;
    const int serial_trace = log.new_trace();
    log.time("probe.serial", serial_trace, [&] {
      core::EngineOptions so;
      so.algorithm = core::Algorithm::kSerial;
      std::optional<core::Engine> serial_engine;
      log.time("core.engine_ctor", serial_trace, [&] {
        serial_engine.emplace(prep.built->edges,
                              prep.built->csr.num_vertices(), so);
      });
      core::Engine& serial = *serial_engine;
      for (std::size_t i = 0; i < prep.sources.size(); ++i) {
        std::optional<bfs::BfsOutput> out;
        serial_s.push_back(log.time("bfs.run", log.new_trace(), [&] {
          out = serial.run(prep.sources[i]);
        }));
        if (i >= prep.levels.size() || out->level != prep.levels[i]) {
          ++probe_failed;
          report_error("serial baseline", prep.sources[i],
                       "distributed levels differ from serial levels");
        }
      }
    });
    const double serial_p50 = median(serial_s);

    add("bfs.serial_search_s", serial_p50, "s", "kSerial p50, same sources");
    add("simmpi.host_overhead_x", serial_p50 > 0 ? p50 / serial_p50 : 0.0, "x",
        "search_s_p50 / bfs.serial_search_s");
    add("obs.host_overhead_frac", obs_off > 0 ? obs_on / obs_off - 1.0 : 0.0,
        "fraction", "trace+metrics+atlas on vs off, p50");
    add("recover.host_overhead_frac",
        unarmed_s > 0 ? armed_s / unarmed_s - 1.0 : 0.0, "fraction",
        "checkpoint+audit every level vs unarmed, p50");
    const double kobs = std::max(1, observed.metric_searches);
    add("simmpi.calls", observed.calls / kobs, "count", "per search");
    add("model.wait_s", observed.wait_s / kobs, "s", kModelPerRank);
    add("sparse.flops", observed.flops / kobs, "count", "per search");
    add("comm.wire_bytes_before", observed.wire_before / kobs, "B",
        "per search");
    add("comm.wire_bytes_after", observed.wire_after / kobs, "B", "per search");
    add("comm.wire_ratio",
        observed.wire_before > 0 ? observed.wire_after / observed.wire_before
                                 : 1.0,
        "ratio", "after / before; 1 when nothing was encoded");
    add("comm.sieve_drops", observed.sieve_drops / kobs, "count", "per search");
    add("recover.checkpoints", observed.checkpoints / kobs, "count",
        "per search");
    add("recover.checkpoint_bytes", observed.checkpoint_bytes / kobs, "B",
        "per search");

    // Trace overhead: traced against untraced passes of this same run.
    std::vector<double> untraced_total;
    for (const PassResult& pr : passes) {
      if (!pr.traced) untraced_total.push_back(pr.total_s);
    }
    const double u = median(untraced_total);
    add("bench.trace_overhead_frac", u > 0 ? median(total) / u - 1.0 : 0.0,
        "fraction", "traced vs untraced passes, median total");

    // ---- span self times
    const std::vector<std::int64_t> self = log.self_ns();
    std::map<std::string, std::pair<double, double>> by_name;  // self, total
    bool negative = false;
    for (std::size_t i = 0; i < self.size(); ++i) {
      const SpanLog::Span& s = log.spans()[i];
      by_name[s.name].first += static_cast<double>(self[i]) / 1e9;
      by_name[s.name].second +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e9;
      negative = negative || self[i] < 0;
    }
    std::printf("span self times (traced passes and probes):\n");
    for (const auto& [name, st] : by_name) {
      std::printf("  %-20s self %10.4f s  total %10.4f s\n", name.c_str(),
                  st.first, st.second);
    }
    if (negative) {
      std::fprintf(stderr, "hostbench: negative span self time\n");
      drift = true;
    }
    if (!cfg.spans_out.empty()) {
      if (!log.write_chrome_json(cfg.spans_out)) {
        std::fprintf(stderr, "hostbench: cannot write %s\n",
                     cfg.spans_out.c_str());
        return 1;
      }
      std::printf("wrote %zu spans to %s\n", log.spans().size(),
                  cfg.spans_out.c_str());
    }
  }

  const bool correct = failed == 0 && probe_failed == 0 && !drift;
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %.6g %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  # ",
                m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed + probe_failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
