// bench_suite: the continuous-benchmark driver. Runs the curated
// configuration matrix — {1D, 2D} x {raw, auto wire format} x scales
// 14-16 on the latency-rescaled Hopper model — and writes one
// BENCH_<name>.json record per point, establishing the perf trajectory
// that bench_diff gates on. Every record carries >= 5 virtual-seed
// repetitions so the across-repetition spread doubles as the noise model.
//
//   bench_suite [--out-dir=DIR] [--scales=14,15,16] [--algos=1d,2d]
//               [--wires=raw,auto] [--cores=N] [--reps=N] [--sources=N]
//               [--direction=topdown|bottomup|hybrid] [--slow-beta=X] [--list]
//               [--fault-plan=kill:RANK@levelL[,...] |
//                --fault-plan=flip:RANK@levelL:target[,...] |
//                --fault-plan=FILE.json]
//               [--checkpoint-every=K] [--recover-policy=shrink|spare]
//               [--audit-every=K] [--help]
//
// Options take "--key=value" or "--key value"; --help prints the usage
// and exits 0, an unknown option prints it and exits 2.
//
// A fault plan applies to every configuration in the matrix. A scheduled
// kill fires once per record (the engine consumes it on the first
// search of repetition 0 and recovers), so the later repetitions are
// fault-free and the across-repetition spread prices the recovery into
// the record's own noise model — the recover_smoke ctest leans on this.
//
// Baselines live at the repo root (committed); refresh them with
//   ./bench/bench_suite --out-dir=.
// from the build directory after an intentional perf change (see
// EXPERIMENTS.md). --slow-beta multiplies the machine's per-byte network
// cost — the bench_smoke ctest uses it to prove the regression gate
// actually fires.
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "util/cli.hpp"

namespace {

using namespace dbfs;
using namespace dbfs::bench;

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

core::Algorithm parse_algo(const std::string& name) {
  if (name == "1d") return core::Algorithm::kOneDFlat;
  if (name == "1d-hybrid") return core::Algorithm::kOneDHybrid;
  if (name == "2d") return core::Algorithm::kTwoDFlat;
  if (name == "2d-hybrid") return core::Algorithm::kTwoDHybrid;
  throw std::invalid_argument("bench_suite: unknown algorithm '" + name +
                              "' (use 1d, 1d-hybrid, 2d, 2d-hybrid)");
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("out-dir", "directory the BENCH_*.json records go to", ".")
      .describe("scales", "comma-separated R-MAT scales", "14,15,16")
      .describe("algos", "comma-separated algorithms: 1d | 1d-hybrid | 2d | "
                "2d-hybrid", "1d,2d")
      .describe("wires", "comma-separated wire formats: raw | sieve | bitmap "
                "| varint | auto", "raw,auto")
      .describe("cores", "simulated core count", "64")
      .describe("reps", "virtual-seed repetitions per record", "5")
      .describe("sources", "BFS sources per repetition", "2")
      .describe("direction", "2D traversal direction: topdown | bottomup | "
                "hybrid (non-topdown names the record by direction, not "
                "wire)", "topdown")
      .describe("slow-beta", "multiply the machine's per-byte network cost "
                "(proves the regression gate fires)", "1")
      .describe("fault-plan", "kill:RANK@levelL[,...], "
                "flip:RANK@levelL:target[,...], or a fault-plan JSON file; "
                "applies to every configuration")
      .describe("checkpoint-every", "checkpoint cadence in levels", "0")
      .describe("recover-policy", "what replaces a dead rank: shrink | spare",
                "shrink")
      .describe("audit-every", "SDC state-audit cadence in levels", "0")
      .describe("list", "print the record names and exit")
      .describe("help", "print this message");
  if (args.get_flag("help")) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  if (!args.unknown_keys().empty() || !args.positional().empty()) {
    const std::string bad = args.unknown_keys().empty()
                                ? args.positional().front()
                                : "--" + args.unknown_keys().front();
    std::fprintf(stderr, "bench_suite: unknown option '%s'\n%s", bad.c_str(),
                 args.usage().c_str());
    return 2;
  }

  const std::string out_dir = args.get("out-dir", ".");
  std::vector<int> scales;
  for (const auto& s : split_csv(args.get("scales", "14,15,16"))) {
    scales.push_back(std::stoi(s));
  }
  const std::vector<std::string> algos = split_csv(args.get("algos", "1d,2d"));
  const std::vector<std::string> wires =
      split_csv(args.get("wires", "raw,auto"));
  const int cores = static_cast<int>(args.get_int("cores", 64));
  const int reps = static_cast<int>(args.get_int("reps", 5));
  const int sources = static_cast<int>(args.get_int("sources", 2));
  const double slow_beta = args.get_double("slow-beta", 1.0);
  const bool list_only = args.get_flag("list");
  const std::string fault_plan = args.get("fault-plan", "");
  bfs::DirectionMode direction = bfs::DirectionMode::kTopDown;
  recover::RecoverOptions recover;
  recover.checkpoint_every =
      static_cast<int>(args.get_int("checkpoint-every", 0));
  recover.audit_every = static_cast<int>(args.get_int("audit-every", 0));
  try {
    direction = bfs::parse_direction_mode(args.get("direction", "topdown"));
    recover.policy =
        recover::parse_policy(args.get("recover-policy", "shrink"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 2;
  }

  simmpi::FaultPlan faults;
  if (!fault_plan.empty()) {
    try {
      if (fault_plan.rfind("kill:", 0) == 0) {
        faults.rank_kills = simmpi::parse_kill_specs(fault_plan.substr(5));
      } else if (fault_plan.rfind("flip:", 0) == 0) {
        faults.mem_flips = simmpi::parse_flip_specs(fault_plan.substr(5));
      } else {
        std::ifstream plan_file(fault_plan);
        if (!plan_file) {
          std::fprintf(stderr, "bench_suite: cannot open fault plan %s\n",
                       fault_plan.c_str());
          return 2;
        }
        std::ostringstream buffer;
        buffer << plan_file.rdbuf();
        faults = simmpi::fault_plan_from_json(buffer.str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_suite: %s\n", e.what());
      return 2;
    }
  }

  std::printf("bench_suite: %zu scale(s) x %zu algo(s) x %zu wire(s), "
              "%d cores, %d reps x %d sources%s\n",
              scales.size(), algos.size(), wires.size(),
              cores, reps, sources,
              slow_beta != 1.0 ? "  [SLOWED beta]" : "");

  int written = 0;
  for (int scale : scales) {
    for (const std::string& algo : algos) {
      for (const std::string& wire : wires) {
        BenchSpec spec;
        // Direction-optimized points replace the wire tag with the
        // direction tag (BENCH_rmat14_2d_hybrid_c64.json): run them with
        // a single --wires value or the names collide.
        const bool dirop = direction != bfs::DirectionMode::kTopDown;
        spec.name = "rmat" + std::to_string(scale) + "_" + algo + "_" +
                    (dirop ? bfs::to_string(direction) : wire) + "_c" +
                    std::to_string(cores);
        spec.created_by = "bench_suite";
        spec.scale = scale;
        spec.edge_factor = 16;
        spec.sources = sources;
        spec.repetitions = reps;
        spec.paper_log2_edges = 33.0;  // the scale-29, ef-16 paper runs
        try {
          spec.engine.algorithm = parse_algo(algo);
          spec.engine.cores = cores;
          spec.engine.machine = model::hopper();
          spec.engine.machine.beta_net *= slow_beta;
          spec.engine.wire_format = comm::parse_wire_format(wire);
          spec.engine.direction = direction;
          spec.engine.faults = faults;
          spec.engine.recover = recover;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "%s\n", e.what());
          return 2;
        }

        if (list_only) {
          std::printf("  %s\n", spec.name.c_str());
          continue;
        }
        try {
          const obs::BenchRecord record = run_bench_record(spec);
          const std::string path =
              out_dir + "/" + obs::bench_record_filename(record.name);
          obs::save_bench_record(path, record);
          std::printf("  %s\n", describe_bench_record(record).c_str());
          if (dirop) {
            // Per-direction shipped-bytes ratios from the profile run's
            // dirop.wire.* counters (also stored in the record).
            const auto counter = [&record](const char* key) {
              const auto it = record.counters.find(key);
              return it == record.counters.end() ? 0.0
                                                 : static_cast<double>(
                                                       it->second);
            };
            const double td_raw = counter("dirop.wire.top_down_raw_bytes");
            const double bu_raw = counter("dirop.wire.bottom_up_raw_bytes");
            std::printf(
                "    dirop: %lld top-down / %lld bottom-up level(s), "
                "wire ratio td=%.3f bu=%.3f\n",
                static_cast<long long>(
                    counter("dirop.levels.top_down")),
                static_cast<long long>(
                    counter("dirop.levels.bottom_up")),
                td_raw > 0.0 ? counter("dirop.wire.top_down_bytes") / td_raw
                             : 0.0,
                bu_raw > 0.0
                    ? counter("dirop.wire.bottom_up_bytes") / bu_raw
                    : 0.0);
          }
          ++written;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bench_suite: %s failed: %s\n",
                       spec.name.c_str(), e.what());
          return 1;
        }
      }
    }
  }
  if (!list_only) {
    std::printf("wrote %d BENCH_*.json record(s) to %s\n", written,
                out_dir.c_str());
  }
  return 0;
}
