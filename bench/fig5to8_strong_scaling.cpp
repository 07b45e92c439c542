// Figures 5-8: BFS strong scaling on Franklin (Cray XT4) and Hopper
// (Cray XE6) for Graph500 R-MAT graphs. Each (machine, panel) pair is
// simulated once and printed twice: its GTEPS table (Figs 5, 7) and its
// inter-node communication time (seconds, incl. barrier waits; Figs 6,
// 8) from the same runner's point cache.
//
// Expected shapes (paper §6):
//  - Franklin (Fig 5): flat 1D leads the 2D codes by ~1.5-1.8x (slow
//    cores, relatively strong network), and the 1D hybrid overtakes flat
//    1D at the highest concurrencies as the NIC/bisection saturates.
//  - Franklin comm (Fig 6): the 2D algorithms spend 30-60% less time in
//    communication than their 1D counterparts — smaller collective groups
//    (sqrt(p) participants) move the same data faster — and the hybrids
//    cut it further by shrinking the groups.
//  - Hopper (Fig 7): in contrast to Franklin, the 2D algorithms score
//    *higher* than 1D — Magny-Cours integer cores got much faster while
//    per-core bisection bandwidth regressed, so communication efficiency
//    decides the race.
//  - Hopper comm (Fig 8): 1D communication blows up with core count
//    (flat 1D's comm consumed >90% of execution by 20K cores) while the
//    2D hybrid stays under ~50% at 20K — the paper's headline "3.5x
//    communication reduction" compares these series.
//
// Graphs are scaled down (BFSSIM_SCALE overrides); machine latencies are
// rescaled by the same factor (see scaled_machine in harness/harness.hpp).
#include "harness/scaling.hpp"

namespace {

struct Panel {
  const char* gteps_title;
  const char* gteps_ref;
  const char* comm_title;
  const char* comm_ref;
  dbfs::model::MachineModel machine;
  const char* machine_name;
  double paper_log2_edges;
  std::vector<int> cores;
  int default_scale;
};

}  // namespace

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int nsources = bench_sources();
  const Panel panels[] = {
      {"Figure 5(a): strong scaling GTEPS, Franklin",
       "Fig 5(a), n=2^29 m=2^33", "Figure 6(a): communication time, Franklin",
       "Fig 6(a), n=2^29 m=2^33", model::franklin(), "franklin", 33,
       {512, 1024, 2048, 4096}, 15},
      {"Figure 5(b): strong scaling GTEPS, Franklin",
       "Fig 5(b), n=2^32 m=2^36", "Figure 6(b): communication time, Franklin",
       "Fig 6(b), n=2^32 m=2^36", model::franklin(), "franklin", 36,
       {4096, 6400, 8192}, 16},
      {"Figure 7(a): strong scaling GTEPS, Hopper", "Fig 7(a), n=2^30 m=2^34",
       "Figure 8(a): communication time, Hopper", "Fig 8(a), n=2^30 m=2^34",
       model::hopper(), "hopper", 34, {1224, 2500, 5040, 10008}, 15},
      {"Figure 7(b): strong scaling GTEPS, Hopper", "Fig 7(b), n=2^32 m=2^36",
       "Figure 8(b): communication time, Hopper", "Fig 8(b), n=2^32 m=2^36",
       model::hopper(), "hopper", 36, {5040, 10008, 20000, 40000}, 16},
  };

  for (const Panel& panel : panels) {
    const int scale = util::bench_scale(panel.default_scale);
    ScalingSpec spec;
    spec.title = panel.gteps_title;
    spec.paper_ref = panel.gteps_ref;
    spec.machine = panel.machine;
    spec.paper_log2_edges = panel.paper_log2_edges;
    spec.cores = panel.cores;
    spec.scale = scale;
    spec.edge_factor = 16;
    const Workload w = make_rmat_workload(scale, 16, nsources);
    const std::string config = "ours: scale " + std::to_string(scale) +
                               ", edgefactor 16, latency-rescaled " +
                               panel.machine_name;
    ScalingRunner runner{spec, w};
    print_header(panel.gteps_title, panel.gteps_ref, config);
    runner.print_table(/*show_comm=*/false);
    print_header(panel.comm_title, panel.comm_ref, config);
    runner.print_table(/*show_comm=*/true);

    // The paper's headline: communication reduced by up to 3.5x relative
    // to the flat 1D code. Report the measured ratio at the top end.
    if (std::count(panel.cores.begin(), panel.cores.end(), 20000) > 0) {
      const AlgoResult flat1d = runner.point(Algo::kOneDFlat, 20000);
      const AlgoResult hyb2d = runner.point(Algo::kTwoDHybrid, 20000);
      std::printf("\ncomm(1D Flat)/comm(2D Hybrid) at 20000 cores: %.2fx "
                  "(paper: up to 3.5x)\n",
                  flat1d.comm / hyb2d.comm);
    }
  }
  return 0;
}
