// perfbench — runs the floor and the three legs (cg_shm, p2p_tcp,
// coll_hyb) and prints one JSON object with every metric's samples
// summarized. run.py builds it, runs it and turns that
// object into the benchmark's result line and result file.
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                    [--trace-out PATH] [--corrupt-expect]
//
// Every run measures every metric: the named workload's leg gets half of
// the --seconds budget and the other two legs a quarter each, in epochs
// interleaved over the whole run. setup_s is the mean set-up time of the
// named workload's worlds, one per epoch of its leg.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {

bool known_workload(const std::string& workload) {
  return workload == "cg_shm" || workload == "p2p_tcp" || workload == "coll_hyb";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload cg_shm|p2p_tcp|coll_hyb "
               "--seed N --seconds S [--trace 0|1] [--trace-out PATH] [--corrupt-expect]\n",
               why);
  return 2;
}

/// Interleave the legs' epochs over the run: rounds in which the named
/// workload's leg runs two epochs and the other two legs one each, so it
/// gets half of the measured time and they a quarter each. setup_s comes
/// from the named leg's epochs: each launches a world of that shape.
void run_legs(const Options& options, const CgProblem& cg, Report& report) {
  constexpr double kEpochSeconds = 0.15;
  std::vector<std::unique_ptr<Leg>> legs;
  legs.push_back(make_cg_leg(options, cg, report));
  legs.push_back(make_p2p_leg(options, report));
  legs.push_back(make_coll_leg(options, report));
  auto named = [&](const Leg& leg) { return options.workload == leg.name(); };
  const auto rounds =
      static_cast<std::size_t>(std::max(1L, std::lround(options.seconds / (4 * kEpochSeconds))));
  const double epoch_s = options.seconds / (4.0 * static_cast<double>(rounds));
  const CpuTicks before = cpu_ticks();
  trace::enable(options.trace);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const auto& leg : legs) {
      for (int k = 0; k < (named(*leg) ? 2 : 1); ++k) leg->run_epoch(epoch_s);
    }
  }
  trace::enable(false);
  report.note("host.steal_share", steal_share(before, cpu_ticks()));
  for (const auto& leg : legs) leg->finish(named(*leg));
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (arg == "--corrupt-expect") {
      options.corrupt_expect = true;
    } else {
      return usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (!known_workload(options.workload)) return usage("unknown workload");
  if (!have_seed || !have_seconds || !(options.seconds > 0.0)) {
    return usage("--seed and a positive --seconds are required");
  }

  try {
    // MPCX_NODE_ID=1 keeps shmdev/tcpdev worlds on one node whatever the
    // caller's environment says; the hybdev leg sets 2 for itself.
    ScopedEnv one_node("MPCX_NODE_ID", "1");
    mpcx::prof::set_stats_enabled(false);
    Report report;
    CgProblem cg = make_cg_problem(options.seed);
    run_floor(options, cg, report);
    run_legs(options, cg, report);
    report.note("host.compiler", PERFBENCH_COMPILER);
    report.note("host.build_type", PERFBENCH_BUILD_TYPE);
    report.note("trace.dropped_spans", static_cast<double>(trace::dropped()));
    std::printf("%s\n", report.json(options).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
