// cg_shm: 4 ranks on shmdev solve the seeded 1D Poisson system with
// distributed CG. Each iteration: two one-double halo Sendrecvs, two
// one-double Allreduces and a few microseconds of vector math — the
// latency-bound solver, dominated by mpdev wake-ups, the shmdev ring and the
// blocking small-message collective.
#include <algorithm>
#include <cmath>
#include <string_view>

#include "core/cluster.hpp"
#include "core/intracomm.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 4;

using mpcx::Intracomm;
using mpcx::PROC_NULL;

void apply_laplacian(const Intracomm& comm, const std::vector<double>& x, std::vector<double>& y) {
  const int rank = comm.Rank();
  const int left = rank > 0 ? rank - 1 : PROC_NULL;
  const int right = rank + 1 < comm.Size() ? rank + 1 : PROC_NULL;
  const std::size_t local = x.size();
  double halo_left = 0.0, halo_right = 0.0;
  {
    trace::Span span("core.p2p", "Sendrecv");
    comm.Sendrecv(&x[0], 0, 1, mpcx::types::DOUBLE(), left, 0, &halo_right, 0, 1,
                  mpcx::types::DOUBLE(), right, 0);
  }
  {
    trace::Span span("core.p2p", "Sendrecv");
    comm.Sendrecv(&x[local - 1], 0, 1, mpcx::types::DOUBLE(), right, 1, &halo_left, 0, 1,
                  mpcx::types::DOUBLE(), left, 1);
  }
  for (std::size_t i = 0; i < local; ++i) {
    const double xm = i > 0 ? x[i - 1] : halo_left;
    const double xp = i + 1 < local ? x[i + 1] : halo_right;
    y[i] = 2.0 * x[i] - xm - xp;
  }
}

double dot(const Intracomm& comm, const std::vector<double>& a, const std::vector<double>& b) {
  double local = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) local += a[i] * b[i];
  double global = 0.0;
  trace::Span span("core.coll", "Allreduce");
  comm.Allreduce(&local, 0, &global, 0, 1, mpcx::types::DOUBLE(), mpcx::ops::SUM());
  return global;
}

/// Check one distributed solve against the serial reference: the same
/// iteration count as the run's first solve and within 2% of the serial
/// one, a small true residual, and agreement with x_ref. Returns "" when
/// it passes, else what failed.
std::string check_solution(const CgProblem& cg, const std::vector<double>& x, int iterations,
                           int& first_iterations, bool corrupt_expect) {
  if (first_iterations < 0) first_iterations = iterations;
  const int expect = first_iterations + (corrupt_expect ? 1 : 0);
  double x_diff = 0.0, x_max = 0.0, res2 = 0.0, b2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xm = i > 0 ? x[i - 1] : 0.0;
    const double xp = i + 1 < x.size() ? x[i + 1] : 0.0;
    const double res = cg.b[i] - (2.0 * x[i] - xm - xp);
    res2 += res * res;
    b2 += cg.b[i] * cg.b[i];
    x_diff = std::max(x_diff, std::abs(x[i] - cg.x_ref[i]));
    x_max = std::max(x_max, std::abs(cg.x_ref[i]));
  }
  const double rel_res = std::sqrt(res2 / b2);
  const double rel_diff = x_diff / x_max;
  if (iterations == expect &&
      std::abs(iterations - cg.ref_iterations) <= std::max(2, cg.ref_iterations / 50) &&
      rel_res <= 10 * cg.tol && rel_diff <= 1e-6) {
    return "";
  }
  return "iterations " + std::to_string(iterations) + " (first solve " +
         std::to_string(first_iterations) + ", serial " + std::to_string(cg.ref_iterations) +
         "), residual " + std::to_string(rel_res) + ", max|x-x_ref|/max|x_ref| " +
         std::to_string(rel_diff);
}

class CgLeg final : public Leg {
 public:
  CgLeg(const Options& options, const CgProblem& cg, Report& report)
      : Leg("cg_shm", options, report, {"iter_us", "solve_s", "epoch_p90", "epoch_p99"}),
        cg_(cg),
        x_global_(static_cast<std::size_t>(cg.n)) {}

 protected:
  void epoch(int index, double seconds) override {
    const int local = cg_.n / kRanks;
    mpcx::cluster::Options copt;
    copt.device = "shmdev";
    mpcx::cluster::launch(kRanks, [&](mpcx::World& world) {
      Intracomm& comm = world.COMM_WORLD();
      const int rank = comm.Rank();
      trace::set_rank(rank);
      first_barrier(comm);
      if (options_.trace && index == 0) {
        xdev_pingpong(world, options_, report_, "shmdev.rtt_8B", 8, 4000);
        comm.Barrier();
        mpdev_pingpong(world, options_, report_, 4000);
      }
      // Warm up this world's channels with the solver's own exchanges.
      std::vector<double> warm(2, 1.0), warm_out(2);
      for (int i = 0; i < 50; ++i) {
        apply_laplacian(comm, warm, warm_out);
        dot(comm, warm, warm_out);
      }
      const auto offset = static_cast<std::ptrdiff_t>(rank * local);
      const auto start = Clock::now();
      std::vector<double> epoch_iter_us;
      for (int go = 1; go != 0;) {
        std::vector<double> x(static_cast<std::size_t>(local), 0.0);
        std::vector<double> r(cg_.b.begin() + offset, cg_.b.begin() + offset + local);
        std::vector<double> p = r, ap(x.size());
        std::vector<double> iter_us;
        comm.Barrier();
        const auto t_solve = Clock::now();
        double rr = dot(comm, r, r);
        const double stop = cg_.tol * cg_.tol * rr;
        int it = 0;
        for (; it < cg_.max_iterations && rr > stop; ++it) {
          const std::int64_t t0 = now_ns();
          {
            const std::uint64_t op = (static_cast<std::uint64_t>(solves_) << 32) | (it + 1u);
            trace::Span span("app", "cg_iter", op);
            apply_laplacian(comm, p, ap);
            const double alpha = rr / dot(comm, p, ap);
            for (std::size_t i = 0; i < x.size(); ++i) {
              x[i] += alpha * p[i];
              r[i] -= alpha * ap[i];
            }
            const double rr_new = dot(comm, r, r);
            const double beta = rr_new / rr;
            rr = rr_new;
            for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
          }
          if (rank == 0) iter_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        }
        const double elapsed = seconds_since(t_solve);
        std::copy(x.begin(), x.end(), x_global_.begin() + offset);
        comm.Barrier();
        if (rank == 0) {
          const std::string problem = check_solution(cg_, x_global_, it, first_iterations_,
                                                     options_.corrupt_expect);
          report_.op(problem.empty());
          if (!problem.empty() && failure_.empty()) {
            failure_ = "solve " + std::to_string(solves_) + ": " + problem;
          }
          ++solves_;
          samples("solve_s").push_back(elapsed);
          append(epoch_iter_us, iter_us);
          go = seconds_since(start) < seconds ? 1 : 0;
        }
        comm.Bcast(&go, 0, 1, mpcx::types::INT(), 0);
      }
      if (rank == 0) {
        samples("epoch_p90").push_back(quantile(epoch_iter_us, 0.90));
        samples("epoch_p99").push_back(quantile(epoch_iter_us, 0.99));
        append(samples("iter_us"), epoch_iter_us);
      }
    }, copt);
  }

  void report_metrics(const std::vector<trace::Rec>& spans) override {
    const Group e2e = Group::EndToEnd;
    report_.series(e2e, "cg_solve_s", "s", samples("solve_s"));
    report_.series(e2e, "cg_iter_us_p50", "us", samples("iter_us"), "p50");
    report_.series(e2e, "cg_iter_us_p90", "us", samples("epoch_p90"), "median_of_epoch_p90");
    report_.note("cg.iter_us_p99", median_of(samples("epoch_p99")));
    report_.note("cg.iter_us_p99_pooled", quantile(samples("iter_us"), 0.99));
    report_.note("cg.iterations", first_iterations_);
    report_.note("cg.solves", solves_);
    report_.check("cg_solution", failure_.empty(),
                  failure_.empty() ? "every solve matched the serial reference" : failure_);
    if (!options_.trace) return;

    const Group g = Group::PerLayer;
    report_.series(g, "xdev.shmdev.rtt_8B_us", "us",
                   trace::durations_us(spans, "xdev", "shmdev.rtt_8B"));
    report_.series(g, "mpdev.rtt_8B_us", "us", trace::durations_us(spans, "mpdev", "rtt_8B"));
    report_.series(g, "core.coll.allreduce_8B_us", "us",
                   trace::durations_us(spans, "core.coll", "Allreduce"));
    // Halo exchange time per CG iteration: both Sendrecv children summed.
    std::vector<double> per_iter(spans.size(), 0.0);
    for (const trace::Rec& s : spans) {
      if (std::string_view(s.name) == "Sendrecv" && s.parent >= 0 &&
          std::string_view(spans[static_cast<std::size_t>(s.parent)].name) == "cg_iter") {
        per_iter[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.t1 - s.t0) / 1e3;
      }
    }
    std::vector<double> sendrecv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::string_view(spans[i].name) == "cg_iter") sendrecv.push_back(per_iter[i]);
    }
    report_.series(g, "core.p2p.sendrecv_us", "us", sendrecv);
  }

 private:
  const CgProblem& cg_;
  std::vector<double> x_global_;  ///< each rank's slice, gathered for the check
  int first_iterations_ = -1;
  int solves_ = 0;
  std::string failure_;
};

}  // namespace

std::unique_ptr<Leg> make_cg_leg(const Options& options, const CgProblem& cg, Report& report) {
  return std::make_unique<CgLeg>(options, cg, report);
}

}  // namespace perfbench
