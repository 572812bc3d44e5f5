// coll_hyb: 4 ranks on hybdev with MPCX_NODE_ID=2 (2 simulated nodes x 2
// ranks): intra-node legs use shmdev and the single-copy collbuf, inter-node
// legs tcpdev. Timed batches of Allreduce 8 B and 64 KB, Bcast 64 KB,
// Iallreduce+Wait 64 KB, and an overlap loop (Iallreduce 64 KB, fixed
// compute, Wait). Each metric is the max-over-ranks per-operation time of
// a batch, taken as a median over batches.
#include <cstring>
#include <functional>

#include "common.hpp"
#include "core/cluster.hpp"
#include "core/intracomm.hpp"
#include "core/request.hpp"

namespace perfbench {

namespace {

using mpcx::Intracomm;

constexpr int kRanks = 4;
constexpr int kDoubles = 8192;  // 64 KB
constexpr std::size_t kBytes = kDoubles * sizeof(double);
constexpr int kCountedOps = 64;  // ops per counted (traced) phase

/// The overlap loop's fixed compute: the same work on every host and
/// commit (about 100 us on a 4 GHz Xeon core).
double compute_kernel(std::vector<double>& v) {
  constexpr int kSweeps = 48;
  for (int s = 0; s < kSweeps; ++s) {
    const double a = 0.999 + 1e-6 * s;
    for (double& x : v) x = x * a + 0.5;
  }
  return v[static_cast<std::size_t>(v.size() / 2)];
}

/// Seeded integer-valued doubles: sums of four of them are exact, so
/// every reduction has a closed form whatever the summation order.
std::vector<double> integer_values(std::uint64_t key, std::size_t n) {
  std::vector<double> out(n);
  std::uint64_t state = key;
  for (double& v : out) v = static_cast<double>(splitmix(state) >> 44);  // < 2^20
  return out;
}

/// Batches of `batch` timed operations until rank 0's budget is spent.
/// The first `warm` batches warm up and are not kept; the budget starts
/// after them. Returns, on rank 0, the max-over-ranks per-op microseconds
/// of every kept batch.
std::vector<double> batched(const Intracomm& comm, int batch, double budget,
                            const std::function<void(int)>& prep,
                            const std::function<void(int, int)>& body,
                            const std::function<void(int)>& verify, int warm = 1) {
  const int rank = comm.Rank();
  std::vector<double> per_op_us;
  auto start = Clock::now();
  for (int b = 0;; ++b) {
    if (b == warm) start = Clock::now();
    prep(b);
    comm.Barrier();
    const std::int64_t t0 = now_ns();
    for (int j = 0; j < batch; ++j) body(b, j);
    const double us = static_cast<double>(now_ns() - t0) / 1e3 / batch;
    verify(b);
    const double stop = rank == 0 && seconds_since(start) >= budget && b > warm ? 1.0 : 0.0;
    double in[2] = {us, stop}, out[2] = {0.0, 0.0};
    comm.Allreduce(in, 0, out, 0, 2, mpcx::types::DOUBLE(), mpcx::ops::MAX());
    if (rank == 0 && b >= warm) per_op_us.push_back(out[0]);
    if (out[1] != 0.0) break;
  }
  return per_op_us;
}

/// Per-rank state of the 64 KB reductions: `batch` send/receive buffers.
struct Reduce64K {
  const std::vector<double>& base;  ///< seeded values shared by all ranks
  std::uint64_t key;
  int rank;
  double corrupt;
  std::vector<std::vector<double>> send, recv;
  std::vector<std::size_t> offset;

  Reduce64K(const std::vector<double>& base_values, std::uint64_t k, int r, int batch, double c)
      : base(base_values), key(k), rank(r), corrupt(c),
        send(batch, std::vector<double>(kDoubles)), recv(batch, std::vector<double>(kDoubles)),
        offset(batch) {}

  /// Operation (b, j) reduces base rotated by a seeded offset plus rank+1.
  void prep(int b) {
    for (std::size_t j = 0; j < send.size(); ++j) {
      offset[j] = derive(key, static_cast<std::uint64_t>(b) * send.size() + j) % kDoubles;
      for (std::size_t i = 0; i < kDoubles; ++i) {
        send[j][i] = base[(i + offset[j]) % kDoubles] + rank + 1;
      }
      std::memset(recv[j].data(), 0, kBytes);
    }
  }

  /// Closed form: sum over ranks of base + r + 1 = 4 * base + 10. Checks
  /// the first `count` operations of the batch.
  void verify(Report& report, std::size_t count) const {
    for (std::size_t j = 0; j < count; ++j) {
      bool ok = true;
      for (std::size_t i = 0; i < kDoubles && ok; ++i) {
        ok = recv[j][i] == 4 * base[(i + offset[j]) % kDoubles] + 10 + corrupt;
      }
      report.op(ok);
    }
  }
};

class CollLeg final : public Leg {
 public:
  CollLeg(const Options& options, Report& report)
      : Leg("coll_hyb", options, report, {"ar8", "ar64k", "bc64k", "iar64k", "overlap"}),
        base_(integer_values(derive(options.seed, 0xB0), kDoubles)),
        bcast_payloads_(make_payloads(derive(options.seed, 0xB1), kBytes, 8)) {}

 protected:
  void epoch(int index, double seconds) override {
    const double part = seconds / 5;
    const double corrupt = options_.corrupt_expect ? 1.0 : 0.0;
    ScopedEnv nodes("MPCX_NODE_ID", "2");
    mpcx::cluster::Options copt;
    copt.device = "hybdev";
    mpcx::cluster::launch(kRanks, [&](mpcx::World& world) {
      Intracomm& comm = world.COMM_WORLD();
      const int rank = comm.Rank();
      trace::set_rank(rank);
      first_barrier(comm);
      start_counting(options_);
      auto keep = [&](const char* series, const std::vector<double>& batches) {
        if (rank == 0) append(samples(series), batches);
      };

      {  // Allreduce 8 B
        constexpr int kBatch = 50;
        const std::uint64_t key = derive(options_.seed, 0xB2);
        std::vector<double> a(kBatch), res(kBatch);
        keep("ar8", batched(comm, kBatch, part,
            [&](int b) {
              for (int j = 0; j < kBatch; ++j) {
                const auto op = static_cast<std::uint64_t>(b * kBatch + j);
                a[j] = static_cast<double>(derive(key, op) >> 44);
              }
            },
            [&](int, int j) {
              const double mine = a[j] + rank + 1;
              trace::Span span("core.coll", "Allreduce_8B");
              comm.Allreduce(&mine, 0, &res[j], 0, 1, mpcx::types::DOUBLE(), mpcx::ops::SUM());
            },
            [&](int) {
              for (int j = 0; j < kBatch; ++j) report_.op(res[j] == 4 * a[j] + 10 + corrupt);
            }));
      }

      constexpr int kBatch64 = 16;
      Reduce64K r64(base_, derive(options_.seed, 0xB3), rank, kBatch64, corrupt);
      auto allreduce = [&](int, int j) {
        trace::Span span("core.coll", "Allreduce_64K");
        comm.Allreduce(r64.send[j].data(), 0, r64.recv[j].data(), 0, kDoubles,
                       mpcx::types::DOUBLE(), mpcx::ops::SUM());
      };
      auto iallreduce = [&](int, int j) {
        mpcx::Request request;
        {
          trace::Span span("core.coll_sched", "Iallreduce");
          request = comm.Iallreduce(r64.send[j].data(), 0, r64.recv[j].data(), 0, kDoubles,
                                    mpcx::types::DOUBLE(), mpcx::ops::SUM());
        }
        trace::Span span("core.coll_sched", "Wait");
        request.Wait();
      };
      auto prep64 = [&](int b) { r64.prep(b); };
      auto verify64 = [&](int) { r64.verify(report_, kBatch64); };
      keep("ar64k", batched(comm, kBatch64, part, prep64, allreduce, verify64));

      {  // Bcast 64 KB from a rotating root
        std::vector<std::vector<std::byte>> bufs(kBatch64, std::vector<std::byte>(kBytes));
        std::vector<int> which(kBatch64), root(kBatch64);
        keep("bc64k", batched(comm, kBatch64, part,
            [&](int b) {
              for (int j = 0; j < kBatch64; ++j) {
                which[j] = (b * kBatch64 + j) % static_cast<int>(bcast_payloads_.size());
                root[j] = (b + j) % kRanks;
                if (rank == root[j]) {
                  std::memcpy(bufs[j].data(), bcast_payloads_[which[j]].bytes.data(), kBytes);
                } else {
                  std::memset(bufs[j].data(), 0, kBytes);
                }
              }
            },
            [&](int, int j) {
              trace::Span span("core.coll", "Bcast_64K");
              comm.Bcast(bufs[j].data(), 0, static_cast<int>(kBytes), mpcx::types::BYTE(), root[j]);
            },
            [&](int) {
              const std::uint64_t flip = options_.corrupt_expect ? 1 : 0;
              for (int j = 0; j < kBatch64; ++j) {
                report_.op(checksum(bufs[j]) == (bcast_payloads_[which[j]].sum ^ flip));
              }
            }));
      }

      // A world's first 50-60 Iallreduce+Wait at 64 KB ran about 1.7x slower
      // than the rest at this commit; 96 untimed ones keep that start-up
      // cost out of the steady-state figure whatever the epoch length.
      constexpr int kWarmNb = 96 / kBatch64;
      keep("iar64k", batched(comm, kBatch64, part, prep64, iallreduce, verify64, kWarmNb));

      // Overlap: Iallreduce 64 KB, fixed compute, Wait — every core busy.
      constexpr int kBatchOverlap = 8;
      std::vector<double> work(4096, 1.0);
      double sink = 0.0;
      keep("overlap", batched(comm, kBatchOverlap, part, prep64,
          [&](int, int j) {
            trace::Span iter("app", "overlap_iter");
            mpcx::Request request;
            {
              trace::Span span("core.coll_sched", "Iallreduce.overlap");
              request = comm.Iallreduce(r64.send[j].data(), 0, r64.recv[j].data(), 0, kDoubles,
                                        mpcx::types::DOUBLE(), mpcx::ops::SUM());
            }
            {
              trace::Span span("app", "compute");
              sink += compute_kernel(work);
            }
            trace::Span span("core.coll_sched", "Wait.overlap");
            request.Wait();
          },
          [&](int) { r64.verify(report_, kBatchOverlap); }));

      if (options_.trace && index == 0) {
        // The same compute with no collective in flight, all ranks at once.
        for (int i = 0; i < 200; ++i) {
          trace::Span span("app", "compute_alone");
          sink += compute_kernel(work);
        }
        // Counted phases: library counters around a fixed number of ops,
        // minus an empty phase that holds only the bracketing barriers.
        auto counted = [&](Counts (&c)[2], const std::function<void(int, int)>& op) {
          r64.prep(1 << 20);
          comm.Barrier();
          if (rank == 0) c[0] = snapshot_counts();
          comm.Barrier();
          for (int j = 0; op && j < kCountedOps; ++j) op(0, j % kBatch64);
          comm.Barrier();
          if (rank == 0) c[1] = snapshot_counts();
          comm.Barrier();
          if (op) r64.verify(report_, kBatch64);
        };
        counted(c_base_, nullptr);
        counted(c_block_, allreduce);
        counted(c_nb_, iallreduce);
      }
      if (sink == 42.0) report_.note("coll.sink", sink);  // keeps the compute live
      stop_counting(options_, comm);
    }, copt);
  }

  void report_metrics(const std::vector<trace::Rec>& spans) override {
    const Group e2e = Group::EndToEnd;
    report_.series(e2e, "allreduce_8B_us", "us", samples("ar8"));
    report_.series(e2e, "allreduce_64K_us", "us", samples("ar64k"));
    report_.series(e2e, "bcast_64K_us", "us", samples("bc64k"));
    report_.series(e2e, "iallreduce_64K_us", "us", samples("iar64k"));
    report_.series(e2e, "overlap_iter_us", "us", samples("overlap"));

    if (!options_.trace) return;
    const Group g = Group::PerLayer;
    using mpcx::prof::Ctr;
    const Counts barriers = c_base_[1] - c_base_[0];
    const Counts block = (c_block_[1] - c_block_[0]) - barriers;
    const Counts nb = (c_nb_[1] - c_nb_[0]) - barriers;
    const std::size_t ops = kCountedOps;
    report_.scalar(g, "xdev.hybdev.inter_msgs_per_op", "msgs/op",
                   get(block.hybdev, Ctr::HybInterMsgs) / ops, ops, "ratio");
    report_.scalar(g, "xdev.collbuf.singlecopy_share_blocking", "ratio",
                   ratio(get(block.core, Ctr::SinglecopyColls),
                         get(block.core, Ctr::CollectiveCalls)),
                   ops, "ratio");
    report_.scalar(g, "xdev.collbuf.singlecopy_share_nb", "ratio",
                   ratio(get(nb.core, Ctr::SinglecopyColls), get(nb.core, Ctr::NbCollsStarted)),
                   ops, "ratio");
    report_.scalar(g, "xdev.collbuf.level_local_bytes", "B/op",
                   get(block.core, Ctr::LevelLocalBytes) / ops, ops, "ratio");
    report_.scalar(g, "core.coll.hier_share", "ratio",
                   ratio(get(block.core, Ctr::HierarchicalColls),
                         get(block.core, Ctr::CollectiveCalls)),
                   ops, "ratio");
    report_.scalar(g, "core.coll_sched.rounds_per_op", "rounds/op",
                   ratio(get(nb.core, Ctr::SchedRounds), get(nb.core, Ctr::NbCollsCompleted)), ops,
                   "ratio");
    report_.series(g, "core.coll_sched.post_us", "us",
                   trace::durations_us(spans, "core.coll_sched", "Iallreduce"));
    report_.series(g, "core.coll_sched.wait_us", "us",
                   trace::durations_us(spans, "core.coll_sched", "Wait"));
    const std::vector<double> inside = trace::durations_us(spans, "app", "compute");
    const std::vector<double> alone = trace::durations_us(spans, "app", "compute_alone");
    report_.scalar(g, "app.compute_stretch", "ratio", ratio(median_of(inside), median_of(alone)),
                   inside.size(), "ratio_of_p50");
  }

 private:
  const std::vector<double> base_;  ///< seeded reduction inputs shared by all ranks
  const std::vector<Payload> bcast_payloads_;
  Counts c_base_[2], c_block_[2], c_nb_[2];  ///< counter snapshots around the counted phases
};

}  // namespace

std::unique_ptr<Leg> make_coll_leg(const Options& options, Report& report) {
  return std::make_unique<CollLeg>(options, report);
}

}  // namespace perfbench
