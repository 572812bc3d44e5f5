// p2p_tcp: 2 ranks on tcpdev (the paper's niodev analogue).
//   (a) single-thread ping-pong at 8 B, 64 KB (eager) and 1 MB (rendezvous),
//       as in the paper's Figs. 12-13;
//   (b) THREAD_MULTIPLE traffic, two threads per rank on one connection: a
//       bulk thread streams windows of seeded 1 MB messages while a small-
//       message thread exchanges windows of 32 B messages received through
//       Irecv(ANY_SOURCE, ANY_TAG) and Waitany.
// Every exchange is closed loop: each window waits for the receiver's ack.
#include <memory>
#include <thread>

#include "core/cluster.hpp"
#include "core/intracomm.hpp"
#include "core/request.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

using mpcx::Intracomm;
using mpcx::Request;

constexpr int kPayloads = 8;          ///< distinct seeded payloads per size
constexpr int kAckTag = 900;          ///< receiver -> sender: 1 = go, 0 = stop
constexpr int kSmallWindow = 64;      ///< 32 B messages per small-thread window
constexpr std::size_t kSmallBytes = 32;
constexpr int kBulkWindow = 4;        ///< 1 MB messages per bulk-thread window
constexpr std::size_t kBulkBytes = 1u << 20;

/// Closed-loop ping-pong of one size. Rank 0 returns one-way times (half
/// the round trip) in microseconds; the first batch warms up.
std::vector<double> pingpong(const Intracomm& comm, const Options& options, Report& report,
                             const std::vector<Payload>& payloads, int batch, double budget,
                             const char* span_name) {
  const std::size_t bytes = payloads[0].bytes.size();
  const int count = static_cast<int>(bytes);
  const int rank = comm.Rank();
  const std::uint64_t corrupt = options.corrupt_expect ? 1 : 0;
  std::vector<std::byte> land(bytes);
  std::vector<double> oneway_us;
  const auto start = Clock::now();
  int i = 0;
  for (int b = 0, go = 1; go != 0; ++b) {
    for (int j = 0; j < batch; ++j, ++i) {
      const Payload& p = payloads[static_cast<std::size_t>(i % kPayloads)];
      mpcx::Status status;
      if (rank == 1) {
        status = comm.Recv(land.data(), 0, count, mpcx::types::BYTE(), 0, 1);
        comm.Send(land.data(), 0, count, mpcx::types::BYTE(), 0, 1);
      } else {
        const std::int64_t t0 = now_ns();
        {
          trace::Span span("core.p2p", span_name, static_cast<std::uint64_t>(i) + 1);
          comm.Send(p.bytes.data(), 0, count, mpcx::types::BYTE(), 1, 1);
          status = comm.Recv(land.data(), 0, count, mpcx::types::BYTE(), 1, 1);
        }
        if (b > 0) oneway_us.push_back(static_cast<double>(now_ns() - t0) / 2e3);
      }
      report.op(status.Get_error() == mpcx::ErrCode::Success &&
                status.Get_count(*mpcx::types::BYTE()) == count &&
                checksum(land) == (p.sum ^ corrupt));
    }
    if (rank == 0) go = seconds_since(start) < budget || b < 2 ? 1 : 0;
    comm.Bcast(&go, 0, 1, mpcx::types::INT(), 0);
  }
  return oneway_us;
}

/// The small-message thread of phase (b). Rank 1 returns messages/s per
/// window cycle (ack to ack).
std::vector<double> small_thread(const Intracomm& comm, const Options& options, Report& report,
                                 double budget, std::uint64_t* received) {
  const std::uint64_t key = derive(options.seed, 0xA5);
  const std::uint64_t corrupt = options.corrupt_expect ? 1 : 0;
  using Msg = std::array<std::byte, kSmallBytes>;
  auto fill = [&](int window, int tag, Msg& out) {
    fill_payload(derive(key, static_cast<std::uint64_t>(window) * kSmallWindow +
                                 static_cast<std::uint64_t>(tag)),
                 out);
  };
  std::vector<Msg> msgs(kSmallWindow);
  std::vector<Request> requests(kSmallWindow);
  std::vector<double> rate;
  if (comm.Rank() == 0) {
    for (int w = 0;; ++w) {
      int go = 0;
      comm.Recv(&go, 0, 1, mpcx::types::INT(), 1, kAckTag);
      if (go == 0) break;
      for (int t = 0; t < kSmallWindow; ++t) {
        fill(w, t, msgs[t]);
        requests[t] = comm.Isend(msgs[t].data(), 0, kSmallBytes, mpcx::types::BYTE(), 1, t);
      }
      Request::Waitall(requests);
    }
    return rate;
  }
  const auto start = Clock::now();
  std::int64_t last = 0;
  for (int w = 0;; ++w) {
    const int go = seconds_since(start) < budget || w < 4 ? 1 : 0;
    if (go != 0) {
      for (int t = 0; t < kSmallWindow; ++t) {
        requests[t] = comm.Irecv(msgs[t].data(), 0, kSmallBytes, mpcx::types::BYTE(),
                                 mpcx::ANY_SOURCE, mpcx::ANY_TAG);
      }
    }
    const std::int64_t now = now_ns();
    if (w > 1) rate.push_back(kSmallWindow * 1e9 / static_cast<double>(now - last));
    last = now;
    comm.Send(&go, 0, 1, mpcx::types::INT(), 0, kAckTag);
    if (go == 0) break;
    for (int done = 0; done < kSmallWindow; ++done) {
      mpcx::Status status;
      {
        trace::Span span("core.p2p", "Waitany", static_cast<std::uint64_t>(w) + 1);
        status = Request::Waitany(requests);
      }
      bool ok = status.Get_error() == mpcx::ErrCode::Success && status.index >= 0 &&
                status.Get_tag() >= 0 && status.Get_tag() < kSmallWindow;
      if (ok) {
        Msg expect;
        fill(w, status.Get_tag(), expect);
        ok = checksum(msgs[static_cast<std::size_t>(status.index)]) ==
             (checksum(expect) ^ corrupt);
      }
      report.op(ok);
      ++*received;
    }
  }
  return rate;
}

/// The bulk thread of phase (b). Rank 1 returns useful payload MB/s per
/// window cycle (ack to ack).
std::vector<double> bulk_thread(const Intracomm& comm, const Options& options, Report& report,
                                const std::vector<Payload>& payloads, double budget,
                                std::uint64_t* received) {
  const std::uint64_t corrupt = options.corrupt_expect ? 1 : 0;
  const int count = static_cast<int>(kBulkBytes);
  std::vector<Request> requests(kBulkWindow);
  std::vector<double> mbps;
  if (comm.Rank() == 0) {
    for (int w = 0;; ++w) {
      int go = 0;
      comm.Recv(&go, 0, 1, mpcx::types::INT(), 1, kAckTag);
      if (go == 0) break;
      for (int j = 0; j < kBulkWindow; ++j) {
        const Payload& p = payloads[static_cast<std::size_t>((w * kBulkWindow + j) % kPayloads)];
        requests[j] = comm.Isend(p.bytes.data(), 0, count, mpcx::types::BYTE(), 1, j);
      }
      Request::Waitall(requests);
    }
    return mbps;
  }
  std::vector<std::vector<std::byte>> land(kBulkWindow, std::vector<std::byte>(kBulkBytes));
  const auto start = Clock::now();
  std::int64_t last = 0;
  for (int w = 0;; ++w) {
    const int go = seconds_since(start) < budget || w < 4 ? 1 : 0;
    if (go != 0) {
      for (int j = 0; j < kBulkWindow; ++j) {
        requests[j] = comm.Irecv(land[j].data(), 0, count, mpcx::types::BYTE(), 0, j);
      }
    }
    const std::int64_t now = now_ns();
    if (w > 1) {
      mbps.push_back(kBulkWindow * static_cast<double>(kBulkBytes) * 1e3 /
                     static_cast<double>(now - last));
    }
    last = now;
    comm.Send(&go, 0, 1, mpcx::types::INT(), 0, kAckTag);
    if (go == 0) break;
    std::vector<mpcx::Status> statuses;
    {
      trace::Span span("core.p2p", "Waitall", static_cast<std::uint64_t>(w) + 1);
      statuses = Request::Waitall(requests);
    }
    for (int j = 0; j < kBulkWindow; ++j) {
      const Payload& p = payloads[static_cast<std::size_t>((w * kBulkWindow + j) % kPayloads)];
      report.op(statuses[j].Get_error() == mpcx::ErrCode::Success &&
                checksum(land[j]) == (p.sum ^ corrupt));
      ++*received;
    }
  }
  return mbps;
}

class P2pLeg final : public Leg {
 public:
  P2pLeg(const Options& options, Report& report)
      : Leg("p2p_tcp", options, report,
            {"pp8", "pp8_epoch_p90", "pp8_epoch_p99", "pp64k", "pp1m", "small_rate",
             "bulk_mbps"}),
        p8_(make_payloads(derive(options.seed, 8), 8, kPayloads)),
        p64k_(make_payloads(derive(options.seed, 64 << 10), 64 << 10, kPayloads)),
        p1m_(make_payloads(derive(options.seed, kBulkBytes), kBulkBytes, kPayloads)) {}

 protected:
  void epoch(int index, double seconds) override {
    mpcx::cluster::Options copt;
    copt.device = "tcpdev";
    mpcx::cluster::launch(2, [&](mpcx::World& world) {
      Intracomm& comm = world.COMM_WORLD();
      const int rank = comm.Rank();
      trace::set_rank(rank);
      first_barrier(comm);
      start_counting(options_);
      if (options_.trace && index == 0) {
        xdev_pingpong(world, options_, report_, "tcpdev.rtt_8B", 8, 2000);
        comm.Barrier();
        xdev_pingpong(world, options_, report_, "tcpdev.rtt_64K", 64 << 10, 1000);
        comm.Barrier();
        xdev_pingpong(world, options_, report_, "tcpdev.rtt_1M", kBulkBytes, 200);
        comm.Barrier();
        mpdev_waitany(world, options_, report_, 200);
      }
      auto counted_phase = [&](Counts& total, auto&& body) {
        Counts before;
        comm.Barrier();
        if (rank == 0) before = snapshot_counts();
        comm.Barrier();
        body();
        comm.Barrier();
        if (rank == 0) total += snapshot_counts() - before;
        comm.Barrier();
      };

      // (a) ping-pong.
      auto r8 = pingpong(comm, options_, report_, p8_, 200, 0.35 * seconds, "rtt_8B");
      auto r64k = pingpong(comm, options_, report_, p64k_, 50, 0.15 * seconds, "rtt_64K");
      std::vector<double> r1m;
      counted_phase(zc_, [&] {
        r1m = pingpong(comm, options_, report_, p1m_, 10, 0.2 * seconds, "rtt_1M");
      });
      if (rank == 0) {
        samples("pp8_epoch_p90").push_back(quantile(r8, 0.90));
        samples("pp8_epoch_p99").push_back(quantile(r8, 0.99));
        append(samples("pp8"), r8);
        append(samples("pp64k"), r64k);
        append(samples("pp1m"), r1m);
        pp1m_round_trips_ += r1m.size() + 10;  // the warm-up batch moved data too
      }

      // (b) THREAD_MULTIPLE: bulk and small traffic share one connection.
      std::unique_ptr<Intracomm> bulk_comm = comm.Dup();
      std::unique_ptr<Intracomm> small_comm = comm.Dup();
      counted_phase(mt_, [&] {
        std::vector<double> rate, mbps;
        std::uint64_t small_n = 0, bulk_n = 0;
        std::jthread bulk([&] {  // joined on unwind too
          trace::set_rank(rank);
          mbps = bulk_thread(*bulk_comm, options_, report_, p1m_, 0.3 * seconds, &bulk_n);
        });
        rate = small_thread(*small_comm, options_, report_, 0.3 * seconds, &small_n);
        bulk.join();
        if (rank == 1) {
          append(samples("small_rate"), rate);
          append(samples("bulk_mbps"), mbps);
          small_received_ += small_n;
          bulk_received_ += bulk_n;
        }
      });
      stop_counting(options_, comm);
    }, copt);
  }

  void report_metrics(const std::vector<trace::Rec>& spans) override {
    const Group e2e = Group::EndToEnd;
    report_.series(e2e, "pp_8B_us_p50", "us", samples("pp8"), "p50");
    report_.series(e2e, "pp_8B_us_p90", "us", samples("pp8_epoch_p90"), "median_of_epoch_p90");
    report_.note("p2p.pp_8B_us_p99", median_of(samples("pp8_epoch_p99")));
    report_.note("p2p.pp_8B_us_p99_pooled", quantile(samples("pp8"), 0.99));
    report_.series(e2e, "pp_64K_us_p50", "us", samples("pp64k"), "p50");
    std::vector<double> mbps_1m;
    for (const double us : samples("pp1m")) {
      mbps_1m.push_back(static_cast<double>(kBulkBytes) / us);
    }
    report_.series(e2e, "pp_1M_MBps", "MB/s", mbps_1m);
    report_.series(e2e, "mt_small_msgs_per_s", "msgs/s", samples("small_rate"));
    report_.series(e2e, "mt_bulk_MBps", "MB/s", samples("bulk_mbps"));
    report_.note("p2p.mt_small_messages", static_cast<double>(small_received_));
    report_.note("p2p.mt_bulk_messages", static_cast<double>(bulk_received_));
    if (!options_.trace) return;

    const Group g = Group::PerLayer;
    const auto xdev64k = trace::durations_us(spans, "xdev", "tcpdev.rtt_64K");
    const auto core64k = trace::durations_us(spans, "core.p2p", "rtt_64K");
    report_.series(g, "xdev.tcpdev.rtt_8B_us", "us",
                   trace::durations_us(spans, "xdev", "tcpdev.rtt_8B"));
    report_.series(g, "xdev.tcpdev.rtt_64K_us", "us", xdev64k);
    report_.series(g, "xdev.tcpdev.rtt_1M_us", "us",
                   trace::durations_us(spans, "xdev", "tcpdev.rtt_1M"));
    report_.series(g, "core.p2p.rtt_8B_us", "us", trace::durations_us(spans, "core.p2p", "rtt_8B"));
    report_.series(g, "core.p2p.rtt_64K_us", "us", core64k);
    report_.scalar(g, "core.p2p.over_xdev_64K_us", "us",
                   (median_of(core64k) - median_of(xdev64k)) / 2.0, core64k.size(),
                   "diff_of_p50");
    report_.series(g, "mpdev.waitany_us", "us", trace::durations_us(spans, "mpdev", "waitany"));

    using mpcx::prof::Ctr;
    // Both directions of every 1 MB round trip carry kBulkBytes of payload.
    const double pp1m_bytes = 2.0 * static_cast<double>(pp1m_round_trips_ * kBulkBytes);
    report_.scalar(g, "core.p2p.zero_copy_share", "ratio",
                   ratio(get(zc_.core, Ctr::PackBytesAvoided), pp1m_bytes),
                   2 * pp1m_round_trips_, "ratio");
    const double msgs = get(mt_.tcpdev, Ctr::MsgsRecvd);
    const auto n = static_cast<std::size_t>(msgs);
    report_.scalar(g, "xdev.tcpdev.epoll_wakeups_per_msg", "1/msg",
                   ratio(get(mt_.tcpdev, Ctr::EpollWakeups), msgs), n, "ratio");
    report_.scalar(g, "xdev.peek_wakeups_per_msg", "1/msg",
                   ratio(get(mt_.tcpdev, Ctr::PeekWakeups), static_cast<double>(small_received_)),
                   small_received_, "ratio");
    const double unexpected = get(mt_.tcpdev, Ctr::UnexpectedMatches);
    report_.scalar(g, "xdev.unexpected_match_ratio", "ratio",
                   ratio(unexpected, unexpected + get(mt_.tcpdev, Ctr::PostedMatches)), n,
                   "ratio");
    const double rndv = get(mt_.tcpdev, Ctr::RndvSends);
    report_.scalar(g, "xdev.tcpdev.rndv_share", "ratio",
                   ratio(rndv, rndv + get(mt_.tcpdev, Ctr::EagerSends)), n, "ratio");
    const std::uint64_t core_msgs = small_received_ + bulk_received_;
    report_.scalar(g, "bufx.pack_bytes_per_msg", "B/msg",
                   ratio(get(mt_.core, Ctr::PackBytes), static_cast<double>(core_msgs)),
                   core_msgs, "ratio");
    // Pool gets of core (packing) and of tcpdev (eager and unexpected
    // frames staged in msg->temp): both pools are bufx::BufferPool.
    const double pool_misses = get(mt_.core, Ctr::PoolMisses) + get(mt_.tcpdev, Ctr::PoolMisses);
    const double pool_gets =
        pool_misses + get(mt_.core, Ctr::PoolHits) + get(mt_.tcpdev, Ctr::PoolHits);
    report_.scalar(g, "bufx.pool_miss_ratio", "ratio", ratio(pool_misses, pool_gets),
                   static_cast<std::size_t>(pool_gets), "ratio");
    report_.note("bufx.pool_gets.core",
                 get(mt_.core, Ctr::PoolMisses) + get(mt_.core, Ctr::PoolHits));
    report_.note("bufx.pool_gets.tcpdev",
                 get(mt_.tcpdev, Ctr::PoolMisses) + get(mt_.tcpdev, Ctr::PoolHits));
  }

 private:
  const std::vector<Payload> p8_, p64k_, p1m_;
  std::uint64_t small_received_ = 0, bulk_received_ = 0, pp1m_round_trips_ = 0;
  Counts zc_, mt_;  ///< counter deltas of the 1 MB ping-pong and of phase (b)
};

}  // namespace

std::unique_ptr<Leg> make_p2p_leg(const Options& options, Report& report) {
  return std::make_unique<P2pLeg>(options, report);
}

}  // namespace perfbench
