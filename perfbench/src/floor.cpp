// Machine floor: what this host costs before MPCX does anything. These
// numbers move no end-to-end metric; a slower host shows here first.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr int kHandoffRounds = 2000;

/// One-way handoff between two threads through a mutex and condvar.
std::vector<double> condvar_handoff() {
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  std::thread peer([&] {
    for (int i = 0; i < kHandoffRounds; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return turn == 1; });
      turn = 0;
      cv.notify_all();
    }
  });
  std::vector<double> samples;
  for (int i = 0; i < kHandoffRounds; ++i) {
    const std::int64_t t0 = now_ns();
    std::unique_lock<std::mutex> lock(mu);
    turn = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return turn == 0; });
    samples.push_back(static_cast<double>(now_ns() - t0) / 2e3);
  }
  peer.join();
  return samples;
}

/// One-way handoff between two threads spinning on an atomic.
std::vector<double> spin_handoff() {
  constexpr int kBatch = 1000;
  constexpr int kBatches = 20;
  std::atomic<int> turn{0};
  std::thread peer([&] {
    for (int i = 0; i < kBatch * kBatches; ++i) {
      while (turn.load(std::memory_order_acquire) != 1) {
      }
      turn.store(0, std::memory_order_release);
    }
  });
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) {
      turn.store(1, std::memory_order_release);
      while (turn.load(std::memory_order_acquire) != 0) {
      }
    }
    samples.push_back(static_cast<double>(now_ns() - t0) / (2e3 * kBatch));
  }
  peer.join();
  return samples;
}

class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {
    if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  ~Fd() { ::close(fd_); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

void xfer(bool send, int fd, char* byte) {
  const ssize_t n = send ? ::send(fd, byte, 1, MSG_NOSIGNAL) : ::recv(fd, byte, 1, 0);
  if (n != 1) throw std::runtime_error("loopback round trip: short transfer");
}

/// Round trip of one byte over a TCP loopback connection.
std::vector<double> loopback_rtt() {
  Fd listener(::socket(AF_INET, SOCK_STREAM, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(listener.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener.get(), 1) != 0 ||
      ::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("loopback listener failed");
  }
  Fd client(::socket(AF_INET, SOCK_STREAM, 0));
  if (::connect(client.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error("loopback connect failed");
  }
  Fd server(::accept(listener.get(), nullptr, nullptr));
  const int one = 1;
  ::setsockopt(client.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::setsockopt(server.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  std::thread echo([&] {
    char byte = 0;
    for (int i = 0; i < kHandoffRounds; ++i) {
      xfer(false, server.get(), &byte);
      xfer(true, server.get(), &byte);
    }
  });
  std::vector<double> samples;
  char byte = 'x';
  for (int i = 0; i < kHandoffRounds; ++i) {
    const std::int64_t t0 = now_ns();
    xfer(true, client.get(), &byte);
    xfer(false, client.get(), &byte);
    samples.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  echo.join();
  return samples;
}

/// Size of the last-level cache in bytes, from sysfs (0 when unknown).
std::size_t llc_bytes() {
  std::size_t best = 0;
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream size_file(dir + "/size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || size.empty()) continue;
    std::size_t bytes = std::stoull(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (level >= best_level) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

/// memcpy bandwidth between two arrays each at least 4x the LLC.
std::vector<double> memcpy_bandwidth(Report& report) {
  const std::size_t llc = llc_bytes();
  const std::size_t bytes = std::max<std::size_t>(4 * llc, 64u << 20);
  report.note("floor.llc_bytes", static_cast<double>(llc));
  report.note("floor.memcpy_array_bytes", static_cast<double>(bytes));
  std::unique_ptr<std::byte[]> src(new std::byte[bytes]);
  std::unique_ptr<std::byte[]> dst(new std::byte[bytes]);
  std::memset(src.get(), 0x5A, bytes);
  std::memset(dst.get(), 0, bytes);
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    std::memcpy(dst.get(), src.get(), bytes);
    samples.push_back(static_cast<double>(bytes) / seconds_since(start) / 1e9);
  }
  if (dst[bytes - 1] != src[bytes - 1]) throw std::runtime_error("memcpy floor: copy mismatch");
  return samples;
}

}  // namespace

// ---- the CG problem ----------------------------------------------------------------

CgProblem make_cg_problem(std::uint64_t seed) {
  CgProblem p;
  p.n = 1024;
  p.tol = 1e-10;
  p.max_iterations = 4 * p.n;
  p.b.resize(static_cast<std::size_t>(p.n));
  std::uint64_t state = derive(seed, 0xC6);
  for (double& v : p.b) {
    v = static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53 * 2.0 - 1.0;
  }
  return p;
}

int serial_cg(const CgProblem& p, std::vector<double>& x) {
  const auto n = static_cast<std::size_t>(p.n);
  x.assign(n, 0.0);
  std::vector<double> r = p.b, q = p.b, aq(n);
  auto dot = [&](const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
  };
  double rr = dot(r, r);
  const double stop = p.tol * p.tol * rr;
  int it = 0;
  for (; it < p.max_iterations && rr > stop; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      const double left = i > 0 ? q[i - 1] : 0.0;
      const double right = i + 1 < n ? q[i + 1] : 0.0;
      aq[i] = 2.0 * q[i] - left - right;
    }
    const double alpha = rr / dot(q, aq);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * q[i];
      r[i] -= alpha * aq[i];
    }
    const double rr_new = dot(r, r);
    const double beta = rr_new / rr;
    rr = rr_new;
    for (std::size_t i = 0; i < n; ++i) q[i] = r[i] + beta * q[i];
  }
  return it;
}

void run_floor(const Options& options, CgProblem& cg, Report& report) {
  const Group g = Group::PerLayer;
  report.series(g, "floor.condvar_handoff_us", "us", condvar_handoff());
  report.series(g, "floor.spin_handoff_us", "us", spin_handoff());
  report.series(g, "floor.loopback_rtt_us", "us", loopback_rtt());
  if (options.trace) report.series(g, "floor.memcpy_GBps", "GB/s", memcpy_bandwidth(report));

  std::vector<double> solve_s;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    cg.ref_iterations = serial_cg(cg, cg.x_ref);
    solve_s.push_back(seconds_since(start));
  }
  report.series(g, "floor.serial_cg_solve_s", "s", solve_s);
  report.note("cg.n", cg.n);
  report.note("cg.tol", cg.tol);
  report.note("cg.serial_iterations", cg.ref_iterations);
}

}  // namespace perfbench
