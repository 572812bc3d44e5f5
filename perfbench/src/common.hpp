// perfbench — shared pieces: seeded inputs, checksums, statistics,
// the result report, the span tracer, counter snapshots and the legs.
//
// The benchmark runs three legs (cg_shm, p2p_tcp, coll_hyb) in one process;
// every rank is a cluster::launch thread. Inputs come only from --seed.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "prof/counters.hpp"

namespace mpcx {
class Intracomm;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- seeded inputs ---------------------------------------------------------------

/// splitmix64 step: the one generator every input is drawn from.
inline std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Derive an independent stream key from a parent key and a label.
inline std::uint64_t derive(std::uint64_t key, std::uint64_t label) {
  std::uint64_t state = key ^ (label * 0xD6E8FEB86659FD93ull);
  return splitmix(state);
}

/// Fill `out` with the payload named by `key`.
void fill_payload(std::uint64_t key, std::span<std::byte> out);

/// 64-bit checksum of a payload (four independent lanes, so verifying a
/// 1 MB message costs tens of microseconds, not a millisecond).
std::uint64_t checksum(std::span<const std::byte> data);

/// One seeded payload with its checksum precomputed.
struct Payload {
  std::vector<std::byte> bytes;
  std::uint64_t sum = 0;
};

/// `count` distinct seeded payloads of `size` bytes.
std::vector<Payload> make_payloads(std::uint64_t key, std::size_t size, int count);

// ---- statistics ------------------------------------------------------------------

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Quantiles by linear interpolation between order statistics.
Summary summarize(std::vector<double> samples);
double quantile(std::vector<double> samples, double q);

double median_of(const std::vector<double>& samples);

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

inline void append(std::vector<double>& dst, const std::vector<double>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

// ---- run options -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test only: every expected checksum and closed-form result is
  /// perturbed, so every verified operation must be counted as failed.
  bool corrupt_expect = false;
  std::string trace_out;  ///< span file written at the end of a traced run
};

// ---- report ----------------------------------------------------------------------

enum class Group { EndToEnd, PerLayer };

struct Metric {
  Group group = Group::EndToEnd;
  std::string unit;
  std::string stat;  ///< which statistic `value` is: p50, ratio, ...
  double value = 0.0;
  Summary summary;   ///< of the underlying samples
};

class Report {
 public:
  /// A metric read from a sample series: `value` is the series' median,
  /// or, when `stat` is "trimmed_mean", the mean of the samples without
  /// the lowest and the highest tenth; `stat` says what it is ("p50",
  /// "trimmed_mean", or "median_of_epoch_p90" when the samples are
  /// per-epoch 90th percentiles).
  void series(Group group, const std::string& name, const std::string& unit,
              const std::vector<double>& samples, const char* stat = "p50");

  /// A metric computed once per run (a ratio of counts, a difference).
  void scalar(Group group, const std::string& name, const std::string& unit, double value,
              std::size_t samples, const char* stat);

  /// Count one data-moving operation; `ok` false marks it failed.
  void op(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A named whole-run check (e.g. the CG solution against the serial one).
  void check(const std::string& name, bool ok, const std::string& detail);

  /// Free-form context recorded in the result file (sizes, counts).
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& value);

  /// Everything as one JSON object on one line.
  std::string json(const Options& options) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::pair<bool, std::string>> checks_;
  std::map<std::string, std::string> notes_;  ///< values already JSON-encoded
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

// ---- spans (traced run only) ---------------------------------------------------------
//
// Each thread records spans into its own buffer; nothing is shared on the
// recording path. A span holds its layer, operation name, operation id,
// parent span, rank and start/end. Spans nest per thread; a child with op
// id 0 inherits its parent's id, so the spans of one operation share an id.
// Each leg stores at most kSpansPerLeg spans; later ones are timed like
// any other but not stored.

namespace trace {

constexpr std::int64_t kSpansPerLeg = 100000;

struct Rec {
  const char* layer = "";
  const char* name = "";
  std::uint64_t op = 0;
  std::int32_t parent = -1;  ///< index of the parent span (flat index after drain)
  std::int32_t rank = -1;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

void enable(bool on);
bool enabled();

/// Tag spans recorded by the calling thread with a rank.
void set_rank(int rank);

class Span {
 public:
  Span(const char* layer, const char* name, std::uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_ = -2;  ///< -2: tracing off; -1: not stored (budget spent)
};

/// Spans that may still be stored, and setting it (per leg).
std::int64_t budget();
void set_budget(std::int64_t spans);

/// Move every stored span out of the per-thread buffers and append them to
/// `out`, parents remapped to indices in `out`. Call while no thread records.
void drain_into(std::vector<Rec>& out);

/// Spans timed but not stored because a leg's budget was spent.
std::uint64_t dropped();

/// Durations in microseconds of the spans matching layer and name.
std::vector<double> durations_us(const std::vector<Rec>& spans, const char* layer,
                                 const char* name);

/// Self time in microseconds of every span: its duration minus the time
/// its direct children cover.
std::vector<double> self_us(const std::vector<Rec>& spans);

/// Record each layer's span count and summed self time as result notes
/// ("budget.<leg>.<layer>.*"): the per-layer time budget of one leg.
void note_layer_budget(Report& report, const char* leg, const std::vector<Rec>& spans);

/// Append the spans to `path` as JSON lines, one span per line.
bool append_file(const std::string& path, const char* leg, const std::vector<Rec>& spans);

}  // namespace trace

// ---- library counters ------------------------------------------------------------------

/// Counter blocks summed by domain: World blocks ("core/rank*") and each
/// device kind. Only meaningful while prof::set_stats_enabled(true).
struct Counts {
  std::array<std::uint64_t, mpcx::prof::kCtrCount> core{};
  std::array<std::uint64_t, mpcx::prof::kCtrCount> tcpdev{};
  std::array<std::uint64_t, mpcx::prof::kCtrCount> shmdev{};
  std::array<std::uint64_t, mpcx::prof::kCtrCount> hybdev{};
};

Counts snapshot_counts();
Counts operator-(const Counts& after, const Counts& before);
Counts& operator+=(Counts& total, const Counts& delta);

inline double get(const std::array<std::uint64_t, mpcx::prof::kCtrCount>& block,
                  mpcx::prof::Ctr counter) {
  return static_cast<double>(block[static_cast<std::size_t>(counter)]);
}

// ---- host ----------------------------------------------------------------------------

/// Cumulative CPU ticks of the whole host, from /proc/stat (zeros when it
/// cannot be read).
struct CpuTicks {
  std::uint64_t steal = 0;  ///< time the hypervisor ran other guests instead
  std::uint64_t total = 0;
};

CpuTicks cpu_ticks();

/// Share of all CPU time between two readings that was stolen.
double steal_share(const CpuTicks& before, const CpuTicks& after);

/// Turn library counting on for the body of a traced world. Call
/// stop_counting() after the body's last counted phase: Finalize prints
/// every rank's counter summary while counting is on.
void start_counting(const Options& options);
void stop_counting(const Options& options, const mpcx::Intracomm& comm);

// ---- environment ----------------------------------------------------------------------

/// Set an environment variable for a scope (MPCX_NODE_ID for the hybdev
/// world) and restore the previous state after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value);
  ~ScopedEnv();
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  bool had_ = false;
  std::string old_;
};

// ---- floor ----------------------------------------------------------------------------

/// The serial CG reference shared by the floor and the cg_shm leg.
struct CgProblem {
  int n = 0;
  double tol = 0.0;  ///< stop when ||r|| <= tol * ||b||
  int max_iterations = 0;
  std::vector<double> b;
  std::vector<double> x_ref;  ///< serial solution
  int ref_iterations = 0;
};

CgProblem make_cg_problem(std::uint64_t seed);

/// Serial CG on the 1D Poisson matrix (-1, 2, -1); returns iterations.
int serial_cg(const CgProblem& problem, std::vector<double>& x);

/// Machine floor: thread handoffs, loopback round trip, memcpy bandwidth
/// (traced run only), serial CG. Every value is also noted in the result.
void run_floor(const Options& options, CgProblem& cg, Report& report);

// ---- legs ---------------------------------------------------------------------------------

/// One leg of the benchmark. The benchmark interleaves the legs' epochs over
/// the whole run, so a slow stretch of the host touches every leg a
/// little instead of one leg a lot. Each epoch lasts about 0.15 s in a
/// freshly launched world, so state that lives as long as one world
/// (thread placement, connection order) varies within a run rather than
/// between runs.
class Leg {
 public:
  /// `series` names every timing series the leg's epochs fill.
  Leg(const char* name, const Options& options, Report& report,
      std::initializer_list<const char*> series);
  virtual ~Leg() = default;
  Leg(const Leg&) = delete;
  Leg& operator=(const Leg&) = delete;

  const char* name() const { return name_; }

  /// Run this leg's next epoch; in a traced run keep its spans.
  void run_epoch(double seconds);

  /// Report the leg's end-to-end metrics and, traced, its per-layer ones;
  /// write its spans out. `setup` adds setup_s from this leg's launches.
  void finish(bool setup);

 protected:
  /// One epoch in a new world; `index` counts this leg's epochs from 0.
  /// The body calls first_barrier() before anything else.
  virtual void epoch(int index, double seconds) = 0;
  virtual void report_metrics(const std::vector<trace::Rec>& spans) = 0;

  /// The world's first Barrier; rank 0 records the time from the launch
  /// of this epoch's world to its completion as one set-up sample.
  void first_barrier(const mpcx::Intracomm& comm);

  /// The samples of one series. Each series is written by one thread at a
  /// time.
  std::vector<double>& samples(const char* series) { return samples_.at(series); }

  const char* name_;
  const Options& options_;
  Report& report_;

 private:
  std::map<std::string, std::vector<double>> samples_;
  Clock::time_point launched_;
  int epochs_ = 0;
  std::int64_t span_budget_ = trace::kSpansPerLeg;
  std::vector<trace::Rec> spans_;
};

std::unique_ptr<Leg> make_cg_leg(const Options& options, const CgProblem& cg, Report& report);
std::unique_ptr<Leg> make_p2p_leg(const Options& options, Report& report);
std::unique_ptr<Leg> make_coll_leg(const Options& options, Report& report);

}  // namespace perfbench
