#include "common.hpp"

#include "core/intracomm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace perfbench {

// ---- seeded inputs ---------------------------------------------------------------

void fill_payload(std::uint64_t key, std::span<std::byte> out) {
  std::uint64_t state = key;
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t word = splitmix(state);
    std::memcpy(out.data() + i, &word, 8);
  }
  if (i < out.size()) {
    const std::uint64_t word = splitmix(state);
    std::memcpy(out.data() + i, &word, out.size() - i);
  }
}

std::uint64_t checksum(std::span<const std::byte> data) {
  constexpr std::uint64_t kMul = 0x9FB21C651E98DF25ull;
  std::uint64_t lane[4] = {1, 2, 3, 4};
  std::size_t i = 0;
  for (; i + 32 <= data.size(); i += 32) {
    for (int l = 0; l < 4; ++l) {
      std::uint64_t word = 0;
      std::memcpy(&word, data.data() + i + 8 * static_cast<std::size_t>(l), 8);
      lane[l] = (lane[l] ^ word) * kMul;
    }
  }
  std::uint64_t tail = data.size();
  for (; i < data.size(); ++i) tail = (tail ^ static_cast<std::uint64_t>(data[i])) * kMul;
  std::uint64_t h = tail;
  for (const std::uint64_t l : lane) h = (h ^ l ^ (h >> 29)) * kMul;
  return h;
}

std::vector<Payload> make_payloads(std::uint64_t key, std::size_t size, int count) {
  std::vector<Payload> out(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    Payload& p = out[static_cast<std::size_t>(k)];
    p.bytes.resize(size);
    fill_payload(derive(key, static_cast<std::uint64_t>(k)), p.bytes);
    p.sum = checksum(p.bytes);
  }
  return out;
}

// ---- statistics ------------------------------------------------------------------

namespace {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = quantile_sorted(samples, 0.5);
  s.q1 = quantile_sorted(samples, 0.25);
  s.q3 = quantile_sorted(samples, 0.75);
  return s;
}

double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, q);
}

double median_of(const std::vector<double>& samples) { return summarize(samples).median; }

// ---- report ----------------------------------------------------------------------

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::series(Group group, const std::string& name, const std::string& unit,
                    const std::vector<double>& samples, const char* stat) {
  Metric m;
  m.group = group;
  m.unit = unit;
  m.stat = stat;
  m.summary = summarize(samples);
  m.value = m.summary.median;
  if (std::strcmp(stat, "trimmed_mean") == 0 && !samples.empty()) {
    // Mean of the middle 80%: it follows a change in the mix of modes
    // smoothly, and stalls in the top tenth do not move it.
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t cut = sorted.size() / 10;
    double total = 0.0;
    for (std::size_t i = cut; i < sorted.size() - cut; ++i) total += sorted[i];
    m.value = total / static_cast<double>(sorted.size() - 2 * cut);
  }
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = m;
}

void Report::scalar(Group group, const std::string& name, const std::string& unit, double value,
                    std::size_t samples, const char* stat) {
  Metric m;
  m.group = group;
  m.unit = unit;
  m.stat = stat;
  m.value = value;
  m.summary.median = m.summary.q1 = m.summary.q3 = value;
  m.summary.n = samples;
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = m;
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  checks_[name] = {ok, detail};
}

void Report::note(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_[key] = json_number(value);
}

void Report::note(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_[key] = json_string(value);
}

std::string Report::json(const Options& options) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"workload\":" + json_string(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"seconds\":" + json_number(options.seconds) +
                    ",\"trace\":" + (options.trace ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted_.load()) +
                    ",\"failed\":" + std::to_string(failed_.load()) + ",\"checks\":{";
  bool first = true;
  for (const auto& [name, check] : checks_) {
    if (!first) out += ",";
    first = false;
    out += json_string(name) + ":{\"ok\":" + (check.first ? "true" : "false") +
           ",\"detail\":" + json_string(check.second) + "}";
  }
  out += "},\"metrics\":{";
  first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ",";
    first = false;
    out += json_string(name) + ":{\"group\":" +
           (m.group == Group::EndToEnd ? "\"end_to_end\"" : "\"per_layer\"") +
           ",\"unit\":" + json_string(m.unit) + ",\"stat\":" + json_string(m.stat) +
           ",\"value\":" + json_number(m.value) + ",\"median\":" + json_number(m.summary.median) +
           ",\"q1\":" + json_number(m.summary.q1) + ",\"q3\":" + json_number(m.summary.q3) +
           ",\"n\":" + std::to_string(m.summary.n) + "}";
  }
  out += "},\"notes\":{";
  first = true;
  for (const auto& [key, value] : notes_) {
    if (!first) out += ",";
    first = false;
    out += json_string(key) + ":" + value;
  }
  out += "}}";
  return out;
}

// ---- spans -----------------------------------------------------------------------

namespace trace {
namespace {

// Threads take the span budget in chunks, so most spans touch no shared
// cache line.
constexpr std::int64_t kChunk = 256;

struct ThreadBuf {
  std::vector<Rec> recs;
  std::vector<std::int32_t> stack;  ///< open spans, innermost last
  std::int32_t rank = -1;
  std::int64_t quota = 0;  ///< spans this thread may still store
};

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_budget{kSpansPerLeg};
std::atomic<std::uint64_t> g_dropped{0};
std::mutex g_mu;
std::vector<std::shared_ptr<ThreadBuf>> g_bufs;  // guarded by g_mu

ThreadBuf& local() {
  thread_local std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

void enable(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_rank(int rank) {
  if (enabled()) local().rank = rank;
}

Span::Span(const char* layer, const char* name, std::uint64_t op) {
  if (!enabled()) return;
  ThreadBuf& buf = local();
  const std::int32_t parent = buf.stack.empty() ? -1 : buf.stack.back();
  if (buf.quota == 0 && g_budget.fetch_sub(kChunk, std::memory_order_relaxed) > 0) {
    buf.quota = kChunk;
  }
  if (buf.quota == 0) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    index_ = -1;
    buf.stack.push_back(-1);
    return;
  }
  --buf.quota;
  Rec rec;
  rec.layer = layer;
  rec.name = name;
  rec.op = op != 0 || parent < 0 ? op : buf.recs[static_cast<std::size_t>(parent)].op;
  rec.parent = parent;
  rec.rank = buf.rank;
  index_ = static_cast<std::int32_t>(buf.recs.size());
  buf.stack.push_back(index_);
  rec.t0 = now_ns();
  buf.recs.push_back(rec);
}

Span::~Span() {
  if (index_ == -2) return;
  const std::int64_t t1 = now_ns();
  ThreadBuf& buf = local();
  buf.stack.pop_back();
  if (index_ >= 0) buf.recs[static_cast<std::size_t>(index_)].t1 = t1;
}

std::int64_t budget() { return std::max<std::int64_t>(g_budget.load(), 0); }
void set_budget(std::int64_t spans) { g_budget.store(spans); }

void drain_into(std::vector<Rec>& out) {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buf : g_bufs) {
    const auto base = static_cast<std::int32_t>(out.size());
    for (Rec rec : buf->recs) {
      if (rec.parent >= 0) rec.parent += base;
      out.push_back(rec);
    }
    buf->recs.clear();
    buf->quota = 0;
  }
  // Buffers of threads that have exited are held only by the registry.
  std::erase_if(g_bufs, [](const auto& buf) { return buf.use_count() == 1; });
}

std::uint64_t dropped() { return g_dropped.load(); }

std::vector<double> durations_us(const std::vector<Rec>& spans, const char* layer,
                                 const char* name) {
  std::vector<double> out;
  for (const Rec& rec : spans) {
    if (std::strcmp(rec.layer, layer) == 0 && std::strcmp(rec.name, name) == 0) {
      out.push_back(static_cast<double>(rec.t1 - rec.t0) / 1e3);
    }
  }
  return out;
}

std::vector<double> self_us(const std::vector<Rec>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].t1 - spans[i].t0) / 1e3;
  }
  for (const Rec& rec : spans) {
    if (rec.parent >= 0) {
      self[static_cast<std::size_t>(rec.parent)] -= static_cast<double>(rec.t1 - rec.t0) / 1e3;
    }
  }
  return self;
}

void note_layer_budget(Report& report, const char* leg, const std::vector<Rec>& spans) {
  const std::vector<double> self = self_us(spans);
  std::map<std::string, std::pair<double, std::size_t>> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& entry = by_layer[spans[i].layer];
    entry.first += self[i];
    ++entry.second;
  }
  for (const auto& [layer, entry] : by_layer) {
    const std::string prefix = std::string("budget.") + leg + "." + layer;
    report.note(prefix + ".self_us_total", entry.first);
    report.note(prefix + ".spans", static_cast<double>(entry.second));
  }
}

bool append_file(const std::string& path, const char* leg, const std::vector<Rec>& spans) {
  static std::size_t id_base = 0;  // span ids stay unique across legs
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Rec& r = spans[i];
    const long long parent = r.parent < 0 ? -1 : static_cast<long long>(id_base) + r.parent;
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%lld,\"leg\":\"%s\",\"layer\":\"%s\",\"name\":\"%s\","
                 "\"op\":%llu,\"rank\":%d,\"t0_ns\":%lld,\"t1_ns\":%lld}\n",
                 id_base + i, parent, leg, r.layer, r.name,
                 static_cast<unsigned long long>(r.op), r.rank, static_cast<long long>(r.t0),
                 static_cast<long long>(r.t1));
  }
  id_base += spans.size();
  return std::fclose(f) == 0;
}

}  // namespace trace

// ---- legs ------------------------------------------------------------------------

Leg::Leg(const char* name, const Options& options, Report& report,
         std::initializer_list<const char*> series)
    : name_(name), options_(options), report_(report) {
  for (const char* s : series) samples_[s];
  samples_["setup_s"];
}

void Leg::run_epoch(double seconds) {
  if (options_.trace) trace::set_budget(span_budget_);
  launched_ = Clock::now();
  epoch(epochs_++, seconds);
  if (options_.trace) {
    trace::drain_into(spans_);
    span_budget_ = trace::budget();
  }
}

void Leg::first_barrier(const mpcx::Intracomm& comm) {
  comm.Barrier();
  if (comm.Rank() == 0) samples("setup_s").push_back(seconds_since(launched_));
}

void Leg::finish(bool setup) {
  report_.note(std::string("epochs.") + name_, static_cast<double>(epochs_));
  if (setup) {
    // World set-up falls into modes a millisecond apart (a peer that is not
    // yet initialized is polled every millisecond), so the median of the
    // launches jumps between modes from run to run.
    report_.series(Group::EndToEnd, "setup_s", "s", samples("setup_s"), "trimmed_mean");
  }
  report_metrics(spans_);
  if (!options_.trace) return;
  trace::note_layer_budget(report_, name_, spans_);
  if (!options_.trace_out.empty() && !trace::append_file(options_.trace_out, name_, spans_)) {
    report_.check(std::string("spans_written.") + name_, false,
                  "cannot write " + options_.trace_out);
  }
}

// ---- library counters ------------------------------------------------------------------

Counts snapshot_counts() {
  Counts counts;
  for (const auto& entry : mpcx::prof::Registry::global().snapshot()) {
    std::array<std::uint64_t, mpcx::prof::kCtrCount>* block = nullptr;
    if (entry.label.rfind("core/", 0) == 0) {
      block = &counts.core;
    } else if (entry.label == "tcpdev") {
      block = &counts.tcpdev;
    } else if (entry.label == "shmdev") {
      block = &counts.shmdev;
    } else if (entry.label == "hybdev") {
      block = &counts.hybdev;
    }
    if (block == nullptr) continue;
    for (std::size_t i = 0; i < mpcx::prof::kCtrCount; ++i) (*block)[i] += entry.values[i];
  }
  return counts;
}

CpuTicks cpu_ticks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    ticks.steal = v[7];
    for (const unsigned long long x : v) ticks.total += x;
  }
  std::fclose(f);
  return ticks;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  return ratio(static_cast<double>(after.steal - before.steal),
               static_cast<double>(after.total - before.total));
}

void start_counting(const Options& options) {
  if (options.trace) mpcx::prof::set_stats_enabled(true);
}

void stop_counting(const Options& options, const mpcx::Intracomm& comm) {
  if (!options.trace) return;
  comm.Barrier();
  mpcx::prof::set_stats_enabled(false);
}

Counts operator-(const Counts& after, const Counts& before) {
  Counts d;
  for (std::size_t i = 0; i < mpcx::prof::kCtrCount; ++i) {
    d.core[i] = after.core[i] - before.core[i];
    d.tcpdev[i] = after.tcpdev[i] - before.tcpdev[i];
    d.shmdev[i] = after.shmdev[i] - before.shmdev[i];
    d.hybdev[i] = after.hybdev[i] - before.hybdev[i];
  }
  return d;
}

Counts& operator+=(Counts& total, const Counts& delta) {
  for (std::size_t i = 0; i < mpcx::prof::kCtrCount; ++i) {
    total.core[i] += delta.core[i];
    total.tcpdev[i] += delta.tcpdev[i];
    total.shmdev[i] += delta.shmdev[i];
    total.hybdev[i] += delta.hybdev[i];
  }
  return total;
}

// ---- environment ----------------------------------------------------------------------

ScopedEnv::ScopedEnv(const char* name, const char* value) : name_(name) {
  if (const char* old = std::getenv(name)) {
    had_ = true;
    old_ = old;
  }
  ::setenv(name, value, 1);
}

ScopedEnv::~ScopedEnv() {
  if (had_) {
    ::setenv(name_.c_str(), old_.c_str(), 1);
  } else {
    ::unsetenv(name_.c_str());
  }
}

}  // namespace perfbench
