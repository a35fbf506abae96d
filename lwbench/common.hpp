// Shared pieces of the lwmpi benchmark: run arguments, the result report,
// CPU pinning, per-thread usage, seeded inputs, span stamps and statistics.
//
// Every layer is measured from outside the library: spans around calls into
// public functions, BuildConfig knockouts, pvar/net_stat counters, and the
// cost::Meter modeled counts. Nothing here reaches into src/ internals.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "runtime/backoff.hpp"
#include "runtime/world.hpp"

namespace lwbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Metrics in insertion order plus the attempted/failed operation counts.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempted(std::uint64_t n) { attempted_ += n; }
  // Count `n` failed operations; the first few reasons go to stderr.
  void fail(const std::string& why, std::uint64_t n = 1);
  // Check `ok` for one more operation.
  void check(bool ok, const std::string& why) {
    attempted_ += 1;
    if (!ok) fail(why);
  }
  std::uint64_t failed() const { return failed_; }
  // Value of a metric already reported (0 when absent).
  double value(const std::string& name) const;

  // Human-readable table of every metric.
  void print_table() const;
  // The one-line result object the benchmark ends its stdout with.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int reasons_printed_ = 0;
};

// Per-rank-thread tally of checked operations, merged into the Report after
// World::run returns (Report itself is not shared between threads).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string why;
  void check(bool ok, const char* w) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (why.empty()) why = w;
    }
  }
  void merge_into(Report& rep) const {
    rep.attempted(attempted);
    if (failed != 0) rep.fail(why, failed);
  }
};

// After a world's run: no rank holds a live request and every packet
// injected towards a rank was delivered to it. One check per rank.
void check_drained(lwmpi::World& w, Report& rep);

// --- time ------------------------------------------------------------------
inline std::uint64_t now_ns() { return lwmpi::rt::now_ns(); }

// Cost of one now_ns() stamp, calibrated by timing a tight loop of stamps.
// A span (two stamps around a call) over-reads by about one stamp, which is
// what every span subtracts.
double calibrate_stamp_ns();

// --- CPUs and threads -----------------------------------------------------
// CPUs this process may run on, in ascending order.
const std::vector<int>& allowed_cpus();
// Pin the calling thread, one of `threads` benchmark threads, to its own
// CPU. The highest-numbered allowed CPUs are used first: the lowest ones take
// most device interrupts. False on failure.
bool pin_thread(int slot, int threads);
// Let the calling thread run on any allowed CPU again.
void unpin_thread();

// Per-thread scheduler usage from getrusage(RUSAGE_THREAD) and the thread
// CPU clock, for context switches and CPU share over an interval.
struct ThreadUsage {
  std::uint64_t voluntary = 0;
  std::uint64_t involuntary = 0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  static ThreadUsage now();
  ThreadUsage operator-(const ThreadUsage& o) const {
    return {voluntary - o.voluntary, involuntary - o.involuntary, cpu_s - o.cpu_s,
            wall_s - o.wall_s};
  }
  std::uint64_t switches() const { return voluntary + involuntary; }
  double cpu_share() const { return wall_s > 0 ? cpu_s / wall_s : 0.0; }
};

// Peak resident set size of the process, in MiB.
double peak_rss_mb();

// --- seeded inputs ---------------------------------------------------------
// splitmix64: the benchmark's only source of input randomness.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};
// Deterministic 64-bit word for payload position `i` of stream `key`.
inline std::uint64_t payload_word(std::uint64_t key, std::uint64_t i) {
  Rng r(key ^ (i * 0xD1B54A32D192ED03ull));
  return r.next();
}

// --- statistics ------------------------------------------------------------
// Quantile with linear interpolation between closest ranks; v is copied.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Set-up time sampled through a run: a helper thread, free to run on any
// allowed CPU, times `make()` at start and then every 0.5 s until stop(), so
// the samples see the same host conditions as the measured ops rather than
// one moment. `make` returns what it built; its destruction is not timed.
class SetupSampler {
 public:
  template <typename F>
  explicit SetupSampler(F make)
      : thread_([this, make](std::stop_token st) {
          unpin_thread();
          try {
            for (;;) {
              const std::uint64_t t0 = now_ns();
              const auto built = make();
              samples_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
              std::unique_lock<std::mutex> lk(mu_);
              cv_.wait_for(lk, st, std::chrono::milliseconds(500), [] { return false; });
              if (st.stop_requested()) return;
            }
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  SetupSampler(const SetupSampler&) = delete;
  SetupSampler& operator=(const SetupSampler&) = delete;

  // Stop sampling; the 90th percentile of the samples, in seconds. Rethrows
  // what a set-up threw.
  double stop() {
    thread_.request_stop();
    thread_.join();
    if (error_) std::rethrow_exception(error_);
    return quantile(samples_, 0.90);
  }

 private:
  std::vector<double> samples_;  // written by thread_, read after the join
  std::exception_ptr error_;     // likewise
  std::mutex mu_;
  std::condition_variable_any cv_;
  std::jthread thread_;  // last: stops and joins before the members it uses go
};

// --- end-to-end metrics --------------------------------------------------
// Every untraced run reports the same end-to-end metrics; "op" is the
// workload's unit of work (a 1-byte message, a CG iteration, a halo step):
//   op_p90_ns  90th percentile of the per-op time samples
//   setup_s    p90 of set-up times sampled through the run (SetupSampler)
// p10, p50 and p99 are printed but not reported. On a host whose neighbours
// load its cores for seconds at a time, CPU-bound paths flip between two
// speeds ~1.5x apart: the median flips with them from run to run, and p99
// follows rare multi-rank stalls, while p90 stays with the prevailing state.
// `name` labels the printed summary with the workload's own metric name.
void emit_e2e(Report& rep, const char* name, double ops, double measured_s,
              const std::function<double(double)>& op_ns_quantile, double setup_s);

// Histogram with 1 ns buckets, for the millions of ping-pong samples.
class NsHistogram {
 public:
  void add(std::uint64_t ns);
  std::uint64_t count() const { return n_; }
  double quantile(double q) const;

 private:
  static constexpr std::size_t kBuckets = 1 << 18;  // 262 us of 1 ns buckets
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets, 0);
  std::vector<std::uint64_t> over_;  // exact values past the last bucket
  std::uint64_t n_ = 0;
};

// --- host fingerprint ------------------------------------------------------
// One JSON object: cores, CPU model, load average, stamp cost.
std::string host_fingerprint(double stamp_ns);

}  // namespace lwbench
