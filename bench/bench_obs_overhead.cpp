// Observability overhead on the latency-critical path.
//
// The always-on counter tier (obs/counters.hpp) claims to be near-free: one
// predictable branch plus one relaxed fetch_add per hook -- and since PR 5 the
// same build flag also enables the latency-histogram tier (obs/histogram.hpp):
// TSC timestamps at post/match/complete plus a log2-bucket update for the
// 1-in-2^lat_sample_shift messages the sampling gate arms (the rest pay one
// branch and a counter increment at the post site).
// This bench measures the combined claim on the 1-byte ch4 self ping-pong --
// the shortest end-to-end path through isend/inject/poll/match/recv, i.e. the
// path where a fixed per-hook tax shows up largest -- and asserts the
// instrumented build stays within 3% of the stripped one.
//
// Since the causal tier (obs/causal.hpp), net::Fabric::inject can stamp a
// piggybacked causal header: a send TSC read, plus a Lamport tick that poll
// merges. The stamp is paid only where something reads it: the Lamport clock
// only when the build traces, and send_ns only on the messages the sender's
// latency-sampling gate arms. Both ping-pong configurations here run with
// trace off, so their ratio includes the sampled stamps the instrumented
// side's histogram gate arms.
//
// The ping-pong passes cannot see a per-message tax on the message-rate path,
// where the stack runs without a receiver. The message-rate pass therefore
// runs the Figure-6 blackhole loops -- windowed ISEND + waitall and
// ISEND_ALL_OPTS + comm_waitall -- in the default configuration against one
// with every observability tier off (counters and latency sampling, and with
// them the sampled stamp; profiler; recorder; trace), and gates each loop's
// tax at <5%.
//
// Methodology for a noisy shared host: the workload is single-rank
// (sender == receiver, no thread handoff, no scheduler dependence). Two
// additive noise sources have to be defeated separately. Temporal noise
// (frequency drift, co-tenant interference) wanders on timescales much
// longer than a measurement slice, so the two configurations run in short
// alternating slices driven from one thread and each keeps its minimum.
// Layout noise (allocation/page placement making one particular World
// instance a few percent faster or slower for its whole lifetime) is
// defeated by repeating that dance over several independently-constructed
// instance pairs; each pair yields one overhead ratio from its two slice
// minima. A real per-hook tax is structural -- it inflates *every* pair --
// while noise only hits some, so the acceptance gate judges a low-order
// statistic: the lower-tercile ratio across pairs. The raw minimum is too
// deflatable (one off-side slowdown fakes a large negative overhead); the
// median needs only half the pairs inflated to false-positive. The tercile
// needs most pairs inflated to trip and several deflated to under-report.
// Since the telemetry plane (obs/sampler.hpp), a background sampler thread
// may snapshot every counter this bench instruments at a configurable
// interval. The sampler reads relaxed atomics only -- the claim is that an
// attached sampler at the default cadence costs the hot path *nothing
// structural* (its reads share no locks with the engine), so its gate is
// tighter: the sampled configuration must stay within 1% of the plain one.
// The telemetry pass emits its own BENCH_telemetry.json plus a Prometheus
// text-exposition artifact that scripts/run_tier1.sh lints with
// `bench_check --promlint`.
// Since the aggregate profiler (obs/profiler.hpp), every top-level MPI entry
// point opens a ProfScope: a thread-local depth check, a TSC stamp pair, and
// three relaxed counter updates per user call when a profiler is attached --
// one null test when not. The profiler pass pairs counters-on worlds with and
// without an attached profiler and gates the tax at <2% (between the counter
// tier's 3% and the passive sampler's 1%: ProfScope does strictly more work
// per call than a counter hook but runs only at the user-call boundary, not
// per packet). It emits BENCH_prof.json plus a profile.json artifact that
// run_tier1.sh / the regression sentinel validate with
// `bench_check --profcheck`.
// Since the flight recorder (obs/recorder.hpp), every top-level entry point
// additionally opens a RecScope when recording is on: a thread-local depth
// check plus a 16-byte ring store, and -- at the default 1-in-2^8 sampling --
// occasionally a TSC stamp pair. The record pass gates that tax at <2% (same
// reasoning as the profiler: per user call, not per packet) and emits
// BENCH_record.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "obs/cvar.hpp"
#include "obs/profiler.hpp"
#include "obs/pvar.hpp"
#include "obs/sampler.hpp"

using namespace lwmpi;

namespace {

constexpr int kWarmup = 2000;
constexpr int kSliceIters = 10000;
constexpr int kSlices = 12;  // alternating slices per instance pair
constexpr int kRounds = 7;   // independently-constructed instance pairs
// Message-rate pass bound (default configuration vs all observability off).
constexpr double kRateBoundPct = 5.0;
// Sanitizer builds instrument every atomic access and run the rate loops ~20x
// slower, so their ratio prices the instrumentation, not the tiers: there the
// message-rate pass reports without gating.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kGateRates = false;
#else
constexpr bool kGateRates = true;
#endif

// A 1-rank world whose engine the bench drives directly (self ping-pong:
// isend -> recv -> wait, no thread handoff). `sampled` additionally attaches
// a telemetry sampler at the default cadence for the instance's lifetime;
// `prof` attaches the aggregate profiler (ProfScope live on every call).
class SelfWorld {
 public:
  explicit SelfWorld(bool counters, bool sampled = false, bool prof = false,
                     bool record = false)
      : w_(1, opts(counters, prof, record)), e_(w_.engine(0)) {
    if (sampled) sampler_ = std::make_unique<obs::Sampler>(w_);
    for (int i = 0; i < kWarmup; ++i) iter();
  }

  // Nanoseconds per iteration over one measurement slice.
  double slice_ns() {
    const std::uint64_t t0 = rt::now_ns();
    for (int i = 0; i < kSliceIters; ++i) iter();
    return static_cast<double>(rt::now_ns() - t0) / kSliceIters;
  }

 private:
  static WorldOptions opts(bool counters, bool prof, bool record) {
    WorldOptions o;
    o.profile = net::loopback();
    o.device = DeviceKind::Ch4;
    o.ranks_per_node = 1;
    o.build.counters = counters;
    o.build.trace = false;  // tracing off; the causal stamp still runs (see top)
    o.prof = prof;
    // Always-on recorder configuration: default ring and sampling shift,
    // no flush prefix (the rings are live but never written out).
    o.record = record;
    return o;
  }
  void iter() {
    Request r = kRequestNull;
    e_.isend(&out_, 1, kChar, 0, 0, kCommWorld, &r);
    e_.recv(&in_, 1, kChar, 0, 0, kCommWorld, nullptr);
    e_.wait(&r, nullptr);
  }

  World w_;
  // Declared after w_, destroyed before it (the sampler references the
  // world; see obs/sampler.hpp).
  std::unique_ptr<obs::Sampler> sampler_;
  Engine& e_;
  char out_ = 1, in_ = 0;
};

// A 1-rank blackhole world driving one Figure-6 message-rate loop: windowed
// 1-byte ISEND + waitall, or ISEND_ALL_OPTS + comm_waitall on a predefined
// communicator. `observed` keeps the default configuration; otherwise every
// observability tier is off.
class RateWorld {
 public:
  RateWorld(bool observed, bool all_opts)
      : w_(1, opts(observed)), e_(w_.engine(0)), all_opts_(all_opts) {
    e_.comm_dup_predefined(kCommWorld, kComm1);
    for (int i = 0; i < kWarmup / bench::kRateWindow + 1; ++i) window();
  }

  // Nanoseconds per message over one measurement slice.
  double slice_ns() {
    constexpr int kWindows = kSliceIters / bench::kRateWindow;
    const std::uint64_t t0 = rt::now_ns();
    for (int i = 0; i < kWindows; ++i) window();
    return static_cast<double>(rt::now_ns() - t0) / (kWindows * bench::kRateWindow);
  }

 private:
  static WorldOptions opts(bool observed) {
    WorldOptions o;
    o.profile = net::infinite();
    o.device = DeviceKind::Ch4;
    o.ranks_per_node = 1;
    // Trace, profiler and recorder are off by default; counters off also
    // turns off the latency histograms and with them the sampled send stamp.
    o.build.counters = observed;
    return o;
  }
  void window() {
    if (all_opts_) {
      for (int i = 0; i < bench::kRateWindow; ++i) {
        e_.isend_all_opts(&out_, 1, kChar, 0, kComm1);
      }
      e_.comm_waitall(kComm1);
      return;
    }
    for (Request& r : reqs_) e_.isend(&out_, 1, kChar, 0, 0, kCommWorld, &r);
    e_.waitall(reqs_, {});
  }

  World w_;
  Engine& e_;
  bool all_opts_;
  std::vector<Request> reqs_ = std::vector<Request>(bench::kRateWindow, kRequestNull);
  char out_ = 1;
};

// A short counters-on run whose stats_report lands in the JSON artifact, so
// the emitted file doubles as an example of the report format. The receive
// side's latency percentiles are also exported as top-level bench fields,
// read back through the pvar registry like any external tool would.
std::string sample_stats_json(bench::JsonResult& jr) {
  WorldOptions o;
  o.profile = net::loopback();
  o.device = DeviceKind::Ch4;
  o.ranks_per_node = 1;
  o.build.lat_sample_shift = 0;  // stamp everything: the artifact is an example
  World w(2, o);
  w.run([&](Engine& e) {
    char b = 1;
    if (e.world_rank() == 0) {
      for (int i = 0; i < 100; ++i) e.send(&b, 1, kChar, 1, i, kCommWorld);
    } else {
      for (int i = 0; i < 100; ++i) e.recv(&b, 1, kChar, 0, i, kCommWorld, nullptr);
    }
  });
  obs::PvarSession s;
  obs::LWMPI_T_pvar_session_create(w.engine(1), &s);
  for (const char* name : {"lat_recv_eager_p50_ns", "lat_recv_eager_p99_ns",
                           "lat_recv_eager_max_ns"}) {
    std::uint64_t v = 0;
    obs::LWMPI_T_pvar_read(s, obs::LWMPI_T_pvar_index(name), &v);
    jr.add(name, static_cast<double>(v), "ns");
  }
  obs::LWMPI_T_pvar_session_free(&s);
  return w.stats_report(true);
}

// The ping-pong instrumentation pairings this bench gates. Counters compares
// stripped vs counter-instrumented builds; Sampler, Prof and Record run
// counters on both sides and attach the named subsystem to the "on" side only.
enum class Pair { Counters, Sampler, Prof, Record };

// The world factory for one ping-pong pairing: make(false) builds the "off"
// side, make(true) the "on" side.
auto pingpong_pair(Pair pair) {
  return [pair](bool on) {
    return on ? std::make_unique<SelfWorld>(true, pair == Pair::Sampler, pair == Pair::Prof,
                                            pair == Pair::Record)
              : std::make_unique<SelfWorld>(pair != Pair::Counters);
  };
}

// The world factory for one message-rate loop: default configuration vs all
// observability off.
auto rate_pair(bool all_opts) {
  return [all_opts](bool on) { return std::make_unique<RateWorld>(on, all_opts); };
}

// One gate's result: the best slice on each side, the lower-tercile overhead
// across instance pairs (the gate statistic -- a structural tax shows up in
// all of them) and the median (the typical value).
struct Gate {
  double best_off = std::numeric_limits<double>::infinity();
  double best_on = std::numeric_limits<double>::infinity();
  double pct = 0.0;
  double median_pct = 0.0;
};

// One full measurement pass: kRounds instance pairs from `make`.
template <typename Make>
void measure_pct(Gate& g, Make make) {
  std::vector<double> ratios;
  ratios.reserve(kRounds);
  for (int round = 0; round < kRounds; ++round) {
    auto off_world = make(false);
    auto on_world = make(true);
    double round_off = std::numeric_limits<double>::infinity();
    double round_on = std::numeric_limits<double>::infinity();
    for (int s = 0; s < kSlices; ++s) {
      round_off = std::min(round_off, off_world->slice_ns());
      round_on = std::min(round_on, on_world->slice_ns());
    }
    ratios.push_back(round_on / round_off);
    g.best_off = std::min(g.best_off, round_off);
    g.best_on = std::min(g.best_on, round_on);
  }
  std::sort(ratios.begin(), ratios.end());
  g.median_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
  g.pct = (ratios[ratios.size() / 3] - 1.0) * 100.0;
}

// Measure a gate and judge it against `bound_pct`. An over-bound pass on a
// shared host is more often a sustained interference window than a
// regression; a real regression reproduces, so re-measure up to `retries`
// times and keep the best pass before judging. Prints the gate's summary.
template <typename Make>
Gate run_gate(Make make, double bound_pct, int retries, const char* off_label,
              const char* on_label, const char* unit) {
  Gate g;
  measure_pct(g, make);
  for (int retry = 0; retry < retries && g.pct >= bound_pct; ++retry) {
    Gate again;
    measure_pct(again, make);
    g.best_off = std::min(g.best_off, again.best_off);
    g.best_on = std::min(g.best_on, again.best_on);
    if (again.pct < g.pct) {
      g.pct = again.pct;
      g.median_pct = again.median_pct;
    }
  }
  std::printf("%-28s %10.1f %s (best of %dx%d slices)\n", off_label, g.best_off, unit,
              kRounds, kSlices);
  std::printf("%-28s %10.1f %s (best of %dx%d slices)\n", on_label, g.best_on, unit,
              kRounds, kSlices);
  std::printf("%-28s %+9.2f %%  (median %+.2f %%)  [acceptance: < %g%%]\n", "overhead",
              g.pct, g.median_pct, bound_pct);
  return g;
}

// Telemetry-plane example artifact: a short 2-rank sampled run whose
// Prometheus exposition is written next to the bench JSON (tier-1 lints it
// with `bench_check --promlint`). Returns the exposition path, and reports
// the run's tick/alert counts through the JSON result.
std::string write_prom_artifact(bench::JsonResult& jr) {
  const std::int64_t saved_interval = obs::cvar(obs::Cv::SamplerIntervalMs);
  obs::cvar_set(obs::Cv::SamplerIntervalMs, 5);
  WorldOptions o;
  o.profile = net::loopback();
  o.device = DeviceKind::Ch4;
  o.ranks_per_node = 1;
  World w(2, o);
  std::uint64_t ticks = 0;
  {
    obs::Sampler sampler(w);
    w.run([&](Engine& e) {
      char b = 1;
      if (e.world_rank() == 0) {
        for (int i = 0; i < 2000; ++i) e.send(&b, 1, kChar, 1, i % 64, kCommWorld);
      } else {
        for (int i = 0; i < 2000; ++i) e.recv(&b, 1, kChar, 0, i % 64, kCommWorld, nullptr);
      }
    });
    sampler.sample_now();
    ticks = sampler.ticks();

    std::string path = "telemetry.prom";
    if (const char* dir = std::getenv("LWMPI_BENCH_DIR"); dir != nullptr && *dir != '\0') {
      path = std::string(dir) + "/" + path;
    }
    std::ofstream f(path, std::ios::trunc);
    if (f) f << sampler.prometheus();
    jr.add("prom_sample_ticks", static_cast<double>(ticks), "count");
    obs::cvar_set(obs::Cv::SamplerIntervalMs, saved_interval);
    return path;
  }
}

// Profiler-tier example artifact: a short phased 2-rank profiled run whose
// profile.json lands next to the bench JSON (tier-1 validates it with
// `bench_check --profcheck`). Reports the run's aggregate counts through the
// JSON result and returns the artifact path.
std::string write_profile_artifact(bench::JsonResult& jr) {
  std::string path = "profile.json";
  if (const char* dir = std::getenv("LWMPI_BENCH_DIR"); dir != nullptr && *dir != '\0') {
    path = std::string(dir) + "/" + path;
  }
  WorldOptions o;
  o.profile = net::loopback();
  o.device = DeviceKind::Ch4;
  o.ranks_per_node = 1;
  o.prof = true;
  o.prof_path = path;
  {
    World w(2, o);
    w.phase_push("exchange");
    w.run([](Engine& e) {
      char b = 1;
      if (e.world_rank() == 0) {
        for (int i = 0; i < 500; ++i) e.send(&b, 1, kChar, 1, i % 16, kCommWorld);
      } else {
        for (int i = 0; i < 500; ++i) e.recv(&b, 1, kChar, 0, i % 16, kCommWorld, nullptr);
      }
    });
    w.phase_pop();
    const obs::Profiler* p = w.profiler();
    jr.add("prof_matrix_packet_bytes",
           static_cast<double>(p->matrix().total_packet_bytes()), "count");
    const int exchange = w.profiler()->intern_phase("exchange");
    jr.add("prof_exchange_sends",
           static_cast<double>(p->rank(0).site_count(exchange, obs::Callsite::Send)),
           "count");
    // ~World writes the artifact at teardown.
  }
  return path;
}

}  // namespace

int main() {
  bench::print_header(
      "observability counter + histogram overhead (1-byte ch4 self ping-pong)");
  const Gate ctr =
      run_gate(pingpong_pair(Pair::Counters), 3.0, 2, "counters off", "counters on", "ns/iter");

  bench::JsonResult jr("obs");
  jr.add("pingpong_counters_off_ns", ctr.best_off, "ns/iter");
  jr.add("pingpong_counters_on_ns", ctr.best_on, "ns/iter");
  jr.add("overhead_pct", ctr.pct, "%");
  jr.add("overhead_median_pct", ctr.median_pct, "%");
  jr.add_raw("stats", sample_stats_json(jr));
  jr.write();

  // --- Telemetry-sampler gate: attached sampler at default cadence < 1% ----
  bench::print_header("telemetry sampler overhead (counters on, sampler attached vs not)");
  const Gate tel = run_gate(pingpong_pair(Pair::Sampler), 1.0, 2, "sampler detached",
                            "sampler attached", "ns/iter");

  bench::JsonResult telj("telemetry");
  telj.add("pingpong_sampler_off_ns", tel.best_off, "ns/iter");
  telj.add("pingpong_sampler_on_ns", tel.best_on, "ns/iter");
  telj.add("sampler_overhead_pct", tel.pct, "%");
  telj.add("sampler_overhead_median_pct", tel.median_pct, "%");
  const std::string prom_path = write_prom_artifact(telj);
  telj.write();
  std::printf("prometheus exposition: %s\n", prom_path.c_str());

  // --- Profiler gate: attached aggregate profiler < 2% ----------------------
  bench::print_header("aggregate profiler overhead (counters on, profiler attached vs not)");
  const Gate prof = run_gate(pingpong_pair(Pair::Prof), 2.0, 2, "profiler detached",
                             "profiler attached", "ns/iter");

  bench::JsonResult profj("prof");
  profj.add("pingpong_prof_off_ns", prof.best_off, "ns/iter");
  profj.add("pingpong_prof_on_ns", prof.best_on, "ns/iter");
  profj.add("prof_overhead_pct", prof.pct, "%");
  profj.add("prof_overhead_median_pct", prof.median_pct, "%");
  const std::string profile_path = write_profile_artifact(profj);
  profj.write();
  std::printf("profile artifact: %s\n", profile_path.c_str());

  // --- Recorder gate: live flight-recorder rings < 2% -----------------------
  // One more retry than the earlier gates: this one runs after the longest
  // stretch of scheduler/thermal drift.
  bench::print_header("flight recorder overhead (counters on, recording vs not)");
  const Gate rec = run_gate(pingpong_pair(Pair::Record), 2.0, 3, "recorder off",
                            "recorder on", "ns/iter");

  bench::JsonResult recj("record");
  recj.add("pingpong_record_off_ns", rec.best_off, "ns/iter");
  recj.add("pingpong_record_on_ns", rec.best_on, "ns/iter");
  recj.add("record_overhead_pct", rec.pct, "%");
  recj.add("record_overhead_median_pct", rec.median_pct, "%");
  recj.write();

  // --- Message-rate gate: default config vs all observability off < 5% -----
  bench::print_header("message-rate observability tax (blackhole, default vs all off)");
  const int rate_retries = kGateRates ? 3 : 0;
  const Gate isend = run_gate(rate_pair(false), kRateBoundPct, rate_retries, "ISEND all off",
                              "ISEND default", "ns/msg");
  const Gate all_opts = run_gate(rate_pair(true), kRateBoundPct, rate_retries,
                                 "ALL_OPTS all off", "ALL_OPTS default", "ns/msg");
  if (!kGateRates) std::printf("(sanitizer build: message-rate pass is report-only)\n");

  bench::JsonResult ratej("obs_rate");
  ratej.add("isend_obs_off_ns", isend.best_off, "ns/msg");
  ratej.add("isend_default_ns", isend.best_on, "ns/msg");
  ratej.add("isend_overhead_pct", isend.pct, "%");
  ratej.add("isend_overhead_median_pct", isend.median_pct, "%");
  ratej.add("all_opts_obs_off_ns", all_opts.best_off, "ns/msg");
  ratej.add("all_opts_default_ns", all_opts.best_on, "ns/msg");
  ratej.add("all_opts_overhead_pct", all_opts.pct, "%");
  ratej.add("all_opts_overhead_median_pct", all_opts.median_pct, "%");
  ratej.write();

  const bool rates_ok =
      !kGateRates || (isend.pct < kRateBoundPct && all_opts.pct < kRateBoundPct);
  return ctr.pct < 3.0 && tel.pct < 1.0 && prof.pct < 2.0 && rec.pct < 2.0 && rates_ok ? 0 : 1;
}
