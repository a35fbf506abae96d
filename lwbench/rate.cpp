// Blackhole message-rate workloads (the paper's Figures 5/6 methodology on
// the shipped configuration): one rank on net::infinite(), ch4, 1-byte
// messages issued in windows of 256 and completed per window. The stack runs
// in full; the fabric drops every packet at the injection boundary.
//
// Driven from the benchmark's own (pinned) thread rather than World::run, so
// the traced part can interleave slices of several worlds -- the knockout
// ladder -- on one CPU, pairing them against drift.
#include <array>
#include <cstdio>
#include <memory>

#include "core/engine.hpp"
#include "cost/meter.hpp"
#include "runtime/world.hpp"
#include "workloads.hpp"

namespace lwbench {
namespace {

using namespace lwmpi;

constexpr int kWindow = 256;       // messages between completion calls
constexpr int kSliceWindows = 16;  // 4096 messages per timed slice
constexpr int kWinBytes = 64;      // PUT target window
constexpr std::size_t kPayload = 4099;  // seeded payload bytes, cycled
constexpr int kSpanEvery = 64;     // traced slices stamp 1 call in 64

struct Spans {
  double stamp_ns = 0.0;
  std::vector<double> call_ns;  // sampled spans around single calls
  std::vector<double> sync_ns;  // spans around the per-window completion, per op
};

// One blackhole world configured for one call and build.
class RateRig {
 public:
  RateRig(RateOp op, BuildConfig build, const std::vector<std::uint8_t>& payload)
      : op_(op), payload_(payload), reqs_(kWindow, kRequestNull) {
    WorldOptions o;
    o.profile = net::infinite();
    o.device = DeviceKind::Ch4;
    o.build = build;
    o.ranks_per_node = 1;
    world_ = std::make_unique<World>(1, o);
    e_ = &world_->engine(0);
    if (op_ == RateOp::AllOpts) setup_err_ = e_->comm_dup_predefined(kCommWorld, kComm1);
    if (op_ == RateOp::Put) {
      winmem_.assign(kWinBytes, 0);
      setup_err_ = e_->win_create(winmem_.data(), winmem_.size(), 1, kCommWorld, &win_);
      if (setup_err_ == Err::Success) setup_err_ = e_->win_fence(win_);
    }
    dropped0_ = world_->fabric().dropped();
  }
  ~RateRig() {
    if (win_ != kWinNull) {
      e_->win_fence(win_);
      e_->win_free(&win_);
    }
  }
  RateRig(const RateRig&) = delete;
  RateRig& operator=(const RateRig&) = delete;

  bool setup_ok() const { return setup_err_ == Err::Success; }

  // One timed slice of kSliceWindows windows; returns ns per message and
  // checks the slice's outputs into `rep`.
  double slice(Report& rep, Spans* sp) {
    switch (op_) {
      case RateOp::Isend: return sp ? run<RateOp::Isend, true>(rep, sp)
                                    : run<RateOp::Isend, false>(rep, sp);
      case RateOp::AllOpts: return sp ? run<RateOp::AllOpts, true>(rep, sp)
                                      : run<RateOp::AllOpts, false>(rep, sp);
      case RateOp::Put: return sp ? run<RateOp::Put, true>(rep, sp)
                                  : run<RateOp::Put, false>(rep, sp);
    }
    return 0.0;
  }

  // Modeled instructions (cost::Meter) of one call on this world's path.
  std::uint64_t metered_one() {
    cost::Meter m;
    {
      cost::ScopedMeter arm(m);
      issue(op_, &payload_[0], 0);
    }
    complete(op_);
    if (op_ != RateOp::Put) ++dropped0_;  // the metered message is not a slice's
    return m.total();
  }

 private:
  Err issue(RateOp op, const std::uint8_t* b, int i) {
    switch (op) {
      case RateOp::Isend:
        return e_->isend(b, 1, kChar, 0, 0, kCommWorld, &reqs_[static_cast<std::size_t>(i)]);
      case RateOp::AllOpts: return e_->isend_all_opts(b, 1, kChar, 0, kComm1);
      case RateOp::Put:
        return e_->put(b, 1, kChar, 0, static_cast<std::uint64_t>(i % kWinBytes), 1, kChar,
                       win_);
    }
    return Err::Internal;
  }
  Err complete(RateOp op) {
    switch (op) {
      case RateOp::Isend: return e_->waitall(reqs_, {});
      case RateOp::AllOpts: return e_->comm_waitall(kComm1);
      case RateOp::Put: return e_->win_flush_all(win_);
    }
    return Err::Internal;
  }

  template <RateOp kOp, bool kTraced>
  double run(Report& rep, Spans* sp) {
    std::uint64_t errs = 0;
    std::uint64_t base = issued_;
    const std::uint64_t t0 = now_ns();
    for (int w = 0; w < kSliceWindows; ++w) {
      base = issued_;
      for (int i = 0; i < kWindow; ++i) {
        const std::uint8_t* b = &payload_[(base + static_cast<std::uint64_t>(i)) % kPayload];
        if constexpr (kTraced) {
          if (i % kSpanEvery == 0) {
            const std::uint64_t s0 = now_ns();
            errs += issue(kOp, b, i) != Err::Success;
            sp->call_ns.push_back(static_cast<double>(now_ns() - s0) - sp->stamp_ns);
            continue;
          }
        }
        errs += issue(kOp, b, i) != Err::Success;
      }
      if constexpr (kTraced) {
        const std::uint64_t s0 = now_ns();
        errs += complete(kOp) != Err::Success;
        sp->sync_ns.push_back((static_cast<double>(now_ns() - s0) - sp->stamp_ns) / kWindow);
      } else {
        errs += complete(kOp) != Err::Success;
      }
      issued_ += kWindow;
    }
    const std::uint64_t dt = now_ns() - t0;
    constexpr std::uint64_t kMsgs = kSliceWindows * kWindow;
    rep.attempted(kMsgs);
    if (errs != 0) rep.fail("rate call returned an error", errs);
    verify(rep, base);
    return static_cast<double>(dt) / kMsgs;
  }

  // Outputs of the slice just issued: every message reached the fabric and
  // was dropped there, no request is left live, and the window holds the
  // bytes of the last window of puts.
  void verify(Report& rep, std::uint64_t last_base) {
    if (e_->live_requests() != 0) rep.fail("live requests left after completion");
    if (op_ != RateOp::Put) {
      if (world_->fabric().dropped() - dropped0_ != issued_) {
        rep.fail("blackhole dropped count differs from messages issued");
      }
      return;
    }
    for (int i = kWindow - kWinBytes; i < kWindow; ++i) {
      const std::uint8_t want = payload_[(last_base + static_cast<std::uint64_t>(i)) % kPayload];
      if (winmem_[static_cast<std::size_t>(i % kWinBytes)] != want) {
        rep.fail("put payload mismatch in target window");
        return;
      }
    }
  }

  const RateOp op_;
  const std::vector<std::uint8_t>& payload_;
  std::vector<Request> reqs_;
  std::unique_ptr<World> world_;
  Engine* e_ = nullptr;
  std::vector<std::uint8_t> winmem_;
  Win win_ = kWinNull;
  Err setup_err_ = Err::Success;
  std::uint64_t issued_ = 0;
  std::uint64_t dropped0_ = 0;
};

std::vector<std::uint8_t> seeded_payload(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> p(kPayload);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
  return p;
}

const char* op_metric(RateOp op) {
  switch (op) {
    case RateOp::Isend: return "isend_mps";
    case RateOp::AllOpts: return "all_opts_mps";
    case RateOp::Put: return "put_mps";
  }
  return "?";
}

const char* op_name(RateOp op) {
  switch (op) {
    case RateOp::Isend: return "MPI_Isend + waitall";
    case RateOp::AllOpts: return "MPI_Isend_all_opts + comm_waitall";
    case RateOp::Put: return "MPI_Put + win_flush_all";
  }
  return "?";
}

}  // namespace

void run_rate(const Args& a, RateOp op, Report& rep) {
  pin_thread(0, 1);
  const std::vector<std::uint8_t> payload = seeded_payload(a.seed);
  const auto rig = std::make_unique<RateRig>(op, BuildConfig::dflt(), payload);
  SetupSampler setup(
      [&] { return std::make_unique<RateRig>(op, BuildConfig::dflt(), payload); });
  rep.check(rig->setup_ok(), "rate world set-up failed");

  Report warm;
  const std::uint64_t warm_end = now_ns() + 250'000'000;
  while (now_ns() < warm_end) rig->slice(warm, nullptr);

  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(a.seconds * 4000));  // see solve_loop in cg.cpp
  double total_ns = 0.0;
  const auto deadline = now_ns() + static_cast<std::uint64_t>(a.seconds * 1e9);
  while (now_ns() < deadline) {
    ns.push_back(rig->slice(rep, nullptr));
    total_ns += ns.back() * kSliceWindows * kWindow;
  }
  if (warm.failed() != 0) rep.fail("warm-up slices failed", warm.failed());
  const double msgs = static_cast<double>(ns.size()) * kSliceWindows * kWindow;
  std::printf("%s on blackhole, default build: %zu slices of %d msgs\n", op_name(op),
              ns.size(), kSliceWindows * kWindow);
  emit_e2e(rep, op_metric(op), msgs, total_ns * 1e-9, [&](double q) { return quantile(ns, q); },
           setup.stop());
}

void trace_rate(const Args& a, double seconds, double stamp_ns, Report& rep) {
  pin_thread(0, 1);
  const std::vector<std::uint8_t> payload = seeded_payload(a.seed);
  BuildConfig counters_off = BuildConfig::no_err_single_ipo();
  counters_off.counters = false;
  // The knockout ladder, each rung removing one layer from the one above.
  struct Rung {
    const char* layer;   // per-layer metric the step down from here measures
    const char* instr;   // its modeled counterpart
    BuildConfig build;
  };
  const std::array<Rung, 5> ladder = {{
      {"core.err_check_ns", "cost.err_check_instr", BuildConfig::dflt()},
      {"core.thread_gate_ns", "cost.thread_gate_instr", BuildConfig::no_err()},
      {"core.call_overhead_ns", "cost.call_overhead_instr", BuildConfig::no_err_single()},
      {"obs.counters_ns", nullptr, BuildConfig::no_err_single_ipo()},
      {nullptr, nullptr, counters_off},
  }};
  std::vector<std::unique_ptr<RateRig>> rigs;
  for (const Rung& r : ladder) {
    rigs.push_back(std::make_unique<RateRig>(RateOp::Isend, r.build, payload));
  }
  const std::size_t kTracedIsend = rigs.size();
  rigs.push_back(std::make_unique<RateRig>(RateOp::Isend, BuildConfig::dflt(), payload));
  rigs.push_back(std::make_unique<RateRig>(RateOp::AllOpts, BuildConfig::dflt(), payload));
  rigs.push_back(std::make_unique<RateRig>(RateOp::Put, BuildConfig::dflt(), payload));
  std::vector<Spans> spans(rigs.size());
  for (Spans& s : spans) s.stamp_ns = stamp_ns;
  for (auto& r : rigs) rep.check(r->setup_ok(), "rate world set-up failed");

  // Modeled instruction counts of one call per rig (deterministic).
  std::vector<std::uint64_t> instr;
  for (auto& r : rigs) instr.push_back(r->metered_one());

  Report warm;
  for (int i = 0; i < 4; ++i) {
    for (std::size_t k = 0; k < rigs.size(); ++k) {
      rigs[k]->slice(warm, k >= kTracedIsend ? &spans[k] : nullptr);
    }
  }
  for (Spans& s : spans) s.call_ns.clear(), s.sync_ns.clear();
  if (warm.failed() != 0) rep.fail("warm-up slices failed", warm.failed());

  // Interleaved rounds with a rotating start so no rig always follows another.
  std::vector<std::vector<double>> ns(rigs.size());
  const auto deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t round = 0; now_ns() < deadline; ++round) {
    for (std::size_t j = 0; j < rigs.size(); ++j) {
      const std::size_t k = (round + j) % rigs.size();
      ns[k].push_back(rigs[k]->slice(rep, k >= kTracedIsend ? &spans[k] : nullptr));
    }
  }

  // Each layer's cost is the median over rounds of the paired difference
  // between adjacent rungs, which cancels host-speed drift between rounds.
  std::vector<double> med;
  for (const auto& v : ns) med.push_back(median(v));
  std::printf("\nmeasured vs modeled, ISEND on blackhole (%zu rounds of paired slices):\n",
              ns[0].size());
  std::printf("  %-26s %10s %12s %10s\n", "layer (knockout step)", "ns/msg", "model instr",
              "ns/instr");
  rep.metric("core.isend_ns", med[0], "ns");
  double ladder_sum = 0.0;
  for (std::size_t i = 0; i + 1 < ladder.size(); ++i) {
    std::vector<double> diff;
    for (std::size_t k = 0; k < ns[i].size() && k < ns[i + 1].size(); ++k) {
      diff.push_back(ns[i][k] - ns[i + 1][k]);
    }
    const double d = median(diff);
    ladder_sum += d;
    rep.metric(ladder[i].layer, d, "ns");
    const double mi = static_cast<double>(instr[i]) - static_cast<double>(instr[i + 1]);
    if (ladder[i].instr != nullptr) rep.metric(ladder[i].instr, mi, "instr");
    char ratio[32] = "-";
    if (mi > 0) std::snprintf(ratio, sizeof(ratio), "%.3f", d / mi);
    std::printf("  %-26s %10.2f %12.0f %10s\n", ladder[i].layer, d, mi, ratio);
  }
  const double packet = rep.value("runtime.packet_alloc_free_ns");
  const double facade = rep.value("net.facade_inject_ns");
  const double residual = med[0] - ladder_sum - packet - facade;
  rep.metric("core.isend_residual_ns", residual, "ns");
  std::printf("  %-26s %10.2f\n  %-26s %10.2f\n  %-26s %10.2f   (model total %llu)\n",
              "runtime.packet_alloc_free", packet, "net.facade_inject", facade,
              "core.isend_residual", residual, static_cast<unsigned long long>(instr[0]));
  std::printf("  %-26s %10.2f = sum of the rows above\n", "ISEND default", med[0]);

  const Spans& si = spans[kTracedIsend];
  const Spans& sa = spans[kTracedIsend + 1];
  const Spans& sp = spans[kTracedIsend + 2];
  rep.metric("core.isend_call_ns", median(si.call_ns), "ns");
  rep.metric("core.waitall_ns_per_req", median(si.sync_ns), "ns");
  rep.metric("core.all_opts_call_ns", median(sa.call_ns), "ns");
  rep.metric("rma.put_call_ns", median(sp.call_ns), "ns");
  rep.metric("rma.flush_ns_per_op", median(sp.sync_ns), "ns");
  rep.metric("cost.isend_instr", static_cast<double>(instr[0]), "instr");
  rep.metric("cost.all_opts_instr", static_cast<double>(instr[kTracedIsend + 1]), "instr");
  rep.metric("cost.put_instr", static_cast<double>(instr[kTracedIsend + 2]), "instr");
  std::vector<double> overhead;
  for (std::size_t k = 0; k < ns[0].size() && k < ns[kTracedIsend].size(); ++k) {
    overhead.push_back(ns[kTracedIsend][k] / ns[0][k] - 1.0);
  }
  rep.metric("obs.trace_overhead_frac", median(overhead), "ratio");
  std::printf("  traced slices: ISEND %.1f, ALL_OPTS %.1f, PUT %.1f ns/msg\n",
              med[kTracedIsend], med[kTracedIsend + 1], med[kTracedIsend + 2]);
}

}  // namespace lwbench
