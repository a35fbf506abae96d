// Strong-scaling CG: the Figure-7 Nek mass-matrix CG (apps::run_nek_cg) on 4
// ranks at small n/P, loopback profile, mailbox netmod, shipped build,
// repeated solves. Each iteration does one eager face exchange and two
// 1-double allreduces, so coll, multi-rank progress and the wait loop
// dominate. Solves stop at 20 iterations: the residual is then ~1e-60, well
// clear of underflow, where the loop would time the FPU's denormal path.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/nek.hpp"
#include "core/engine.hpp"
#include "obs/counters.hpp"
#include "obs/profiler.hpp"
#include "runtime/world.hpp"
#include "workloads.hpp"

namespace lwbench {
namespace {

using namespace lwmpi;

constexpr int kRanks = 4;
constexpr double kResidualTol = 1e-30;
constexpr const char* kPhase = "measure";

apps::NekConfig nek_config() {
  apps::NekConfig c;
  c.order = 5;          // 216 points per element
  c.elems_total = 16;   // 4 elements per rank: n/P ~ 760 points
  c.cg_iters = 20;
  return c;
}

WorldOptions cg_options(bool prof) {
  WorldOptions o;
  o.profile = net::loopback();
  o.netmod = "mailbox";
  o.device = DeviceKind::Ch4;
  o.prof = prof;
  return o;
}

struct CgOut {
  std::vector<double> iter_ns;  // rank 0: ns per iteration of each measured solve
  double loop_s = 0.0;          // rank 0: summed CG-loop seconds of measured solves
  std::uint64_t solves = 0;
  ThreadUsage usage[kRanks];
  Tally tally[kRanks];
};

// Solves until rank 0 passes the deadline; solves before `warm_s` are not
// recorded. With `phase`, the measured solves run inside that profiler phase.
void solve_loop(World& w, double warm_s, double seconds, bool phase, CgOut& out) {
  const apps::NekConfig cfg = nek_config();
  // Reserved up front so sample storage does not grow by doubling mid-run,
  // which would make peak RSS depend on how many solves a run fits in.
  out.iter_ns.reserve(static_cast<std::size_t>(seconds * 10000));
  w.run([&](Engine& e) {
    const int r = e.world_rank();
    pin_thread(r, kRanks);
    Tally& t = out.tally[r];
    e.barrier(kCommWorld);
    const std::uint64_t start = now_ns();
    const std::uint64_t warm_end = start + static_cast<std::uint64_t>(warm_s * 1e9);
    const std::uint64_t deadline = warm_end + static_cast<std::uint64_t>(seconds * 1e9);
    bool measuring = false;
    ThreadUsage u0;
    for (;;) {
      // Rank 0 decides the phase for everyone: 0 warm-up, 1 measure, 2 stop.
      const std::uint64_t now = now_ns();
      int mine = r == 0 ? (now < warm_end ? 0 : now < deadline ? 1 : 2) : 0;
      int state = 0;
      t.check(e.allreduce(&mine, &state, 1, kInt, ReduceOp::Max, kCommWorld) == Err::Success,
              "phase allreduce failed");
      if (state == 2) break;
      if (state == 1 && !measuring) {
        measuring = true;
        if (phase) e.phase_push(kPhase);
        u0 = ThreadUsage::now();
      }
      const apps::NekResult res = apps::run_nek_cg(e, kCommWorld, cfg);
      t.check(res.valid && std::isfinite(res.residual) && res.residual > 0.0 &&
                  res.residual < kResidualTol,
              "CG residual not finite, not positive or above tolerance");
      if (measuring && r == 0) {
        out.iter_ns.push_back(res.seconds * 1e9 / cfg.cg_iters);
        out.loop_s += res.seconds;
        ++out.solves;
      }
    }
    if (measuring) {
      out.usage[r] = ThreadUsage::now() - u0;
      if (phase) e.phase_pop();
    }
  });
  for (const ThreadUsage& u : out.usage) {
    std::printf("  rank thread: %llu context switches, CPU share %.3f\n",
                static_cast<unsigned long long>(u.switches()), u.cpu_share());
  }
}

}  // namespace

void run_cg(const Args& a, Report& rep) {
  World w(kRanks, cg_options(false));
  SetupSampler setup([] { return std::make_unique<World>(kRanks, cg_options(false)); });
  CgOut out;
  solve_loop(w, 0.25, a.seconds, false, out);
  const double setup_s = setup.stop();
  for (const Tally& t : out.tally) t.merge_into(rep);
  check_drained(w, rep);
  const double iters = static_cast<double>(out.solves) * nek_config().cg_iters;
  emit_e2e(rep, "cg_iters_per_s", iters, out.loop_s,
           [&](double q) { return quantile(out.iter_ns, q); }, setup_s);
}

void trace_cg(double seconds, Report& rep) {
  World w(kRanks, cg_options(true));
  CgOut out;
  solve_loop(w, 0.1, seconds, true, out);
  for (const Tally& t : out.tally) t.merge_into(rep);
  check_drained(w, rep);

  // The profiler's per-callsite cells (time is sampled 1 call in 1024 and
  // scaled) inside the measured phase, over all ranks.
  obs::Profiler& prof = *w.profiler();
  const int ph = prof.intern_phase(kPhase);
  auto site = [&](obs::Callsite s, std::uint64_t* count) {
    std::uint64_t ns = 0;
    *count = 0;
    for (int r = 0; r < kRanks; ++r) {
      for (int v = 0; v < prof.nvcis(); ++v) {
        if (const obs::CallCell* c = prof.rank(r).peek(ph, s, v)) {
          ns += c->time_ns.load(std::memory_order_relaxed);
          *count += c->count.load(std::memory_order_relaxed);
        }
      }
    }
    return ns;
  };
  std::uint64_t n_allreduce = 0;
  std::uint64_t n_waitall = 0;
  const std::uint64_t t_allreduce = site(obs::Callsite::Allreduce, &n_allreduce);
  const std::uint64_t t_waitall = site(obs::Callsite::Waitall, &n_waitall);
  double mpi_ns = 0.0;
  double wall_ns = 0.0;
  std::uint64_t switches = 0;
  std::uint64_t idle = 0;
  std::uint64_t swept = 0;
  for (int r = 0; r < kRanks; ++r) {
    mpi_ns += static_cast<double>(prof.rank(r).phase_time_ns(ph));
    wall_ns += out.usage[r].wall_s * 1e9;
    switches += out.usage[r].switches();
    idle += w.engine(r).engine_counters().get(obs::EngCtr::ProgressIdle);
    swept += w.engine(r).engine_counters().get(obs::EngCtr::ProgressSwept);
  }
  const double iters = static_cast<double>(out.solves) * nek_config().cg_iters;
  rep.metric("coll.allreduce_call_ns",
             n_allreduce ? static_cast<double>(t_allreduce) / n_allreduce : 0.0, "ns");
  rep.metric("core.halo_waitall_ns",
             n_waitall ? static_cast<double>(t_waitall) / n_waitall : 0.0, "ns");
  rep.metric("core.progress_idle_frac",
             idle + swept ? static_cast<double>(idle) / (idle + swept) : 0.0, "ratio");
  rep.metric("apps.mpi_time_frac", wall_ns > 0 ? mpi_ns / wall_ns : 0.0, "ratio");
  rep.metric("runtime.ctx_switches_per_iter", iters > 0 ? switches / iters : 0.0, "count");
  rep.metric("apps.cg_iter_ns", median(out.iter_ns), "ns");
}

}  // namespace lwbench
