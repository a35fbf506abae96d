// 1-byte ping-pong: 2 ranks on the loopback profile (no modeled wire cost)
// and the mailbox netmod, blocking send/recv. Rank 0 sends a seeded byte,
// rank 1 checks it against the same seeded stream and echoes it transformed,
// rank 0 checks the echo. Loads match, mailbox inject/poll, progress and the
// rt::Backoff wait loop; the core send path is a minority of the time.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "obs/counters.hpp"
#include "runtime/world.hpp"
#include "workloads.hpp"

namespace lwbench {
namespace {

using namespace lwmpi;

constexpr Tag kTagPing = 7;
constexpr Tag kTagStop = 8;
constexpr std::uint8_t kEchoXor = 0xA5;
constexpr int kSpanEvery = 16;  // traced runs stamp 1 recv in 16

struct PingOut {
  NsHistogram rtt;
  std::uint64_t trips = 0;
  double measured_s = 0.0;
  ThreadUsage usage[2];
  Tally tally[2];
  std::vector<double> recv_ns[2];
};

WorldOptions ping_options() {
  WorldOptions o;
  o.profile = net::loopback();
  o.netmod = "mailbox";
  o.device = DeviceKind::Ch4;
  return o;
}

void pingpong(World& w, const Args& a, double seconds, const double* stamp_ns, PingOut& out) {
  w.run([&](Engine& e) {
    const int r = e.world_rank();
    pin_thread(r, 2);
    Rng rng(a.seed);
    Tally& t = out.tally[r];
    std::vector<double>& spans = out.recv_ns[r];
    std::uint64_t n = 0;
    e.barrier(kCommWorld);
    const ThreadUsage u0 = ThreadUsage::now();
    auto recv = [&](std::uint8_t* b, Rank src, Tag tag, Status* st) {
      if (stamp_ns != nullptr && n % kSpanEvery == 0) {
        const std::uint64_t s0 = now_ns();
        const Err err = e.recv(b, 1, kUint8, src, tag, kCommWorld, st);
        spans.push_back(static_cast<double>(now_ns() - s0) - *stamp_ns);
        return err;
      }
      return e.recv(b, 1, kUint8, src, tag, kCommWorld, st);
    };
    if (r == 0) {
      const std::uint64_t start = now_ns();
      const std::uint64_t warm_end = start + 200'000'000;
      const std::uint64_t deadline = warm_end + static_cast<std::uint64_t>(seconds * 1e9);
      std::uint64_t measured_from = 0;
      std::uint64_t t0 = now_ns();
      for (;; ++n) {
        const std::uint8_t b = static_cast<std::uint8_t>(rng.next());
        std::uint8_t back = 0;
        Status st;
        const bool ok = e.send(&b, 1, kUint8, 1, kTagPing, kCommWorld) == Err::Success &&
                        recv(&back, 1, kTagPing, &st) == Err::Success;
        const std::uint64_t t1 = now_ns();
        t.check(ok && back == (b ^ kEchoXor), "ping-pong echo mismatch");
        if (t0 >= warm_end) {
          if (measured_from == 0) measured_from = t0;
          out.rtt.add(t1 - t0);
          ++out.trips;
        }
        t0 = t1;
        if (t1 >= deadline) break;
      }
      out.measured_s = static_cast<double>(t0 - measured_from) * 1e-9;
      const std::uint8_t stop = 0;
      t.check(e.send(&stop, 1, kUint8, 1, kTagStop, kCommWorld) == Err::Success,
              "stop send failed");
    } else {
      for (;; ++n) {
        std::uint8_t b = 0;
        Status st;
        const bool ok = recv(&b, 0, kAnyTag, &st) == Err::Success;
        if (ok && st.tag == kTagStop) break;
        const std::uint8_t want = static_cast<std::uint8_t>(rng.next());
        t.check(ok && b == want, "ping payload differs from the seeded stream");
        const std::uint8_t echo = b ^ kEchoXor;
        t.check(e.send(&echo, 1, kUint8, 0, kTagPing, kCommWorld) == Err::Success,
                "echo send failed");
      }
    }
    out.usage[r] = ThreadUsage::now() - u0;
  });
}

void report_usage(const PingOut& out, double msgs) {
  for (int r = 0; r < 2; ++r) {
    std::printf("  rank %d: %llu context switches (%.3f per message), CPU share %.3f\n", r,
                static_cast<unsigned long long>(out.usage[r].switches()),
                static_cast<double>(out.usage[r].switches()) / msgs, out.usage[r].cpu_share());
  }
}

}  // namespace

void run_pingpong(const Args& a, Report& rep) {
  World w(2, ping_options());
  SetupSampler setup([] { return std::make_unique<World>(2, ping_options()); });
  PingOut out;
  pingpong(w, a, a.seconds, nullptr, out);
  const double setup_s = setup.stop();
  for (const Tally& t : out.tally) t.merge_into(rep);
  check_drained(w, rep);
  const double msgs = 2.0 * static_cast<double>(out.trips);
  report_usage(out, msgs);
  emit_e2e(rep, "latency_ns (one-way messages)", msgs, out.measured_s,
           [&](double q) { return out.rtt.quantile(q) / 2; }, setup_s);
}

void trace_pingpong(const Args& a, double seconds, double stamp_ns, Report& rep) {
  World w(2, ping_options());
  PingOut out;
  pingpong(w, a, seconds, &stamp_ns, out);
  for (const Tally& t : out.tally) t.merge_into(rep);
  check_drained(w, rep);
  const double msgs = 2.0 * static_cast<double>(out.trips);
  std::vector<double> spans = out.recv_ns[0];
  spans.insert(spans.end(), out.recv_ns[1].begin(), out.recv_ns[1].end());
  std::uint64_t matched = 0;
  std::uint64_t missed = 0;
  for (int r = 0; r < 2; ++r) {
    const Engine& e = w.engine(r);
    for (int v = 0; v < e.num_vcis(); ++v) {
      matched += e.vci_counters(v).get(obs::VciCtr::PostedMatch);
      missed += e.vci_counters(v).get(obs::VciCtr::PostedMiss);
    }
  }
  const std::uint64_t switches = out.usage[0].switches() + out.usage[1].switches();
  report_usage(out, msgs);
  rep.metric("core.recv_call_ns", median(spans), "ns");
  rep.metric("match.unexpected_frac",
             matched + missed > 0 ? static_cast<double>(missed) / (matched + missed) : 0.0,
             "ratio");
  rep.metric("runtime.ctx_switches_per_op", static_cast<double>(switches) / msgs, "count");
  rep.metric("runtime.cpu_share",
             std::min(out.usage[0].cpu_share(), out.usage[1].cpu_share()), "ratio");
}

}  // namespace lwbench
