// Rendezvous halo exchange: 2 ranks on the rdma netmod with the psm2() cost
// profile, one rank per node. Each step both ranks exchange
//   * a 32 KiB contiguous face (above the 16 KiB eager threshold: zero-copy
//     rendezvous through the registration cache),
//   * a 24 KiB strided vector-datatype face (staged rendezvous, pack/unpack),
//   * a 64-byte eager message that also carries rank 0's stop flag,
// and verify every received word. Contiguous faces rotate through a seeded
// choice of 96 send and 96 receive buffers per rank, more than the 64-entry
// registration cache holds, so registration both hits and misses.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "net/netmod.hpp"
#include "runtime/world.hpp"
#include "workloads.hpp"

namespace lwbench {
namespace {

using namespace lwmpi;

constexpr std::size_t kFaceWords = 4096;  // 32 KiB
constexpr int kFaceBufs = 96;
constexpr std::size_t kSmallWords = 8;
constexpr std::size_t kVecWords = static_cast<std::size_t>(kHaloVecCount) * kHaloVecStride;
constexpr Tag kTagFace = 11;
constexpr Tag kTagVec = 12;
constexpr Tag kTagSmall = 13;

WorldOptions halo_options() {
  WorldOptions o;
  o.profile = net::psm2();
  o.netmod = "rdma";
  o.device = DeviceKind::Ch4;
  o.ranks_per_node = 1;
  return o;
}

struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};

// Page-aligned face buffers, so each registers as its own cache entry.
struct RankBuffers {
  std::unique_ptr<std::uint64_t[], FreeDeleter> faces;  // send then receive faces
  std::vector<std::uint64_t> vsend = std::vector<std::uint64_t>(kVecWords);
  std::vector<std::uint64_t> vrecv = std::vector<std::uint64_t>(kVecWords);
  RankBuffers()
      : faces(static_cast<std::uint64_t*>(
            std::aligned_alloc(4096, 2 * kFaceBufs * kFaceWords * sizeof(std::uint64_t)))) {
    if (!faces) throw std::bad_alloc();
  }
  std::uint64_t* send_face(std::size_t i) { return faces.get() + i * kFaceWords; }
  std::uint64_t* recv_face(std::size_t i) { return faces.get() + (kFaceBufs + i) * kFaceWords; }
};

struct HaloOut {
  std::vector<double> step_ns;   // rank 0, measured steps
  double measured_s = 0.0;
  std::uint64_t steps = 0;       // all steps, warm-up included
  Tally tally[2];
  std::vector<double> waitall_ns[2];
  ThreadUsage usage[2];
};

// Per-(step, rank) key every word of that rank's messages derives from.
std::uint64_t step_key(std::uint64_t seed, std::uint64_t step, int rank) {
  return payload_word(seed, step * 2 + static_cast<std::uint64_t>(rank));
}

Err make_vector(Engine& e, Datatype* vt) {
  Err err = e.type_vector(kHaloVecCount, 1, kHaloVecStride, kUint64, vt);
  return err == Err::Success ? e.type_commit(vt) : err;
}

void halo(World& w, const Args& a, double warm_s, double seconds, const double* stamp_ns,
          HaloOut& out) {
  // Reserved up front: see solve_loop in cg.cpp.
  out.step_ns.reserve(static_cast<std::size_t>(seconds * 40000));
  w.run([&](Engine& e) {
    const int r = e.world_rank();
    const int peer = 1 - r;
    pin_thread(r, 2);
    Tally& t = out.tally[r];
    RankBuffers buf;
    Datatype vt = kDatatypeNull;
    t.check(make_vector(e, &vt) == Err::Success, "vector type set-up failed");
    std::uint64_t small_send[kSmallWords];
    std::uint64_t small_recv[kSmallWords];
    e.barrier(kCommWorld);
    const ThreadUsage u0 = ThreadUsage::now();
    const std::uint64_t start = now_ns();
    const std::uint64_t warm_end = start + static_cast<std::uint64_t>(warm_s * 1e9);
    const std::uint64_t deadline = warm_end + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t measured_from = 0;
    for (std::uint64_t step = 0;; ++step) {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t mine = step_key(a.seed, step, r);
      const std::uint64_t theirs = step_key(a.seed, step, peer);
      Rng pick(mine);
      std::uint64_t* face_out = buf.send_face(pick.below(kFaceBufs));
      std::uint64_t* face_in = buf.recv_face(pick.below(kFaceBufs));
      for (std::size_t i = 0; i < kFaceWords; ++i) face_out[i] = mine + i;
      for (std::size_t i = 0; i < kVecWords; i += kHaloVecStride) buf.vsend[i] = mine * 3 + i;
      small_send[0] = (r == 0 && t0 >= deadline) ? 1 : 0;
      for (std::size_t i = 1; i < kSmallWords; ++i) small_send[i] = mine ^ i;

      Request req[6];
      std::fill(std::begin(req), std::end(req), kRequestNull);
      t.check(e.irecv(face_in, kFaceWords, kUint64, peer, kTagFace, kCommWorld, &req[0]) ==
                      Err::Success &&
                  e.irecv(buf.vrecv.data(), 1, vt, peer, kTagVec, kCommWorld, &req[1]) ==
                      Err::Success &&
                  e.irecv(small_recv, kSmallWords, kUint64, peer, kTagSmall, kCommWorld,
                          &req[2]) == Err::Success &&
                  e.isend(face_out, kFaceWords, kUint64, peer, kTagFace, kCommWorld,
                          &req[3]) == Err::Success &&
                  e.isend(buf.vsend.data(), 1, vt, peer, kTagVec, kCommWorld, &req[4]) ==
                      Err::Success &&
                  e.isend(small_send, kSmallWords, kUint64, peer, kTagSmall, kCommWorld,
                          &req[5]) == Err::Success,
              "halo post failed");
      Status st[6];
      const std::uint64_t s0 = now_ns();
      t.check(e.waitall(req, st) == Err::Success, "halo waitall failed");
      if (stamp_ns != nullptr) {
        out.waitall_ns[r].push_back(static_cast<double>(now_ns() - s0) - *stamp_ns);
      }

      bool face_ok = true;
      for (std::size_t i = 0; i < kFaceWords; ++i) face_ok &= face_in[i] == theirs + i;
      bool vec_ok = true;
      for (std::size_t i = 0; i < kVecWords; i += kHaloVecStride) {
        vec_ok &= buf.vrecv[i] == theirs * 3 + i;
      }
      bool small_ok = true;
      for (std::size_t i = 1; i < kSmallWords; ++i) small_ok &= small_recv[i] == (theirs ^ i);
      t.check(face_ok, "contiguous face payload mismatch");
      t.check(vec_ok, "strided face payload mismatch");
      t.check(small_ok, "eager message payload mismatch");

      const std::uint64_t t1 = now_ns();
      if (r == 0 && t0 >= warm_end) {
        if (measured_from == 0) measured_from = t0;
        out.step_ns.push_back(static_cast<double>(t1 - t0));
      }
      const bool stop = (r == 0 ? small_send[0] : small_recv[0]) != 0;
      if (stop) {
        if (r == 0) {
          out.measured_s = static_cast<double>(t1 - measured_from) * 1e-9;
          out.steps = step + 1;
        }
        break;
      }
    }
    out.usage[r] = ThreadUsage::now() - u0;
  });
  for (const ThreadUsage& u : out.usage) {
    std::printf("  rank thread: %llu context switches, CPU share %.3f\n",
                static_cast<unsigned long long>(u.switches()), u.cpu_share());
  }
}

}  // namespace

void run_halo(const Args& a, Report& rep) {
  World w(2, halo_options());
  SetupSampler setup([] {
    auto sw = std::make_unique<World>(2, halo_options());
    for (int r = 0; r < 2; ++r) {
      Datatype vt = kDatatypeNull;
      make_vector(sw->engine(r), &vt);
    }
    return sw;
  });
  HaloOut out;
  halo(w, a, 0.25, a.seconds, nullptr, out);
  const double setup_s = setup.stop();
  for (const Tally& t : out.tally) t.merge_into(rep);
  check_drained(w, rep);
  const auto steps = static_cast<double>(out.step_ns.size());
  emit_e2e(rep, "halo_steps_per_s", steps, out.measured_s,
           [&](double q) { return quantile(out.step_ns, q); }, setup_s);
}

void trace_halo(const Args& a, double seconds, double stamp_ns, Report& rep) {
  World w(2, halo_options());
  HaloOut out;
  halo(w, a, 0.1, seconds, &stamp_ns, out);
  for (const Tally& t : out.tally) t.merge_into(rep);
  check_drained(w, rep);
  const net::Fabric& f = w.fabric();
  std::uint64_t hits = 0, misses = 0, stalls = 0, zbytes = 0, pbytes = 0, packets = 0;
  for (int r = 0; r < 2; ++r) {
    hits += f.net_stat(net::NetStat::RegCacheHit, r);
    misses += f.net_stat(net::NetStat::RegCacheMiss, r);
    stalls += f.net_stat(net::NetStat::RingStall, r);
    zbytes += f.net_stat(net::NetStat::ZeroCopyBytes, r);
    packets += f.injected(r);
    for (int v = 0; v < f.lanes_per_rank(); ++v) pbytes += f.injected_bytes(r, v);
  }
  const auto steps = static_cast<double>(out.steps);
  std::vector<double> waits = out.waitall_ns[0];
  waits.insert(waits.end(), out.waitall_ns[1].begin(), out.waitall_ns[1].end());
  rep.metric("net.rdma_reg_hit_ratio",
             hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0, "ratio");
  rep.metric("net.rdma_ring_stalls_per_step", static_cast<double>(stalls) / steps, "count");
  rep.metric("net.rdma_zcopy_bytes_frac",
             zbytes + pbytes ? static_cast<double>(zbytes) / (zbytes + pbytes) : 0.0, "ratio");
  rep.metric("net.packets_per_step", static_cast<double>(packets) / steps, "count");
  rep.metric("core.rdv_waitall_ns", median(waits), "ns");
  rep.metric("apps.halo_step_ns", median(out.step_ns), "ns");
}

}  // namespace lwbench
