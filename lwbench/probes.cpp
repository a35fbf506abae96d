// Standalone timings of single modules, each driven through its public
// interface outside any world: the packet pool, the fabric facade on a
// blackhole fabric, mailbox inject+poll, the matcher, and datatype pack.
// Each is the median over batches of the batch's mean ns per operation.
#include <cstdio>
#include <vector>

#include "datatype/datatype.hpp"
#include "match/match.hpp"
#include "net/fabric.hpp"
#include "runtime/packet.hpp"
#include "workloads.hpp"

namespace lwbench {
namespace {

using namespace lwmpi;

constexpr int kBatches = 41;
constexpr int kBatchOps = 8192;

// Median over kBatches of the mean ns per op of `body(ops)`.
template <typename F>
double batch_ns(int ops, F&& body) {
  std::vector<double> per;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    body(ops);
    per.push_back(static_cast<double>(now_ns() - t0) / ops);
  }
  return median(per);
}

}  // namespace

void trace_probes(const Args& a, Report& rep) {
  Rng rng(a.seed);

  // runtime: thread-local packet pool alloc + free.
  const double packet = batch_ns(kBatchOps, [](int n) {
    for (int i = 0; i < n; ++i) rt::PacketPool::free(rt::PacketPool::alloc());
  });
  rep.metric("runtime.packet_alloc_free_ns", packet, "ns");

  // net: the Fabric facade on a blackhole fabric (causal stamp, backend drop).
  {
    net::Fabric bh(1, 1, net::infinite(), 1, "mailbox");
    const double ns = batch_ns(kBatchOps, [&](int n) {
      for (int i = 0; i < n; ++i) bh.inject(0, 0, rt::PacketPool::alloc());
    });
    rep.metric("net.facade_inject_ns", ns - packet, "ns");
    const std::uint64_t want = static_cast<std::uint64_t>(kBatches) * kBatchOps;
    rep.attempted(want);
    if (bh.dropped() != want) rep.fail("blackhole fabric lost packets", want - bh.dropped());
  }

  // net: mailbox inject then poll of the same packet, rank to itself.
  {
    net::Fabric mb(1, 1, net::loopback(), 1, "mailbox");
    std::uint64_t lost = 0;
    const double ns = batch_ns(kBatchOps, [&](int n) {
      for (int i = 0; i < n; ++i) {
        rt::Packet* p = rt::PacketPool::alloc();
        p->hdr.tag = i;
        mb.inject(0, 0, p);
        rt::Packet* q = mb.poll(0, 0);
        lost += (q != p || q->hdr.tag != i);
        if (q != nullptr) rt::PacketPool::free(q);
      }
    });
    rep.metric("net.mailbox_inject_poll_ns", ns - packet, "ns");
    rep.attempted(static_cast<std::uint64_t>(kBatches) * kBatchOps);
    if (lost != 0) rep.fail("mailbox returned a different packet", lost);
  }

  // match: one post + one arrive, alternating the expected order (receive
  // posted first) and the unexpected order (message first).
  {
    match::MatchEngine m;
    rt::Packet* pkt = rt::PacketPool::alloc();
    pkt->hdr.kind = rt::PacketKind::Eager;
    pkt->hdr.ctx = 4;
    pkt->hdr.src_comm_rank = 1;
    const Tag tag = static_cast<Tag>(rng.below(1000));
    pkt->hdr.tag = tag;
    match::PostedRecv r;
    r.ctx = 4;
    r.src = 1;
    r.tag = tag;
    std::uint64_t bad = 0;
    const double ns = batch_ns(kBatchOps, [&](int n) {
      for (int i = 0; i < n; i += 2) {
        r.req = static_cast<std::uint32_t>(i);
        bad += m.post(r).has_value();
        const auto hit = m.arrive(pkt);
        bad += !hit.has_value() || hit->req != r.req;
        bad += m.arrive(pkt).has_value();
        const auto back = m.post(r);
        bad += !back.has_value() || *back != pkt;
      }
    });
    rt::PacketPool::free(pkt);
    rep.metric("match.post_arrive_ns", ns, "ns");  // n/2 iterations of two pairs
    rep.attempted(static_cast<std::uint64_t>(kBatches) * kBatchOps);
    if (bad != 0 || m.posted_depth() != 0 || m.unexpected_depth() != 0) {
      rep.fail("matcher returned a wrong match", bad + 1);
    }
  }

  // datatype: pack the halo workload's strided face.
  {
    dt::TypeEngine te;
    Datatype vt = kDatatypeNull;
    const bool made = te.vector(kHaloVecCount, 1, kHaloVecStride, kUint64, &vt) ==
                          Err::Success &&
                      te.commit(&vt) == Err::Success;
    std::vector<std::uint64_t> src(static_cast<std::size_t>(kHaloVecCount) * kHaloVecStride);
    for (auto& w : src) w = rng.next();
    std::vector<std::uint64_t> dst(static_cast<std::size_t>(kHaloVecCount));
    const double kib = static_cast<double>(dst.size() * sizeof(std::uint64_t)) / 1024.0;
    const double ns = batch_ns(8, [&](int n) {
      for (int i = 0; i < n; ++i) {
        dt::pack(te, src.data(), 1, vt, reinterpret_cast<std::byte*>(dst.data()));
      }
    });
    rep.metric("datatype.pack_ns_per_kib", ns / kib, "ns");
    bool same = made;
    for (std::size_t i = 0; same && i < dst.size(); ++i) {
      same = dst[i] == src[i * kHaloVecStride];
    }
    rep.check(same, "datatype pack produced wrong bytes");
  }
  std::printf("probes: packet %.1f ns, facade %.1f ns, mailbox %.1f ns, match %.1f ns, "
              "pack %.1f ns/KiB\n",
              packet, rep.value("net.facade_inject_ns"),
              rep.value("net.mailbox_inject_poll_ns"), rep.value("match.post_arrive_ns"),
              rep.value("datatype.pack_ns_per_kib"));
}

}  // namespace lwbench
