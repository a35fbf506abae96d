// The benchmark's workloads. Each measures its end-to-end metrics with
// tracing off (run_*), and each has a traced part (trace_*) that reports the
// per-layer metrics of the layers it loads. See lwbench/README.md for why each
// workload exists and which end-to-end metric each layer metric should move.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace lwbench {

// Which public call the blackhole rate workloads issue.
enum class RateOp { Isend, AllOpts, Put };

void run_rate(const Args& a, RateOp op, Report& rep);
void run_pingpong(const Args& a, Report& rep);
void run_cg(const Args& a, Report& rep);
void run_halo(const Args& a, Report& rep);

// Traced parts: each spends about `seconds` and adds its per-layer metrics.
// `stamp_ns` is the calibrated span cost subtracted from every span.
void trace_rate(const Args& a, double seconds, double stamp_ns, Report& rep);
void trace_pingpong(const Args& a, double seconds, double stamp_ns, Report& rep);
void trace_cg(double seconds, Report& rep);
void trace_halo(const Args& a, double seconds, double stamp_ns, Report& rep);
// Standalone timings of single modules (packet pool, fabric facade, mailbox,
// matcher, datatype pack), outside any workload.
void trace_probes(const Args& a, Report& rep);

// Shared by the halo workload and the datatype probe: the strided face.
inline constexpr int kHaloVecCount = 3072;   // blocks of one 8-byte word
inline constexpr int kHaloVecStride = 2;     // in words

}  // namespace lwbench
