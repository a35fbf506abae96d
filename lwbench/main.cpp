// lwbench: the lwmpi benchmark program.
//
//   lwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the named workload runs closed-loop for --seconds and the
// run reports the end-to-end metrics. With --trace 1 the run is the per-layer
// suite: every layer is measured on the workload that loads it (the layers of
// all workloads, so each traced run reports every per-layer metric), in time
// shares of --seconds. Stdout ends with one JSON result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

using namespace lwbench;

namespace {

const char* const kWorkloads[] = {"rate_1b",     "rate_1b_all_opts", "rate_1b_put",
                                  "pingpong_1b", "cg_strong",        "halo_rdv"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lwbench: %s\nusage: lwbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:",
               why);
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0) || a.seconds > 120) {
        usage("bad --seconds");
      }
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("bad --trace");
      a.trace = v[0] == '1';
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_workload) usage("no --workload");
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) usage(("unknown workload " + a.workload).c_str());
  return a;
}

void run_untraced(const Args& a, Report& rep) {
  if (a.workload == "rate_1b") run_rate(a, RateOp::Isend, rep);
  if (a.workload == "rate_1b_all_opts") run_rate(a, RateOp::AllOpts, rep);
  if (a.workload == "rate_1b_put") run_rate(a, RateOp::Put, rep);
  if (a.workload == "pingpong_1b") run_pingpong(a, rep);
  if (a.workload == "cg_strong") run_cg(a, rep);
  if (a.workload == "halo_rdv") run_halo(a, rep);
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void run_traced(const Args& a, double stamp_ns, Report& rep) {
  rep.metric("obs.stamp_cost_ns", stamp_ns, "ns");
  trace_probes(a, rep);
  trace_rate(a, a.seconds * 0.4, stamp_ns, rep);
  trace_pingpong(a, a.seconds * 0.2, stamp_ns, rep);
  trace_cg(a.seconds * 0.2, rep);
  trace_halo(a, a.seconds * 0.2, stamp_ns, rep);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const double stamp_ns = calibrate_stamp_ns();
  std::printf("%s\n", host_fingerprint(stamp_ns).c_str());
  std::printf("workload %s, seed %llu, %.3g s, trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  Report rep;
  try {
    if (a.trace) {
      run_traced(a, stamp_ns, rep);
    } else {
      run_untraced(a, rep);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "lwbench: aborted: %s\n", ex.what());
    return 1;
  }
  rep.print_table();
  std::printf("%s\n", rep.json().c_str());
  return 0;
}
