#include "common.hpp"

#include "core/engine.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace lwbench {

void Report::metric(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  if (reasons_printed_ < 8) {
    ++reasons_printed_;
    std::fprintf(stderr, "lwbench: failed op: %s\n", why.c_str());
  }
}

double Report::value(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

void Report::print_table() const {
  for (const Entry& e : entries_) {
    std::printf("  %-32s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::printf("  %-32s %16llu of %llu\n", "failed ops",
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    char num[64];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + e.name + "\": {\"value\": " + num + ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  return out;
}

void check_drained(lwmpi::World& w, Report& rep) {
  for (int r = 0; r < w.nranks(); ++r) {
    rep.check(w.engine(r).live_requests() == 0, "live request left after the run");
    rep.check(w.fabric().injected(r) == w.fabric().delivered(r),
              "undelivered packet left after the run");
  }
}

double calibrate_stamp_ns() {
  constexpr int kBatch = 4096;
  std::vector<double> per;
  for (int b = 0; b < 64; ++b) {
    std::uint64_t sink = 0;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) sink += now_ns();
    const std::uint64_t t1 = now_ns();
    if (sink == 1) std::fprintf(stderr, " ");  // keeps the loop observable
    per.push_back(static_cast<double>(t1 - t0) / kBatch);
  }
  return median(per);
}

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    if (v.empty()) v.push_back(0);
    return v;
  }();
  return cpus;
}

bool pin_thread(int slot, int threads) {
  const std::vector<int>& cpus = allowed_cpus();
  const auto n = static_cast<int>(cpus.size());
  const int first = threads < n ? n - threads : 0;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<std::size_t>((first + slot) % n)], &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

void unpin_thread() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : allowed_cpus()) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

ThreadUsage ThreadUsage::now() {
  ThreadUsage u;
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) == 0) {
    u.voluntary = static_cast<std::uint64_t>(ru.ru_nvcsw);
    u.involuntary = static_cast<std::uint64_t>(ru.ru_nivcsw);
  }
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    u.cpu_s = static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  u.wall_s = static_cast<double>(now_ns()) * 1e-9;
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void emit_e2e(Report& rep, const char* name, double ops, double measured_s,
              const std::function<double(double)>& op_ns_quantile, double setup_s) {
  std::printf("%s: %.6g ops/s over %.3g s; per-op ns p10 %.1f p50 %.1f p90 %.1f p99 %.1f\n",
              name, measured_s > 0 ? ops / measured_s : 0.0, measured_s, op_ns_quantile(0.10),
              op_ns_quantile(0.50), op_ns_quantile(0.90), op_ns_quantile(0.99));
  rep.metric("op_p90_ns", op_ns_quantile(0.90), "ns");
  rep.metric("setup_s", setup_s, "s");
}

void NsHistogram::add(std::uint64_t ns) {
  ++n_;
  if (ns < kBuckets) {
    ++counts_[ns];
  } else {
    over_.push_back(ns);
  }
}

double NsHistogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen > rank) return static_cast<double>(b);
  }
  std::vector<std::uint64_t> over = over_;
  std::sort(over.begin(), over.end());
  return static_cast<double>(over[std::min<std::size_t>(rank - seen, over.size() - 1)]);
}

std::string host_fingerprint(double stamp_ns) {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  std::string clean;
  for (char c : model) {
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) clean += c;
  }
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"host\": {\"cores_online\": %u, \"cores_allowed\": %zu, \"cpu_model\": "
                "\"%s\", \"loadavg\": [%.2f, %.2f, %.2f], \"now_ns_cost_ns\": %.2f}}",
                std::thread::hardware_concurrency(), allowed_cpus().size(), clean.c_str(),
                load[0], load[1], load[2], stamp_ns);
  return buf;
}

}  // namespace lwbench
