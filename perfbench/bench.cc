#include "bench.h"

#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <iomanip>

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.vol_switches = ru.ru_nvcsw;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

CpuTicks cpu_ticks_now() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest columns are already counted in user and nice.
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    if (!(stat >> v)) return CpuTicks{};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  // Positive and below 2^31, so a derived seed can be handed to the aces
  // CLI (whose --seed is an int) to reproduce one topology.
  return 1 + (z % 2000000000ULL);
}

int SpanLog::open(std::string name) {
  Record r;
  r.name = std::move(name);
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.start = now_s();
  records_.push_back(std::move(r));
  const int index = static_cast<int>(records_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  records_[static_cast<std::size_t>(index)].end = now_s();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name && r.end >= r.start) out.push_back(r.end - r.start);
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(9);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "{\"id\":" << i << ",\"parent\":" << r.parent << ",\"name\":\""
        << r.name << "\",\"start_s\":" << r.start << ",\"end_s\":" << r.end
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
