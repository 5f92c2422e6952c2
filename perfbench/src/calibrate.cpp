#include "calibrate.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "probes.hpp"

namespace perfbench {

namespace {

std::uint64_t kernel_once(std::vector<std::uint64_t>& v) {
  std::uint64_t x = 88172645463325252ULL;
  for (auto& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = x;
  }
  std::sort(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 4));
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(std::uint64_t); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

volatile std::uint64_t g_sink = 0;  // keeps the kernel's work observable

}  // namespace

double reference_kernel_s() {
  std::vector<std::uint64_t> v(std::size_t{1} << 19);  // 4 MiB
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = HostClock::now();
    g_sink = kernel_once(v);
    const double s = seconds_since(t0);
    best = rep == 0 ? s : std::min(best, s);
  }
  return best;
}

}  // namespace perfbench
