#include "calibrate.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory_resource>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"

namespace nerpa::perfbench {
namespace {

// The kernel allocates only from this buffer, never from the heap the
// stack shares, so its time does not depend on how the program under test
// uses memory.
alignas(64) unsigned char kernel_arena[size_t{1} << 20];

// Keeps the kernel's work observable, so the compiler cannot drop it.
volatile size_t kernel_sink;

}  // namespace

double ReferenceKernelUs() {
  int64_t start = MonotonicNanos();
  std::pmr::monotonic_buffer_resource arena(
      kernel_arena, sizeof(kernel_arena), std::pmr::null_memory_resource());
  std::pmr::unordered_map<uint64_t, int64_t> map(&arena);
  map.reserve(8192);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  char name[32];
  auto key = [&](unsigned long long id) {
    int n = std::snprintf(name, sizeof(name), "port-%llu-vlan", id);
    return std::hash<std::string_view>{}(
        std::string_view(name, static_cast<size_t>(n)));
  };
  for (int64_t i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    map[key(state >> 50)] += i;
    if (i % 3 == 0) map.erase(key((state >> 40) & 1023));
  }
  kernel_sink = map.size();
  return static_cast<double>(MonotonicNanos() - start) * 1e-3;
}

double ReferenceUs(int runs) {
  ReferenceKernelUs();
  std::vector<double> times;
  for (int i = 0; i < std::max(1, runs); ++i) {
    times.push_back(ReferenceKernelUs());
  }
  std::nth_element(times.begin(), times.begin() + times.size() / 2,
                   times.end());
  return times[times.size() / 2];
}

}  // namespace nerpa::perfbench
