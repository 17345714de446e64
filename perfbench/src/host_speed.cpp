#include "host_speed.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "probe.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSlots = 1000;        // the open-system scan width
constexpr std::size_t kTableWords = 1 << 20;  // 4 MiB: past L2, in the LLC
constexpr int kScans = 9000;
constexpr int kReadsPerScan = 200;

// Written after each probe, so the compiler cannot drop the probe's work.
std::atomic<double> sink{0.0};

std::uint64_t next(std::uint64_t& x) noexcept {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

double probe_once(const std::vector<std::uint32_t>& table) {
  // Same inputs every call, so every call does identical work.
  std::vector<double> due(kSlots);
  std::vector<std::uint8_t> busy(kSlots);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < kSlots; ++i) {
    due[i] = static_cast<double>(next(x) >> 11) * 0x1p-53;
    busy[i] = static_cast<std::uint8_t>((x >> 7) & 1U);
  }

  const std::uint64_t start = now_ns();
  double sum = 0.0;
  std::uint64_t read = 0;
  for (int k = 0; k < kScans; ++k) {
    // Earliest due time among busy slots, with a data-dependent branch per
    // slot, as in an event loop's completion scan.
    double best = 0.0;
    std::size_t at = 0;
    bool found = false;
    for (std::size_t i = 0; i < kSlots; ++i) {
      if (busy[i] == 0) continue;
      if (!found || due[i] < best) {
        best = due[i];
        at = i;
        found = true;
      }
    }
    sum += best;
    due[at] += 1.0;
    busy[(static_cast<std::size_t>(k) * 7919) % kSlots] ^= 1U;
    // Random reads over a table that lives in the LLC.
    for (int u = 0; u < kReadsPerScan; ++u) {
      read += table[(next(x) >> 40) & (kTableWords - 1)];
    }
  }
  const double seconds = seconds_since(start);

  sink.store(sum + static_cast<double>(read), std::memory_order_relaxed);
  return seconds;
}

}  // namespace

double host_probe_s(std::size_t threads) {
  // Shared and read-only, so a probe adds one table to the process's
  // memory whatever the thread count, and peak RSS stays the program's.
  const std::vector<std::uint32_t> table(kTableWords, 1U);
  if (threads <= 1) return probe_once(table);
  std::vector<double> seconds(threads);
  std::atomic<std::size_t> arrived{0};
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        // Start together, so the probes overlap as a pool's workers do.
        arrived.fetch_add(1);
        while (arrived.load() < threads) std::this_thread::yield();
        seconds[t] = probe_once(table);
      });
    }
  }
  return *std::max_element(seconds.begin(), seconds.end());
}

}  // namespace perfbench
