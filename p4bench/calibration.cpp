#include "calibration.hpp"

#include <sys/mman.h>

#include <chrono>
#include <cstring>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace p4bench {

namespace {

constexpr int kOps = 40'000;

volatile std::uint64_t g_sink = 0;  // keeps the loop's work observable

struct Event {
  std::uint64_t when;
  std::uint64_t seq;
  std::function<void()> fn;
  bool operator>(const Event& o) const { return when != o.when ? when > o.when : seq > o.seq; }
};

}  // namespace

double calibration_ops_per_s() {
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  std::uint64_t seq = 0, x = 0x9e3779b97f4a7c15ull, acc = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < 64; ++i) queue.push({i, seq++, nullptr});
  for (int i = 0; i < kOps; ++i) {
    Event e = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto buf = std::make_unique<std::vector<std::uint8_t>>(64 + (x & 63),
                                                           static_cast<std::uint8_t>(x));
    table[static_cast<std::uint32_t>(x & 4095)] += (*buf)[0];
    acc += buf->size();
    auto payload = std::make_shared<std::uint64_t>(x);
    queue.push({e.when + (x & 1023), seq++, [payload, &acc] { acc += *payload; }});
    if (e.fn) e.fn();
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
  g_sink = acc;
  return kOps / elapsed.count();
}

double page_touch_s() {
  constexpr std::size_t kBytes = 64u << 20;
  const auto t0 = std::chrono::steady_clock::now();
  void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return 0;
  std::memset(p, 1, kBytes);
  munmap(p, kBytes);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
  return elapsed.count();
}

}  // namespace p4bench
