// Allocation probe: a replacement global operator new that counts every
// heap allocation of the benchmark process, so the driver can report
// allocations per client op over a measured window (sim.allocs_per_op).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace perfbench

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
