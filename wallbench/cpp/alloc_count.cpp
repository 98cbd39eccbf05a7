// Traced build only: a counting global operator new.  Every allocation
// through any form of operator new is tallied on the calling thread's
// side — threads the benchmark marked as its own, or threads the program
// started — in per-thread-slot counters, so the count costs one
// uncontended relaxed increment.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

constexpr int kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};

Slot g_bench[kSlots];
Slot g_other[kSlots];
std::atomic<int> g_next_slot{0};

thread_local int t_slot = -1;
thread_local bool t_bench = false;

void count_one() {
  if (t_slot < 0) {
    t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  (t_bench ? g_bench : g_other)[t_slot].n.fetch_add(
      1, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  count_one();
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_one();
  if (size == 0) size = 1;
  auto alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  for (;;) {
    void* p = nullptr;
    if (::posix_memalign(&p, alignment, size) == 0) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace wallbench::alloc {

bool enabled() { return true; }

void mark_bench_thread() { t_bench = true; }

Counts counts() {
  Counts c;
  for (int i = 0; i < kSlots; ++i) {
    c.bench += g_bench[i].n.load(std::memory_order_relaxed);
    c.other += g_other[i].n.load(std::memory_order_relaxed);
  }
  return c;
}

}  // namespace wallbench::alloc
