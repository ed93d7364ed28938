#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_bytes{0};

void count(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  count(size);
  void* p = nullptr;
  if (posix_memalign(&p, align, size ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

namespace cmfl::testing {

void reset_alloc_count() noexcept {
  g_allocs.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
}

std::size_t alloc_count() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

std::size_t alloc_bytes() noexcept {
  return g_bytes.load(std::memory_order_relaxed);
}

}  // namespace cmfl::testing

// Global replacements.  malloc/free stay the underlying allocator, so
// sanitizers that interpose at the malloc layer keep working.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count(size);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count(size);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
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
