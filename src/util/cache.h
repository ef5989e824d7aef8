// Cache-geometry constants and cache-line-aligned allocation helpers.
//
// LSGraph's data layouts are specified in units of cache lines (the paper
// sizes vertex blocks, RIA/LIA blocks, and array starts to cache lines), so
// every module takes its geometry from here.
#ifndef SRC_UTIL_CACHE_H_
#define SRC_UTIL_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace lsg {

// Fixed line size; x86 and most ARM server parts use 64 bytes. Keeping it a
// compile-time constant lets block sizes be compile-time constants too.
inline constexpr size_t kCacheLineBytes = 64;

// Number of T elements that fit in one cache line.
template <typename T>
inline constexpr size_t kPerCacheLine = kCacheLineBytes / sizeof(T);

// Allocates `n` bytes aligned to a cache-line boundary. Never returns null;
// allocation failure terminates (this engine is an in-memory store, there is
// no meaningful partial-failure recovery once we cannot hold the graph).
inline void* AlignedAlloc(size_t n) {
  if (n == 0) {
    n = kCacheLineBytes;
  }
  // aligned_alloc requires the size to be a multiple of the alignment.
  size_t rounded = (n + kCacheLineBytes - 1) / kCacheLineBytes * kCacheLineBytes;
  void* p = std::aligned_alloc(kCacheLineBytes, rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

inline void AlignedFree(void* p) { std::free(p); }

// Starts loading the cache line holding p. A hint that never faults, so p
// may be null. An opaque instruction rather than __builtin_prefetch: GCC
// counts a function that only prefetches as free of side effects and
// deletes the calls to it that it does not inline, which compiled the
// batch apply pipeline (DESIGN.md §7) to nothing.
inline void PrefetchLine(const void* p) {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("prefetcht0 (%0)" : : "r"(p));
#elif defined(__aarch64__)
  asm volatile("prfm pldl1keep, [%0]" : : "r"(p));
#else
  __builtin_prefetch(p);
#endif
}

// PrefetchLine for every cache line that overlaps [p, p + bytes).
inline void PrefetchLines(const void* p, size_t bytes) {
  const auto begin = reinterpret_cast<uintptr_t>(p);
  for (uintptr_t line = begin & ~uintptr_t{kCacheLineBytes - 1};
       line < begin + bytes; line += kCacheLineBytes) {
    PrefetchLine(reinterpret_cast<const void*>(line));
  }
}

// Typed helper: allocates an aligned, uninitialized array of `n` elements.
template <typename T>
T* AllocateArray(size_t n) {
  static_assert(std::is_trivially_destructible_v<T> || true);
  return static_cast<T*>(AlignedAlloc(n * sizeof(T)));
}

// RAII owner for AlignedAlloc'd arrays of trivially-destructible T.
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t n) : data_(AllocateArray<T>(n)), size_(n) {}
  ~AlignedBuffer() { AlignedFree(data_); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& o) noexcept : data_(o.data_), size_(o.size_) {
    o.data_ = nullptr;
    o.size_ = 0;
  }
  AlignedBuffer& operator=(AlignedBuffer&& o) noexcept {
    if (this != &o) {
      AlignedFree(data_);
      data_ = o.data_;
      size_ = o.size_;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  bool empty() const { return size_ == 0; }

  void reset(size_t n) {
    AlignedFree(data_);
    data_ = n != 0 ? AllocateArray<T>(n) : nullptr;
    size_ = n;
  }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace lsg

#endif  // SRC_UTIL_CACHE_H_
