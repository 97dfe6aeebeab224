#include "common/large_buffer.h"

#include <algorithm>
#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace dj {

void ReserveLarge(std::string* s, size_t capacity, size_t will_write) {
  s->reserve(capacity);
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr uintptr_t kHugePage = uintptr_t{2} << 20;
  const auto begin = reinterpret_cast<uintptr_t>(s->data());
  const uintptr_t end = begin + std::min(will_write, s->capacity());
  const uintptr_t first = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const uintptr_t last = end & ~(kHugePage - 1);
  // A refused hint is not an error: the buffer works on 4 KiB pages.
  if (last > first) {
    (void)madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
  }
#else
  (void)will_write;
#endif
}

}  // namespace dj
