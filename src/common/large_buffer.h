#ifndef DJ_COMMON_LARGE_BUFFER_H_
#define DJ_COMMON_LARGE_BUFFER_H_

#include <cstddef>
#include <string>

namespace dj {

/// Reserves `capacity` bytes in `*s` for a multi-MiB data-plane buffer and,
/// on Linux, asks for transparent huge pages (MADV_HUGEPAGE) over the 2 MiB
/// aligned interior of its first `will_write` bytes. On a VM each fresh
/// 4 KiB page costs a fault on first touch; a 2 MiB page takes one fault
/// for 512 of them. Only whole 2 MiB pages inside bytes the caller will
/// write are advised, so a partly used huge page cannot raise RSS. The hint
/// is skipped below 2 MiB, off Linux, or when the kernel refuses it (THP
/// `never`); the reservation itself always happens.
void ReserveLarge(std::string* s, size_t capacity, size_t will_write);

/// The common case: a buffer that will be filled to exactly `size` bytes.
inline void ReserveLarge(std::string* s, size_t size) {
  ReserveLarge(s, size, size);
}

}  // namespace dj

#endif  // DJ_COMMON_LARGE_BUFFER_H_
