// Live-heap measurement for tests that bound allocation growth, through
// glibc's mallinfo2.
#pragma once

#include <cstddef>
#include <optional>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

// ASan and TSan replace malloc, so glibc's mallinfo2 does not see their heap.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DEEPSZ_TEST_FOREIGN_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DEEPSZ_TEST_FOREIGN_MALLOC 1
#endif
#endif

namespace deepsz::testing {

/// Live heap bytes, or nullopt where mallinfo2 cannot measure this
/// process's heap (a sanitizer allocator, or no glibc). Small chunks show in
/// uordblks, large mmapped ones (a dense layer matrix) only in hblkhd.
inline std::optional<std::size_t> heap_in_use() {
#if defined(__GLIBC__) && !defined(DEEPSZ_TEST_FOREIGN_MALLOC)
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#else
  return std::nullopt;
#endif
}

}  // namespace deepsz::testing
