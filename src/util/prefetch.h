// A read-prefetch hint that the compiler cannot drop.
//
// GCC's interprocedural analysis can mark a helper whose only effect is
// __builtin_prefetch as `pure` and delete every call to it, guarded or
// not. On x86-64 the hint is therefore a volatile `prefetcht0` (into
// every cache level); elsewhere it falls back to the builtin. A prefetch
// never faults and has no semantic effect, but callers still pass only
// addresses inside live storage.
#pragma once

namespace itree {

inline void prefetch_read(const void* address) {
#if defined(__x86_64__)
  asm volatile("prefetcht0 %0" : : "m"(*static_cast<const char*>(address)));
#else
  __builtin_prefetch(address, 0, 3);
#endif
}

}  // namespace itree
