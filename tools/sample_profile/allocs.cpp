// Allocation-site counter, loaded into a program with LD_PRELOAD.
//
// Replaces the global operator new (every throwing, nothrow and
// aligned form, scalar and array) with malloc / aligned_alloc plus one
// count against the caller's return address. The matching operator
// delete forms in libstdc++ free with free(), so they need no
// replacement. Counts live in a fixed open-addressing table of atomic
// (address, count) pairs: no lock, no allocation, every thread counted.
//
// At exit every address is mapped to its module with dladdr1 and
// written as a module-relative offset, in the sampler's format
// (sampler.cpp), so tools/sample_profile.py --allocs symbolizes it with
// the same addr2line pass:
//
//   # sample_profile 1 samples=<allocations> dropped=<D>
//   <count>\t<module path>\t0x<offset>
//
// to SAMPLE_PROFILE_OUT.<pid>. The recorded address is the return
// address minus one, so addr2line names the call instruction's line
// rather than the one after it. Calls whose address found no free
// table slot are counted as dropped.

#include <dlfcn.h>
#include <link.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

namespace {

// Distinct call sites of a large program are in the thousands; the
// table is 16 bytes a slot and lives in .bss, touched only where used.
constexpr std::size_t kSlots = std::size_t{1} << 16;

struct Site {
  std::atomic<std::uintptr_t> address{0};
  std::atomic<std::uint64_t> count{0};
};

Site g_sites[kSlots];
std::atomic<std::uint64_t> g_dropped{0};

void count_site(void* return_address) {
  const auto address = reinterpret_cast<std::uintptr_t>(return_address) - 1;
  std::size_t slot = (address * 0x9E3779B97F4A7C15ull) >> 48;
  for (std::size_t probe = 0; probe < kSlots; ++probe, slot = (slot + 1) & (kSlots - 1)) {
    std::uintptr_t seen = g_sites[slot].address.load(std::memory_order_relaxed);
    if (seen == 0 &&
        g_sites[slot].address.compare_exchange_strong(seen, address,
                                                      std::memory_order_relaxed)) {
      seen = address;
    }
    if (seen == address) {
      g_sites[slot].count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  g_dropped.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t size, std::size_t alignment) {
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
}

void* allocate_or_throw(std::size_t size, std::size_t alignment) {
  void* p = allocate(size, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

std::string module_path(const link_map& map) {
  if (map.l_name != nullptr && map.l_name[0] != '\0') return map.l_name;
  // The main program's link map has an empty name.
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string("?");
}

__attribute__((destructor)) void write_counts() {
  const char* prefix = std::getenv("SAMPLE_PROFILE_OUT");
  if (prefix == nullptr) return;
  std::uint64_t total = 0;
  for (const Site& site : g_sites) total += site.count.load(std::memory_order_relaxed);
  const std::string path = std::string(prefix) + "." + std::to_string(getpid());
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::perror("sample_profile: fopen");
    return;
  }
  std::fprintf(out, "# sample_profile 1 samples=%llu dropped=%llu\n",
               static_cast<unsigned long long>(total),
               static_cast<unsigned long long>(g_dropped.load()));
  for (const Site& site : g_sites) {
    const std::uint64_t count = site.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    const std::uintptr_t pc = site.address.load(std::memory_order_relaxed);
    Dl_info info{};
    link_map* map = nullptr;
    if (dladdr1(reinterpret_cast<void*>(pc), &info, reinterpret_cast<void**>(&map),
                RTLD_DL_LINKMAP) != 0 &&
        map != nullptr) {
      std::fprintf(out, "%llu\t%s\t0x%lx\n", static_cast<unsigned long long>(count),
                   module_path(*map).c_str(), static_cast<unsigned long>(pc - map->l_addr));
    } else {
      std::fprintf(out, "%llu\t?\t0x%lx\n", static_cast<unsigned long long>(count),
                   static_cast<unsigned long>(pc));
    }
  }
  std::fclose(out);
}

}  // namespace

#define COUNT_CALLER() count_site(__builtin_return_address(0))

void* operator new(std::size_t size) {
  COUNT_CALLER();
  return allocate_or_throw(size, 0);
}
void* operator new[](std::size_t size) {
  COUNT_CALLER();
  return allocate_or_throw(size, 0);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  COUNT_CALLER();
  return allocate(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  COUNT_CALLER();
  return allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  COUNT_CALLER();
  return allocate_or_throw(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  COUNT_CALLER();
  return allocate_or_throw(size, static_cast<std::size_t>(alignment));
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  COUNT_CALLER();
  return allocate(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  COUNT_CALLER();
  return allocate(size, static_cast<std::size_t>(alignment));
}
