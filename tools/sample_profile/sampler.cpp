// Wall-clock sampling profiler, loaded into a program with LD_PRELOAD.
//
// A POSIX timer on CLOCK_MONOTONIC sends SIGPROF to the thread that
// loaded the program every kPeriodUs = 100 microseconds. The handler stores the interrupted instruction
// pointer and nothing else: no unwinding, no allocation, no locks, so
// a small function costs what it costs and is not inflated the way
// gprof's mcount inflates it. ITIMER_PROF would be simpler but is
// driven by the scheduler tick (about 4 ms on common kernels), too
// coarse for a one-second run.
//
// At exit every sampled address is mapped to its module with dladdr1
// and written as a module-relative offset (the address minus the
// module's load bias), which is what addr2line expects for both PIE
// executables and shared objects:
//
//   # sample_profile 1 samples=<N> dropped=<D>
//   <count>\t<module path>\t0x<offset>
//
// to SAMPLE_PROFILE_OUT.<pid>. tools/sample_profile.py builds this
// module, runs a command under it and symbolizes the output.
//
// Only the loading thread is sampled: on this simulator that is the
// session's serial event loop plus its share of every fork. Samples
// that land in another module (libc, libstdc++) are kept and reported
// under that module.

#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

// Sampling period. tools/sample_profile.py converts sample counts to
// seconds with the same constant.
constexpr long kPeriodUs = 100;

// 8M samples is 800 s of wall at kPeriodUs; the buffer is
// reserved, not touched, so an unused tail costs no memory.
constexpr std::size_t kCapacity = std::size_t{1} << 23;

std::uintptr_t* g_samples = nullptr;
std::atomic<std::size_t> g_next{0};
timer_t g_timer;
bool g_armed = false;

std::uintptr_t interrupted_pc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "sample_profile: unsupported architecture"
#endif
}

void on_sigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  const std::size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < kCapacity) g_samples[slot] = interrupted_pc(context);
  errno = saved_errno;
}

std::string module_path(const link_map& map) {
  if (map.l_name != nullptr && map.l_name[0] != '\0') return map.l_name;
  // The main program's link map has an empty name.
  static const std::string exe = [] {
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string("?");
  }();
  return exe;
}

__attribute__((constructor)) void start_sampling() {
  if (std::getenv("SAMPLE_PROFILE_OUT") == nullptr) return;
  void* mem = mmap(nullptr, kCapacity * sizeof(std::uintptr_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    std::perror("sample_profile: mmap");
    return;
  }
  g_samples = static_cast<std::uintptr_t*>(mem);

  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    std::perror("sample_profile: sigaction");
    return;
  }

  struct sigevent event {};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGPROF;
#ifdef sigev_notify_thread_id
  event.sigev_notify_thread_id = static_cast<pid_t>(syscall(SYS_gettid));
#else
  event._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
#endif
  if (timer_create(CLOCK_MONOTONIC, &event, &g_timer) != 0) {
    std::perror("sample_profile: timer_create");
    return;
  }
  struct itimerspec spec {};
  spec.it_interval.tv_sec = kPeriodUs / 1000000;
  spec.it_interval.tv_nsec = (kPeriodUs % 1000000) * 1000;
  spec.it_value = spec.it_interval;
  if (timer_settime(g_timer, 0, &spec, nullptr) != 0) {
    std::perror("sample_profile: timer_settime");
    timer_delete(g_timer);
    return;
  }
  g_armed = true;
}

__attribute__((destructor)) void write_samples() {
  if (!g_armed) return;
  timer_delete(g_timer);
  g_armed = false;
  const std::size_t taken = g_next.load(std::memory_order_relaxed);
  const std::size_t kept = std::min(taken, kCapacity);

  const std::string path =
      std::string(std::getenv("SAMPLE_PROFILE_OUT")) + "." + std::to_string(getpid());
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::perror("sample_profile: fopen");
    return;
  }
  std::fprintf(out, "# sample_profile 1 samples=%zu dropped=%zu\n", kept, taken - kept);
  std::sort(g_samples, g_samples + kept);
  for (std::size_t i = 0; i < kept;) {
    std::size_t j = i;
    while (j < kept && g_samples[j] == g_samples[i]) ++j;
    const std::uintptr_t pc = g_samples[i];
    Dl_info info{};
    link_map* map = nullptr;
    if (dladdr1(reinterpret_cast<void*>(pc), &info, reinterpret_cast<void**>(&map),
                RTLD_DL_LINKMAP) != 0 &&
        map != nullptr) {
      std::fprintf(out, "%zu\t%s\t0x%lx\n", j - i, module_path(*map).c_str(),
                   static_cast<unsigned long>(pc - map->l_addr));
    } else {
      std::fprintf(out, "%zu\t?\t0x%lx\n", j - i, static_cast<unsigned long>(pc));
    }
    i = j;
  }
  std::fclose(out);
}

}  // namespace
