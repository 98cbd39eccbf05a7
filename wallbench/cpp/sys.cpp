#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace wallbench {

pid_t this_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::vector<pid_t> list_tasks() {
  std::vector<pid_t> tids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9') {
      tids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
    }
  }
  ::closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<pid_t> new_tasks(const std::vector<pid_t>& before,
                             const std::vector<pid_t>& after) {
  std::vector<pid_t> started;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(started));
  return started;
}

namespace {

ThreadCpu thread_cpu(pid_t tid) {
  ThreadCpu cpu;
  // Linux encodes a thread's CPU clock as (~tid << 3) | CPUCLOCK_PERTHREAD
  // | CPUCLOCK_SCHED; it reads the same ns counter as the thread's own
  // CLOCK_THREAD_CPUTIME_ID, from any thread of the process.
  const auto clock =
      static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6U);
  timespec ts{};
  if (::clock_gettime(clock, &ts) == 0) {
    cpu.cpu_s = static_cast<double>(ts.tv_sec) +
                static_cast<double>(ts.tv_nsec) / 1e9;
  }
  // utime and stime are fields 14 and 15 of /proc/<pid>/task/<tid>/stat,
  // counted after the parenthesised command name.
  const std::string path = "/proc/self/task/" + std::to_string(tid) + "/stat";
  if (FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[1024];
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    const std::string stat(buf);
    const auto close = stat.rfind(')');
    if (close != std::string::npos) {
      const char* p = buf + close + 2;  // field 3 (state)
      for (int field = 3; field < 14 && *p != '\0'; ++field) {
        while (*p != '\0' && *p != ' ') ++p;
        if (*p == ' ') ++p;
      }
      char* end = nullptr;
      cpu.user_ticks = static_cast<double>(std::strtoull(p, &end, 10));
      cpu.sys_ticks = static_cast<double>(std::strtoull(end, nullptr, 10));
    }
  }
  return cpu;
}

}  // namespace

void ThreadGroupClock::start(std::vector<pid_t> tids) {
  tids_ = std::move(tids);
  begin_.clear();
  for (pid_t tid : tids_) begin_.push_back(thread_cpu(tid));
  t0_ = Clock::now();
}

void ThreadGroupClock::stop() {
  wall_s_ += seconds_between(t0_, Clock::now());
  double busiest = 0.0;
  for (std::size_t i = 0; i < tids_.size(); ++i) {
    const ThreadCpu end = thread_cpu(tids_[i]);
    const double cpu = end.cpu_s - begin_[i].cpu_s;
    cpu_s_ += cpu;
    busiest = std::max(busiest, cpu);
    user_ticks_ += end.user_ticks - begin_[i].user_ticks;
    sys_ticks_ += end.sys_ticks - begin_[i].sys_ticks;
  }
  busiest_s_ += busiest;
}

Usage usage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.vcs = static_cast<double>(ru.ru_nvcsw);
  u.ivcs = static_cast<double>(ru.ru_nivcsw);
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

double steal_ticks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  unsigned long long v[8] = {};
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) : 0.0;
}

double host_loop_ns() {
  constexpr int kChunks = 5;
  constexpr std::uint64_t kIters = std::uint64_t{1} << 21;
  std::vector<double> per_iter;
  volatile std::uint64_t sink = 0;
  for (int c = 0; c < kChunks; ++c) {
    std::uint64_t x = 0x243f6a8885a308d3ULL + static_cast<std::uint64_t>(c);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x9e3779b97f4a7c15ULL;
    }
    const auto t1 = Clock::now();
    sink = sink + x;
    per_iter.push_back(seconds_between(t0, t1) * 1e9 /
                       static_cast<double>(kIters));
  }
  return median(per_iter);
}

}  // namespace wallbench
