#include "proc_stats.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double SelfCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PidCpuSeconds(int64_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Field 2 (comm) may hold spaces; fields resume after its ')'.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  long long utime = 0, stime = 0;
  // After comm: state is field 3, utime field 14, stime field 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stoll(field);
    if (index == 15) stime = std::stoll(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMiB(int64_t pid) {
  std::ifstream in(pid < 0 ? std::string("/proc/self/status")
                           : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoll(line.substr(6))) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss(int64_t pid) {
  if (pid < 0) malloc_trim(0);
  std::ofstream out(pid < 0 ? std::string("/proc/self/clear_refs")
                            : "/proc/" + std::to_string(pid) + "/clear_refs");
  out << "5";
}

}  // namespace perfbench
