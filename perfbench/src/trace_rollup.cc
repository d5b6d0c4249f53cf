#include "trace_rollup.h"

#include <cstdlib>

namespace perfbench {

bool AddSpanTotals(const std::string& trace_json,
                   std::map<std::string, int64_t>* totals) {
  // Each span renders as {"name": "<n>", "start_ns": S, "duration_ns": D
  // ...} (obs/trace.cc); names never contain quotes.
  static const std::string kName = "{\"name\": \"";
  static const std::string kDuration = "\"duration_ns\": ";
  bool any = false;
  std::size_t pos = 0;
  while ((pos = trace_json.find(kName, pos)) != std::string::npos) {
    const std::size_t name_begin = pos + kName.size();
    const std::size_t name_end = trace_json.find('"', name_begin);
    if (name_end == std::string::npos) return false;
    const std::size_t dur = trace_json.find(kDuration, name_end);
    if (dur == std::string::npos) return false;
    const char* digits = trace_json.c_str() + dur + kDuration.size();
    char* end = nullptr;
    const long long nanos = std::strtoll(digits, &end, 10);
    if (end == digits) return false;
    (*totals)[trace_json.substr(name_begin, name_end - name_begin)] += nanos;
    any = true;
    pos = name_end;
  }
  return any;
}

}  // namespace perfbench
