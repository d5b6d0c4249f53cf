/// \file perfbench/src/trace_rollup.h
/// \brief Per-span-name totals of rendered query traces.
///
/// The service renders each captured query's span tree as JSON
/// (obs::Trace::ToJson, kept in its slow-query ring). The benchmark
/// reads per-layer time from those renderings instead of adding spans
/// of its own inside the library.

#ifndef PERFBENCH_TRACE_ROLLUP_H_
#define PERFBENCH_TRACE_ROLLUP_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Adds the duration of every span of `trace_json` into `totals`
/// (nanoseconds), keyed by span name.
/// Nested spans are counted under their own names (not subtracted from
/// their parents). Returns false if the text is not a span rendering.
bool AddSpanTotals(const std::string& trace_json,
                   std::map<std::string, int64_t>* totals);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_ROLLUP_H_
