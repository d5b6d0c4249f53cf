/// \file perfbench/src/loop.h
/// \brief The closed-loop client driver and the byte-for-byte answer
/// check shared by every workload.

#ifndef PERFBENCH_LOOP_H_
#define PERFBENCH_LOOP_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "proc_stats.h"
#include "rankjoin/pbrj.h"
#include "serve/session.h"
#include "stats.h"

namespace perfbench {

using dhtjoin::ScoredPair;
using dhtjoin::Status;
using dhtjoin::TupleAnswer;

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) * 1e-9;
}

// ------------------------------------------------------------ answers

inline bool SameBytes(const std::vector<ScoredPair>& a,
                      const std::vector<ScoredPair>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].p != b[i].p || a[i].q != b[i].q ||
        std::bit_cast<uint64_t>(a[i].score) !=
            std::bit_cast<uint64_t>(b[i].score)) {
      return false;
    }
  }
  return true;
}

inline bool SameBytes(const std::vector<TupleAnswer>& a,
                      const std::vector<TupleAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].nodes != b[i].nodes ||
        a[i].edge_scores.size() != b[i].edge_scores.size() ||
        std::bit_cast<uint64_t>(a[i].f) != std::bit_cast<uint64_t>(b[i].f)) {
      return false;
    }
    for (std::size_t e = 0; e < a[i].edge_scores.size(); ++e) {
      if (std::bit_cast<uint64_t>(a[i].edge_scores[e]) !=
          std::bit_cast<uint64_t>(b[i].edge_scores[e])) {
        return false;
      }
    }
  }
  return true;
}

// ------------------------------------------------------------ closed loop

/// One issued query: what the client saw plus the layer counters the
/// library handed back with the answer.
template <typename Answer>
struct Record {
  int64_t index = 0;  ///< position in the request stream
  double latency_ms = 0.0;
  Status status;
  bool degraded = false;
  Answer answer;
  dhtjoin::serve::QueryStats qs;
  dhtjoin::cluster::ClusterQueryStats cs;
  /// Cache lookups during this query (one-client runs only).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

template <typename Answer>
struct Phase {
  std::vector<Record<Answer>> records;  ///< sorted by index
  double window_s = 0.0;
  double cpu_s = 0.0;
  double wall_cpu_capacity_s = 0.0;  ///< window_s * nproc

  std::vector<double> AnsweredLatencies() const {
    std::vector<double> out;
    for (const auto& r : records) {
      if (r.status.ok()) out.push_back(r.latency_ms);
    }
    return out;
  }
  int64_t Answered() const {
    int64_t n = 0;
    for (const auto& r : records) n += r.status.ok() ? 1 : 0;
    return n;
  }
};

inline double WorkersCpu(const std::vector<int64_t>& pids) {
  double s = 0.0;
  for (int64_t pid : pids) s += PidCpuSeconds(pid);
  return s;
}

/// Runs `clients` closed-loop clients: each issues the next request of
/// the stream once its previous one has been answered. Issuing stops
/// after `seconds` once `min_answers` queries have been answered (the
/// window stretches for slow workloads), or at a hard cap.
template <typename Answer, typename Issue>
Phase<Answer> RunClosedLoop(int clients, double seconds, int64_t min_answers,
                            std::size_t stream_length,
                            const std::vector<int64_t>& worker_pids,
                            Issue issue,
                            const std::function<void()>& on_answer = {}) {
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> last_done_ns{0};
  std::vector<std::vector<Record<Answer>>> per_client(
      static_cast<std::size_t>(clients));
  const int64_t start_ns = NowNanos();
  const auto window_ns = static_cast<int64_t>(seconds * 1e9);
  const auto hard_ns = static_cast<int64_t>(std::max(seconds, 75.0) * 1e9);
  // Peak RSS then covers the window only, not set-up transients.
  ResetPeakRss(-1);
  for (int64_t pid : worker_pids) ResetPeakRss(pid);
  const double cpu0 = SelfCpuSeconds() + WorkersCpu(worker_pids);
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = per_client[static_cast<std::size_t>(t)];
      for (;;) {
        const int64_t elapsed = NowNanos() - start_ns;
        if (elapsed >= hard_ns) break;
        if (elapsed >= window_ns && answered.load() >= min_answers) break;
        const int64_t index = next.fetch_add(1);
        if (index >= static_cast<int64_t>(stream_length)) break;
        Record<Answer> r;
        r.index = index;
        const int64_t t0 = NowNanos();
        issue(t, r);
        const int64_t t1 = NowNanos();
        r.latency_ms = static_cast<double>(t1 - t0) * 1e-6;
        int64_t prev = last_done_ns.load();
        while (prev < t1 && !last_done_ns.compare_exchange_weak(prev, t1)) {
        }
        if (r.status.ok()) answered.fetch_add(1);
        mine.push_back(std::move(r));
        if (on_answer) on_answer();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  Phase<Answer> phase;
  phase.cpu_s = SelfCpuSeconds() + WorkersCpu(worker_pids) - cpu0;
  phase.window_s = static_cast<double>(last_done_ns.load() - start_ns) * 1e-9;
  phase.wall_cpu_capacity_s =
      phase.window_s * static_cast<double>(std::thread::hardware_concurrency());
  for (auto& v : per_client) {
    for (auto& r : v) phase.records.push_back(std::move(r));
  }
  std::sort(phase.records.begin(), phase.records.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  return phase;
}

/// Checks every record against `reference(index)` and counts outcomes.
template <typename Answer, typename Ref>
LoopAccount Verify(const Phase<Answer>& phase, Ref reference,
                   std::string* first_error) {
  LoopAccount acc;
  for (const auto& r : phase.records) {
    acc.Issue();
    std::string why;
    if (!r.status.ok()) {
      why = r.status.ToString();
    } else if (r.degraded) {
      why = "degraded answer";
    } else if (!SameBytes(r.answer, reference(r.index))) {
      why = "answer differs from the library cold path";
    }
    if (why.empty()) {
      acc.Complete();
    } else {
      acc.Fail();
      if (first_error->empty()) {
        *first_error = "request " + std::to_string(r.index) + ": " + why;
      }
    }
  }
  return acc;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOOP_H_
