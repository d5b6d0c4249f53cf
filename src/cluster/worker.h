/// \file cluster/worker.h
/// \brief The worker side of the cluster tier: a socket server that
/// answers framed two-way join requests with a DhtJoinService, plus a
/// fork-based helper that runs one worker per PROCESS for true
/// crash-isolation.
///
/// A worker is deliberately thin: decode request -> verify the
/// graph/params fingerprints -> rebuild an ExecContext from the wire
/// (remaining deadline budget, effort budget) -> run the query through
/// the SAME DhtJoinService everything else uses -> encode the result
/// bits verbatim. Byte-identity with single-process serving is
/// therefore structural, not aspirational: there is no worker-specific
/// execution path to diverge (DESIGN.md §12).
///
/// Fault injection: WorkerOptions::chaos arms a seeded per-request
/// fault schedule (cluster/chaos.h). Kill faults sever the client
/// connection at a chosen execution boundary; delay/corrupt/truncate
/// faults mutate the reply. The worker process itself stays alive —
/// simulated crashes are per-connection — while SpawnWorkerProcess +
/// SIGKILL covers the real-crash axis in bench_cluster.

#ifndef DHTJOIN_CLUSTER_WORKER_H_
#define DHTJOIN_CLUSTER_WORKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "serve/session.h"

namespace dhtjoin::cluster {

struct WorkerOptions {
  /// Options of the wrapped DhtJoinService (admission control caps,
  /// cache budget, pool size, injected clock...).
  serve::DhtJoinService::Options service;
  /// Listen port; 0 = kernel-chosen ephemeral (read it back via
  /// port() after Start, or from SpawnedWorker).
  uint16_t port = 0;
  /// Seeded fault schedule; ChaosOptions{} (seed 0) disables.
  ChaosOptions chaos;
  /// Warm-state snapshot path; empty disables durability. When set,
  /// Start() warm-loads the file (missing file or fingerprint mismatch
  /// fall back to cold; corruption is logged and ignored — a worker
  /// must never refuse to serve because its cache file rotted) and
  /// Stop() writes a final checkpoint after the drain.
  std::string checkpoint_path;
  /// Periodic checkpoint interval; 0 checkpoints only on graceful
  /// Stop. Each periodic write draws a CheckpointFault from `chaos`,
  /// so a seeded schedule can SIGKILL the worker mid-write.
  int64_t checkpoint_every_ms = 0;
};

/// A serving worker: accept loop + one thread per connection, each
/// running recv -> execute -> reply until EOF or shutdown.
/// Thread-safe; Start/Stop/Abort may be called from any thread.
class WorkerServer {
 public:
  WorkerServer(const Graph& g, const DhtParams& params, int d,
               WorkerOptions options);
  ~WorkerServer();

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  /// Binds and starts accepting. Idempotent failure: returns the bind
  /// error without partial state.
  Status Start();

  /// Graceful shutdown: stop accepting, let in-flight queries finish
  /// for up to `drain_millis`, then sever whatever remains and join
  /// every thread. Idempotent.
  void Stop(int64_t drain_millis = 2000);

  /// Hard shutdown: sever all connections now (drain 0).
  void Abort() { Stop(0); }

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_relaxed); }
  serve::DhtJoinService& service() { return service_; }
  int64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }
  /// Cache entries restored by the warm load in Start() (0 when cold
  /// or durability is disabled).
  int64_t restored_entries() const {
    return restored_entries_.load(std::memory_order_relaxed);
  }
  /// Checkpoints written so far (periodic + final).
  int64_t checkpoints_written() const {
    return checkpoints_written_.load(std::memory_order_relaxed);
  }
  /// Connection threads not yet joined. Finished ones are joined on
  /// the next accept, so this tracks live connections (plus those that
  /// closed since the last accept), not every connection ever served.
  std::size_t connection_threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return conn_threads_.size();
  }

  /// Writes one checkpoint now. `chaos_armed` draws a CheckpointFault
  /// for this write's ordinal (the periodic thread passes true; the
  /// final graceful checkpoint passes false — a clean SIGTERM exit
  /// must not be chaos-killed or StopWorkerProcess would misreport).
  Status CheckpointNow(bool chaos_armed);

 private:
  void AcceptLoop();
  void CheckpointLoop();
  void ServeConnection(Socket conn);
  /// One request frame: dispatch by type. Returns false when the
  /// connection should close (EOF, kill fault, transport error).
  bool HandleFrame(Socket& conn, const RecvdFrame& frame);
  bool HandleTwoWay(Socket& conn, const RecvdFrame& frame);
  HelloInfo MakeHelloInfo();
  /// Sends a TwoWayReply, applying any armed delay/corrupt/truncate
  /// fault. Returns false on send failure.
  bool SendReply(Socket& conn, uint64_t request_id,
                 const TwoWayWireReply& reply, const WorkerFault& fault);

  const Graph& g_;
  WorkerOptions options_;
  serve::DhtJoinService service_;
  uint64_t graph_fp_;
  uint64_t params_fp_;
  Listener listener_;
  uint16_t port_ = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> running_{false};
  std::atomic<int64_t> queries_served_{0};
  std::atomic<int64_t> in_flight_{0};
  std::atomic<uint64_t> chaos_ordinal_{0};
  std::atomic<uint64_t> checkpoint_ordinal_{0};
  std::atomic<int64_t> restored_entries_{0};
  std::atomic<int64_t> checkpoints_written_{0};

  std::thread accept_thread_;
  std::thread checkpoint_thread_;
  /// Serializes Stop/Abort/destructor against each other.
  std::mutex stop_mu_;
  std::mutex mu_;
  /// Connection threads; finished ones are joined at the next accept
  /// (the coordinator opens one connection per RPC, and an unjoined
  /// thread keeps its stack), the rest on Stop.
  std::vector<std::thread> conn_threads_;
  /// Ids of connection threads that have returned and await a join.
  std::vector<std::thread::id> finished_conns_;
  /// Live connection sockets, for cross-thread severing on Stop/Abort.
  /// Entries are owned by their connection thread; they deregister
  /// under mu_ before destroying the Socket.
  std::vector<Socket*> live_conns_;
};

/// A worker running in a forked child process.
struct SpawnedWorker {
  int64_t pid = -1;
  uint16_t port = 0;
};

/// Forks a child that serves `g` with a WorkerServer until SIGTERM
/// (graceful drain) and reports its listen port back through a pipe.
/// MUST be called before the parent creates any threads (fork only
/// clones the calling thread); the child inherits the graph
/// copy-on-write, so spawning N workers does not copy the CSR until
/// pages are written. The child also dies with its parent
/// (PR_SET_PDEATHSIG), so a crashed bench leaves no orphans.
Result<SpawnedWorker> SpawnWorkerProcess(const Graph& g,
                                         const DhtParams& params, int d,
                                         const WorkerOptions& options);

/// Graceful stop: SIGTERM, wait up to `grace_millis`, then SIGKILL.
/// Returns the worker's exit verdict (OK for a clean 0 exit).
Status StopWorkerProcess(const SpawnedWorker& worker, int64_t grace_millis);

/// Simulated crash: SIGKILL + reap. Never fails (a dead pid is a
/// no-op).
void KillWorkerProcess(const SpawnedWorker& worker);

}  // namespace dhtjoin::cluster

#endif  // DHTJOIN_CLUSTER_WORKER_H_
