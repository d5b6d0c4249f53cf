#include "cluster/worker.h"

#include <errno.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

namespace dhtjoin::cluster {

namespace {

/// Bound on any single reply write: a client that stopped reading
/// must not wedge a worker connection thread forever.
constexpr double kSendTimeoutSeconds = 10.0;

void SleepMicros(int64_t micros) {
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

}  // namespace

WorkerServer::WorkerServer(const Graph& g, const DhtParams& params, int d,
                           WorkerOptions options)
    : g_(g),
      options_(std::move(options)),
      service_(g, params, d, options_.service),
      graph_fp_(service_.graph_fingerprint()),
      params_fp_(ParamsFingerprint(params, d)) {}

WorkerServer::~WorkerServer() { Stop(0); }

Status WorkerServer::Start() {
  if (!options_.checkpoint_path.empty()) {
    // Warm-load before serving: a missing file is a normal cold start,
    // a fingerprint mismatch falls back to cold inside LoadWarmState,
    // and a corrupt file must never keep the worker from serving.
    Result<int64_t> restored =
        service_.LoadWarmState(options_.checkpoint_path);
    if (restored.ok()) {
      restored_entries_.store(restored.value(), std::memory_order_relaxed);
    } else if (restored.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "worker: warm load failed, starting cold: %s\n",
                   restored.status().message().c_str());
    }
  }
  DHTJOIN_ASSIGN_OR_RETURN(listener_,
                           Listener::BindLoopback(options_.port));
  port_ = listener_.port();
  running_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (!options_.checkpoint_path.empty() && options_.checkpoint_every_ms > 0) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  return Status::OK();
}

Status WorkerServer::CheckpointNow(bool chaos_armed) {
  if (options_.checkpoint_path.empty()) {
    return Status::InvalidArgument("worker has no checkpoint path");
  }
  persist::CheckpointHook hook;
  if (chaos_armed) {
    const CheckpointFault fault = DrawCheckpointFault(
        options_.chaos,
        checkpoint_ordinal_.fetch_add(1, std::memory_order_relaxed));
    if (fault.armed) {
      // A real mid-write crash, not a simulation: the process dies at
      // the drawn phase and recovery must come from disk.
      hook = [kill_phase = fault.kill_phase](persist::CheckpointPhase p) {
        if (p == kill_phase) (void)raise(SIGKILL);
        return true;
      };
    }
  }
  Status s = service_.SaveWarmState(options_.checkpoint_path, hook);
  if (s.ok()) {
    checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
}

void WorkerServer::CheckpointLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.checkpoint_every_ms);
  // dhtlint: allow(raw-clock): checkpoint pacing must follow REAL
  // time (a FakeClock would stall the periodic writer); tests drive
  // CheckpointNow directly instead of faking this schedule.
  auto next = std::chrono::steady_clock::now() + interval;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // dhtlint: allow(raw-clock): same schedule, read once per slice.
    const auto now = std::chrono::steady_clock::now();
    if (now < next) {
      // Sleep in small slices so Stop() is never blocked behind a
      // long checkpoint interval.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    (void)CheckpointNow(/*chaos_armed=*/true);
    next = now + interval;
  }
}

void WorkerServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<Socket> conn = listener_.Accept(stopping_);
    if (!conn.ok()) {
      if (conn.status().code() == StatusCode::kCancelled) break;
      continue;  // transient accept error; keep serving
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) break;
    // A finished thread deregistered under mu_ as its last step, so
    // joining it here never waits on anything that needs the lock.
    for (std::thread::id id : finished_conns_) {
      auto it = std::find_if(
          conn_threads_.begin(), conn_threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      if (it == conn_threads_.end()) continue;
      it->join();
      conn_threads_.erase(it);
    }
    finished_conns_.clear();
    conn_threads_.emplace_back(
        [this](Socket sock) { ServeConnection(std::move(sock)); },
        std::move(conn).value());
  }
}

void WorkerServer::ServeConnection(Socket conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_conns_.push_back(&conn);
  }
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<RecvdFrame> frame =
        RecvFrame(conn, Deadline::Infinite(), nullptr, &stopping_);
    if (!frame.ok()) break;  // EOF, corruption, or shutdown
    if (!HandleFrame(conn, frame.value())) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  live_conns_.erase(
      std::remove(live_conns_.begin(), live_conns_.end(), &conn),
      live_conns_.end());
  finished_conns_.push_back(std::this_thread::get_id());
}

HelloInfo WorkerServer::MakeHelloInfo() {
  HelloInfo info;
  info.graph_fp = graph_fp_;
  info.params_fp = params_fp_;
  info.d = service_.d();
  info.queries_served = queries_served_.load(std::memory_order_relaxed);
  info.in_flight = in_flight_.load(std::memory_order_relaxed);
  return info;
}

bool WorkerServer::HandleFrame(Socket& conn, const RecvdFrame& frame) {
  const Deadline send_deadline = Deadline::AfterSeconds(kSendTimeoutSeconds);
  switch (static_cast<FrameType>(frame.header.type)) {
    case FrameType::kHello:
    case FrameType::kPing: {
      FrameType reply_type =
          static_cast<FrameType>(frame.header.type) == FrameType::kHello
              ? FrameType::kHelloAck
              : FrameType::kPong;
      std::vector<uint8_t> payload = EncodeHelloInfo(MakeHelloInfo());
      return SendFrame(conn, reply_type, frame.header.request_id, payload,
                       send_deadline)
          .ok();
    }
    case FrameType::kTwoWay:
      return HandleTwoWay(conn, frame);
    default: {
      std::string msg = "unsupported frame type " +
                        std::to_string(frame.header.type);
      std::vector<uint8_t> payload(msg.begin(), msg.end());
      return SendFrame(conn, FrameType::kError, frame.header.request_id,
                       payload, send_deadline)
          .ok();
    }
  }
}

bool WorkerServer::HandleTwoWay(Socket& conn, const RecvdFrame& frame) {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  struct InFlightGuard {
    std::atomic<int64_t>& n;
    ~InFlightGuard() { n.fetch_sub(1, std::memory_order_relaxed); }
  } guard{in_flight_};

  const WorkerFault fault = DrawWorkerFault(
      options_.chaos, chaos_ordinal_.fetch_add(1, std::memory_order_relaxed));

  Result<TwoWayWireRequest> decoded = DecodeTwoWayRequest(frame.payload);
  if (!decoded.ok()) {
    TwoWayWireReply reply;
    reply.status_code = decoded.status().code();
    reply.message = decoded.status().message();
    return SendReply(conn, frame.header.request_id, reply, WorkerFault{});
  }
  const TwoWayWireRequest& req = decoded.value();

  if (req.graph_fp != graph_fp_ || req.params_fp != params_fp_) {
    TwoWayWireReply reply;
    reply.status_code = StatusCode::kInvalidArgument;
    reply.message =
        req.graph_fp != graph_fp_
            ? "graph fingerprint mismatch: worker serves different data"
            : "params fingerprint mismatch: worker serves different measure";
    return SendReply(conn, frame.header.request_id, reply, WorkerFault{});
  }

  if (fault.kind == WorkerFaultKind::kKillBeforeExecute) {
    // Simulated crash at the import boundary: the client sees the
    // connection die before any execution happened.
    conn.ShutdownBoth();
    return false;
  }

  auto exec = std::make_shared<ExecContext>();
  if (req.deadline_micros >= 0) {
    exec->deadline = Deadline::AfterSeconds(
        static_cast<double>(req.deadline_micros) * 1e-6);
  }
  exec->effort_budget_blocks = req.effort_blocks;
  if (fault.kind == WorkerFaultKind::kKillAtLevel) {
    // Simulated crash at a deepening-round boundary: sever the client
    // connection when level `kill_level` completes and soft-stop the
    // run (the degraded result is discarded — nobody can receive it).
    Socket* conn_ptr = &conn;
    ExecContext* exec_ptr = exec.get();
    int64_t kill_level = fault.kill_level;
    exec->on_level = [conn_ptr, exec_ptr, kill_level](int level) {
      if (level == kill_level) {
        conn_ptr->ShutdownBoth();
        exec_ptr->RequestSoftStop();
      }
    };
  }

  serve::QueryStats qs;
  NodeSet P("P", req.p_ids);
  NodeSet Q("Q", req.q_ids);
  auto future = service_.SubmitTwoWay(
      std::move(P), std::move(Q), static_cast<std::size_t>(req.k),
      serve::QueryOptions{exec, &qs});
  Result<std::vector<ScoredPair>> result = future.get();
  queries_served_.fetch_add(1, std::memory_order_relaxed);

  if (fault.kind == WorkerFaultKind::kKillAtLevel ||
      fault.kind == WorkerFaultKind::kKillBeforeReply) {
    // Write-back boundary (or the at-level kill already severed the
    // socket): the client never sees a reply for this attempt.
    conn.ShutdownBoth();
    return false;
  }

  TwoWayWireReply reply;
  if (result.ok()) {
    reply.status_code = StatusCode::kOk;
    reply.pairs = std::move(result).value();
    reply.degraded = qs.join.partial.degraded;
    reply.level_reached = qs.join.partial.level_reached;
    reply.eps_bound = qs.join.partial.eps_bound;
    reply.walk_steps = qs.join.walk_steps;
    reply.warm_targets = qs.warm_targets;
    reply.cold_targets = qs.cold_targets;
  } else {
    reply.status_code = result.status().code();
    reply.message = result.status().message();
    if (reply.status_code == StatusCode::kResourceExhausted) {
      reply.retry_after_micros = service_.admission().RetryAfterMicros();
    }
  }
  return SendReply(conn, frame.header.request_id, reply, fault);
}

bool WorkerServer::SendReply(Socket& conn, uint64_t request_id,
                             const TwoWayWireReply& reply,
                             const WorkerFault& fault) {
  if (fault.kind == WorkerFaultKind::kDelayReply) {
    SleepMicros(fault.delay_micros);
  }
  std::vector<uint8_t> payload = EncodeTwoWayReply(reply);
  std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kTwoWayReply, request_id, payload);
  if (fault.kind == WorkerFaultKind::kCorruptReply) {
    CorruptFramePayload(frame, options_.chaos.seed ^ request_id);
  } else if (fault.kind == WorkerFaultKind::kTruncateReply) {
    TruncateFrame(frame, options_.chaos.seed ^ request_id);
    // A truncated write is a dying peer: send the prefix, then sever.
    (void)SendBytes(conn, frame, Deadline::AfterSeconds(kSendTimeoutSeconds));
    conn.ShutdownBoth();
    return false;
  }
  return SendBytes(conn, frame, Deadline::AfterSeconds(kSendTimeoutSeconds))
      .ok();
}

void WorkerServer::Stop(int64_t drain_millis) {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  const bool was_running = running_.load(std::memory_order_relaxed);
  stopping_.store(true, std::memory_order_relaxed);
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  if (listener_.valid()) listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();

  // Drain: in-flight queries may finish and answer until the deadline.
  Deadline drain = drain_millis > 0 ? Deadline::AfterMillis(drain_millis)
                                    : Deadline::At(Deadline::Clock::now());
  while (in_flight_.load(std::memory_order_relaxed) > 0 && !drain.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Sever whatever is still connected so idle connection threads
  // unblock immediately and late replies fail fast.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Socket* conn : live_conns_) conn->ShutdownBoth();
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(conn_threads_);
    finished_conns_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  service_.Drain();
  if (was_running && !options_.checkpoint_path.empty()) {
    // Final graceful checkpoint, un-chaosed: a clean SIGTERM shutdown
    // must leave the freshest possible warm state behind.
    (void)CheckpointNow(/*chaos_armed=*/false);
  }
  running_.store(false, std::memory_order_relaxed);
}

// --------------------------------------------------------- process spawn

namespace {

volatile sig_atomic_t g_worker_signal = 0;

void WorkerSignalHandler(int) { g_worker_signal = 1; }

[[noreturn]] void RunWorkerChild(int report_fd, const Graph& g,
                                 const DhtParams& params, int d,
                                 const WorkerOptions& options) {
  // Die with the parent: a crashed coordinator/bench leaves no
  // orphaned workers behind.
  (void)prctl(PR_SET_PDEATHSIG, SIGTERM);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = WorkerSignalHandler;
  (void)sigaction(SIGTERM, &sa, nullptr);
  (void)sigaction(SIGINT, &sa, nullptr);

  WorkerServer server(g, params, d, options);
  Status started = server.Start();
  uint16_t port = started.ok() ? server.port() : 0;
  (void)!write(report_fd, &port, sizeof(port));
  (void)close(report_fd);
  if (!started.ok()) _exit(1);
  while (g_worker_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.Stop(2000);
  _exit(0);
}

}  // namespace

namespace {

/// Closes a file descriptor on every exit path. Spawn failures used
/// to rely on hand-written close() calls on each early return; RAII
/// makes "no fd outlives its scope" structural, so repeated failed
/// spawns can never bleed descriptors (see ClusterTest.
/// FailedSpawnsLeakNoFileDescriptors).
class ScopedFd {
 public:
  explicit ScopedFd(int fd = -1) : fd_(fd) {}
  ~ScopedFd() { Reset(); }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset(int fd = -1) {
    if (fd_ >= 0) (void)close(fd_);
    fd_ = fd;
  }

 private:
  int fd_;
};

}  // namespace

Result<SpawnedWorker> SpawnWorkerProcess(const Graph& g,
                                         const DhtParams& params, int d,
                                         const WorkerOptions& options) {
  int pipefd[2];
  if (pipe(pipefd) < 0) {
    return Status::IOError("pipe: " + std::string(std::strerror(errno)));
  }
  ScopedFd read_end(pipefd[0]);
  ScopedFd write_end(pipefd[1]);
  pid_t pid = fork();
  if (pid < 0) {
    return Status::IOError("fork: " + std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    read_end.Reset();
    RunWorkerChild(write_end.Release(), g, params, d, options);
  }
  write_end.Reset();
  uint16_t port = 0;
  ssize_t n = read(read_end.get(), &port, sizeof(port));
  if (n != static_cast<ssize_t>(sizeof(port)) || port == 0) {
    (void)waitpid(pid, nullptr, 0);
    return Status::IOError("worker child failed to start");
  }
  SpawnedWorker worker;
  worker.pid = static_cast<int64_t>(pid);
  worker.port = port;
  return worker;
}

Status StopWorkerProcess(const SpawnedWorker& worker, int64_t grace_millis) {
  if (worker.pid <= 0) {
    return Status::InvalidArgument("invalid worker pid");
  }
  pid_t pid = static_cast<pid_t>(worker.pid);
  (void)kill(pid, SIGTERM);
  Deadline grace = Deadline::AfterMillis(grace_millis);
  int status = 0;
  while (true) {
    pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0) return Status::OK();  // already reaped
    if (grace.Expired()) {
      (void)kill(pid, SIGKILL);
      (void)waitpid(pid, &status, 0);
      return Status::Internal("worker did not drain within grace; killed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::OK();
  return Status::Internal("worker exited abnormally (status " +
                          std::to_string(status) + ")");
}

void KillWorkerProcess(const SpawnedWorker& worker) {
  if (worker.pid <= 0) return;
  pid_t pid = static_cast<pid_t>(worker.pid);
  (void)kill(pid, SIGKILL);
  (void)waitpid(pid, nullptr, 0);
}

}  // namespace dhtjoin::cluster
