/// \file tests/cluster_test.cc
/// \brief Fault-tolerant serving tier (cluster/*): framing, wire
/// codecs, backoff, chaos schedules, and the coordinator/worker loop.
///
/// The load-bearing claim (DESIGN.md §12): every admitted query
/// returns either an answer BYTE-IDENTICAL to single-process
/// DhtJoinService execution or a typed Status — across worker kills at
/// every span boundary (import, deepening round, write-back), corrupt
/// and truncated reply frames, admission rejection storms, dead
/// endpoints, straggler hedging, and local fallback. Workers here run
/// in-process (threads, not forks) so the whole matrix is
/// TSan-checkable; bench_cluster covers the real fork/SIGKILL axis.

#include <dirent.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/coordinator.h"
#include "cluster/frame.h"
#include "cluster/supervisor.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "cluster/worker.h"
#include "obs/clock.h"
#include "serve/session.h"
#include "serve/workload.h"
#include "testing/reference.h"
#include "util/backoff.h"

// Fork-based tests (SpawnWorkerProcess, WorkerSupervisor) are skipped
// under TSan: fork() in an instrumented multi-threaded test binary
// trips the runtime's own locks, and the respawn machinery is already
// covered by the uninstrumented jobs.
#if defined(__SANITIZE_THREAD__)
#define DHTJOIN_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DHTJOIN_TSAN_BUILD 1
#endif
#endif

namespace dhtjoin {
namespace {

using cluster::ChaosOptions;
using cluster::ClusterCoordinator;
using cluster::ClusterQueryStats;
using cluster::CoordinatorOptions;
using cluster::DecodeFrameHeader;
using cluster::DecodeTwoWayReply;
using cluster::DecodeTwoWayRequest;
using cluster::DrawWorkerFault;
using cluster::EncodeFrame;
using cluster::EncodeTwoWayReply;
using cluster::EncodeTwoWayRequest;
using cluster::FrameHeader;
using cluster::FrameType;
using cluster::kFrameHeaderBytes;
using cluster::TwoWayWireReply;
using cluster::TwoWayWireRequest;
using cluster::VerifyFramePayload;
using cluster::WorkerEndpoint;
using cluster::WorkerFault;
using cluster::WorkerFaultKind;
using cluster::WorkerOptions;
using cluster::WorkerServer;
using serve::DhtJoinService;
using testing::RandomGraph;
using testing::Range;

/// Byte identity, the invariant of the whole tier: same pairs in the
/// same order with the same IEEE-754 bit patterns.
void ExpectBytesIdentical(const std::vector<ScoredPair>& got,
                          const std::vector<ScoredPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].p, want[i].p) << "pair " << i;
    EXPECT_EQ(got[i].q, want[i].q) << "pair " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
              std::bit_cast<uint64_t>(want[i].score))
        << "pair " << i;
  }
}

// ------------------------------------------------------------ framing

TEST(FrameTest, RoundTrip) {
  std::vector<uint8_t> payload;
  for (int i = 0; i < 100; ++i) payload.push_back(static_cast<uint8_t>(i));
  std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kTwoWay, 42, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  Result<FrameHeader> header = DecodeFrameHeader(
      std::span<const uint8_t>(frame.data(), kFrameHeaderBytes));
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, static_cast<uint16_t>(FrameType::kTwoWay));
  EXPECT_EQ(header->request_id, 42u);
  EXPECT_EQ(header->payload_len, payload.size());
  EXPECT_TRUE(VerifyFramePayload(*header,
                                 std::span<const uint8_t>(
                                     frame.data() + kFrameHeaderBytes,
                                     payload.size()))
                  .ok());
}

TEST(FrameTest, HeaderBytesFollowTheFixedLayout) {
  // The offsets of frame.h, little-endian, written out by hand: the
  // header bytes must not depend on how the codec lays them down.
  const std::vector<uint8_t> payload = {9, 8, 7};
  const uint64_t request_id = 0x0123456789abcdefULL;
  std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kTwoWayReply, request_id, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  std::vector<uint8_t> want(kFrameHeaderBytes, 0);
  auto put = [&want](std::size_t offset, uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      want[offset + static_cast<std::size_t>(i)] =
          static_cast<uint8_t>(v >> (8 * i));
    }
  };
  put(0, cluster::kFrameMagic, 4);
  put(4, cluster::kProtocolVersion, 2);
  put(6, static_cast<uint16_t>(FrameType::kTwoWayReply), 2);
  put(8, request_id, 8);
  put(16, payload.size(), 4);
  put(20, FrameChecksum(payload), 8);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), frame.begin()));
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         frame.begin() + kFrameHeaderBytes));
}

TEST(FrameTest, ChecksumCatchesEverySingleByteFlip) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<uint8_t> frame = EncodeFrame(FrameType::kTwoWayReply, 7,
                                           payload);
  Result<FrameHeader> header = DecodeFrameHeader(
      std::span<const uint8_t>(frame.data(), kFrameHeaderBytes));
  ASSERT_TRUE(header.ok());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = payload;
      mutated[i] = static_cast<uint8_t>(mutated[i] ^ (1u << bit));
      Status verdict = VerifyFramePayload(
          *header, std::span<const uint8_t>(mutated.data(), mutated.size()));
      EXPECT_FALSE(verdict.ok()) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(FrameTest, DecodeRejectsBadMagicAndShortLength) {
  std::vector<uint8_t> frame = EncodeFrame(FrameType::kPing, 1, {});
  std::vector<uint8_t> bad = frame;
  bad[0] ^= 0xff;  // magic is little-endian first
  EXPECT_FALSE(DecodeFrameHeader(
                   std::span<const uint8_t>(bad.data(), kFrameHeaderBytes))
                   .ok());
  EXPECT_FALSE(DecodeFrameHeader(
                   std::span<const uint8_t>(frame.data(),
                                            kFrameHeaderBytes - 1))
                   .ok());
}

TEST(ChaosTest, CorruptFramePayloadFlipsExactlyOneByteAndIsCaught) {
  std::vector<uint8_t> payload(64, 0xab);
  std::vector<uint8_t> frame = EncodeFrame(FrameType::kTwoWayReply, 9,
                                           payload);
  std::vector<uint8_t> corrupted = frame;
  cluster::CorruptFramePayload(corrupted, 1234);
  int diff = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (frame[i] != corrupted[i]) ++diff;
  }
  EXPECT_EQ(diff, 1);
  Result<FrameHeader> header = DecodeFrameHeader(
      std::span<const uint8_t>(corrupted.data(), kFrameHeaderBytes));
  ASSERT_TRUE(header.ok());  // header intact: the checksum must catch it
  EXPECT_FALSE(VerifyFramePayload(
                   *header,
                   std::span<const uint8_t>(
                       corrupted.data() + kFrameHeaderBytes,
                       corrupted.size() - kFrameHeaderBytes))
                   .ok());
}

TEST(ChaosTest, TruncateFrameIsStrictPrefix) {
  std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kTwoWayReply, 3, std::vector<uint8_t>(32, 1));
  std::vector<uint8_t> truncated = frame;
  cluster::TruncateFrame(truncated, 77);
  ASSERT_LT(truncated.size(), frame.size());
  ASSERT_GE(truncated.size(), 1u);
  EXPECT_TRUE(std::equal(truncated.begin(), truncated.end(), frame.begin()));
}

TEST(ChaosTest, FaultScheduleIsDeterministicInSeedAndOrdinal) {
  ChaosOptions opts;
  opts.seed = 99;
  opts.p_kill_before_execute = 0.2;
  opts.p_corrupt_reply = 0.2;
  opts.p_truncate_reply = 0.2;
  bool saw_fault = false;
  for (uint64_t ordinal = 0; ordinal < 64; ++ordinal) {
    WorkerFault a = DrawWorkerFault(opts, ordinal);
    WorkerFault b = DrawWorkerFault(opts, ordinal);
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
    if (a.kind != WorkerFaultKind::kNone) saw_fault = true;
  }
  EXPECT_TRUE(saw_fault);
  // Seed 0 disables everything.
  EXPECT_EQ(static_cast<int>(DrawWorkerFault(ChaosOptions{}, 5).kind),
            static_cast<int>(WorkerFaultKind::kNone));
}

// --------------------------------------------------------------- wire

TEST(WireTest, RequestRoundTripIsExact) {
  TwoWayWireRequest req;
  req.graph_fp = 0x1234567890abcdefULL;
  req.params_fp = 0xfedcba0987654321ULL;
  req.p_ids = {1, 5, 9};
  req.q_ids = {2, 3};
  req.k = 17;
  req.deadline_micros = 250000;
  req.effort_blocks = 12;
  Result<TwoWayWireRequest> back =
      DecodeTwoWayRequest(EncodeTwoWayRequest(req));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->graph_fp, req.graph_fp);
  EXPECT_EQ(back->params_fp, req.params_fp);
  EXPECT_EQ(back->p_ids, req.p_ids);
  EXPECT_EQ(back->q_ids, req.q_ids);
  EXPECT_EQ(back->k, req.k);
  EXPECT_EQ(back->deadline_micros, req.deadline_micros);
  EXPECT_EQ(back->effort_blocks, req.effort_blocks);
}

TEST(WireTest, ReplyScoresCrossTheWireBitExactly) {
  TwoWayWireReply reply;
  reply.status_code = StatusCode::kOk;
  reply.degraded = true;
  reply.level_reached = 3;
  reply.eps_bound = 0.1;  // not exactly representable: the honest case
  reply.walk_steps = 12345;
  reply.warm_targets = 7;
  reply.cold_targets = 8;
  const double awkward[] = {0.1, 1e-300, 5e-324,
                            std::nextafter(1.0, 2.0), 0.7 * 0.3};
  NodeId id = 0;
  for (double s : awkward) {
    reply.pairs.push_back(ScoredPair{id, id + 1, s});
    id += 2;
  }
  Result<TwoWayWireReply> back = DecodeTwoWayReply(EncodeTwoWayReply(reply));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->status_code, reply.status_code);
  EXPECT_EQ(back->degraded, reply.degraded);
  EXPECT_EQ(back->level_reached, reply.level_reached);
  EXPECT_EQ(std::bit_cast<uint64_t>(back->eps_bound),
            std::bit_cast<uint64_t>(reply.eps_bound));
  EXPECT_EQ(back->walk_steps, reply.walk_steps);
  ExpectBytesIdentical(back->pairs, reply.pairs);
}

TEST(WireTest, DecodeRejectsTrailingBytes) {
  TwoWayWireRequest req;
  req.k = 1;
  std::vector<uint8_t> bytes = EncodeTwoWayRequest(req);
  bytes.push_back(0);
  EXPECT_FALSE(DecodeTwoWayRequest(bytes).ok());
}

TEST(WireTest, ParamsFingerprintSeparatesConfigurations) {
  DhtParams a = DhtParams::Lambda(0.2);
  DhtParams b = DhtParams::Lambda(0.3);
  EXPECT_EQ(ParamsFingerprint(a, 6), ParamsFingerprint(a, 6));
  EXPECT_NE(ParamsFingerprint(a, 6), ParamsFingerprint(b, 6));
  EXPECT_NE(ParamsFingerprint(a, 6), ParamsFingerprint(a, 7));
}

// ------------------------------------------------------------ backoff

TEST(BackoffTest, ExponentialGrowthCapsAtMax) {
  BackoffOptions opts;
  opts.initial_micros = 1000;
  opts.max_micros = 5000;
  opts.multiplier = 2.0;
  opts.jitter = 0.0;  // deterministic schedule
  RetryBackoff backoff(opts);
  EXPECT_EQ(backoff.NextDelayMicros(), 1000);
  EXPECT_EQ(backoff.NextDelayMicros(), 2000);
  EXPECT_EQ(backoff.NextDelayMicros(), 4000);
  EXPECT_EQ(backoff.NextDelayMicros(), 5000);
  EXPECT_EQ(backoff.NextDelayMicros(), 5000);
  backoff.Reset();
  EXPECT_EQ(backoff.NextDelayMicros(), 1000);
  EXPECT_EQ(backoff.sleeps(), 6);
}

TEST(BackoffTest, RetryAfterHintIsAFloor) {
  BackoffOptions opts;
  opts.initial_micros = 1000;
  opts.max_micros = 100000;
  opts.jitter = 0.5;
  RetryBackoff backoff(opts);
  EXPECT_GE(backoff.NextDelayMicros(40000), 40000);
  // And jitter keeps an unhinted delay within [d * (1 - jitter), d].
  backoff.Reset();
  const int64_t first = backoff.NextDelayMicros();
  EXPECT_GE(first, 500);
  EXPECT_LE(first, 1000);
}

TEST(WorkloadTest, ParseRetryAfterMicrosExtractsTheHint) {
  EXPECT_EQ(serve::ParseRetryAfterMicros(
                "service overloaded: 4 queries in flight (cap 4); "
                "retry_after_micros=2500"),
            2500);
  EXPECT_EQ(serve::ParseRetryAfterMicros("no hint here"), 0);
  EXPECT_EQ(serve::ParseRetryAfterMicros(""), 0);
}

// ----------------------------------------------- end-to-end (threads)

/// Shared fixture: one graph + params, a reference single-process
/// service, and helpers to stand up in-process workers.
class ClusterE2ETest : public ::testing::Test {
 protected:
  ClusterE2ETest()
      : g_(RandomGraph(60, 200, 7)),
        params_(DhtParams::Lambda(0.2)),
        P_(Range("P", 0, 20)),
        Q_(Range("Q", 25, 55)),
        reference_(g_, params_, kD, ReferenceOptions()) {}

  static constexpr int kD = 6;
  static constexpr std::size_t kK = 15;

  static DhtJoinService::Options ReferenceOptions() {
    DhtJoinService::Options o;
    o.num_threads = 2;
    return o;
  }

  std::unique_ptr<WorkerServer> StartWorker(ChaosOptions chaos = {}) {
    WorkerOptions wo;
    wo.service.num_threads = 2;
    wo.chaos = chaos;
    auto w = std::make_unique<WorkerServer>(g_, params_, kD, wo);
    Status st = w->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return w;
  }

  CoordinatorOptions BaseOptions() {
    CoordinatorOptions o;
    o.hedge.enabled = false;  // tests opt in explicitly
    o.retry.backoff.initial_micros = 200;
    o.retry.backoff.max_micros = 2000;
    o.local_service.num_threads = 2;
    return o;
  }

  std::vector<ScoredPair> Reference(const ExecContext* exec = nullptr) {
    Result<std::vector<ScoredPair>> r =
        reference_.TwoWay(P_, Q_, kK, nullptr, exec);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  Graph g_;
  DhtParams params_;
  NodeSet P_;
  NodeSet Q_;
  DhtJoinService reference_;
};

TEST_F(ClusterE2ETest, SingleWorkerAnswersByteIdentically) {
  auto worker = StartWorker();
  ClusterCoordinator coord(g_, params_, kD, {WorkerEndpoint{worker->port()}},
                           BaseOptions());
  ClusterQueryStats stats;
  Result<std::vector<ScoredPair>> r = coord.TwoWay(P_, Q_, kK, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectBytesIdentical(*r, Reference());
  EXPECT_EQ(stats.worker_index, 0);
  EXPECT_FALSE(stats.local_fallback);
  EXPECT_EQ(stats.attempts, 1);
  worker->Stop();
}

TEST_F(ClusterE2ETest, FailoverIsByteIdenticalAtEverySpanBoundary) {
  // One chaos-armed worker that kills EVERY request at the given
  // boundary, one clean worker: whatever the routing order, every
  // query must come back byte-identical via retry/failover.
  const std::vector<ScoredPair> want = Reference();
  struct Case {
    const char* name;
    ChaosOptions chaos;
  };
  std::vector<Case> cases;
  {
    Case c{"kill_before_execute", {}};
    c.chaos.seed = 11;
    c.chaos.p_kill_before_execute = 1.0;
    cases.push_back(c);
  }
  {
    Case c{"kill_at_level", {}};
    c.chaos.seed = 12;
    c.chaos.p_kill_at_level = 1.0;
    c.chaos.kill_level = 1;
    cases.push_back(c);
  }
  {
    Case c{"kill_before_reply", {}};
    c.chaos.seed = 13;
    c.chaos.p_kill_before_reply = 1.0;
    cases.push_back(c);
  }
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.name);
    auto bad = StartWorker(tc.chaos);
    auto good = StartWorker();
    ClusterCoordinator coord(
        g_, params_, kD,
        {WorkerEndpoint{bad->port()}, WorkerEndpoint{good->port()}},
        BaseOptions());
    int64_t total_retries = 0;
    for (int i = 0; i < 4; ++i) {
      ClusterQueryStats stats;
      Result<std::vector<ScoredPair>> r = coord.TwoWay(P_, Q_, kK, &stats);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectBytesIdentical(*r, want);
      total_retries += stats.retries;
    }
    // At least one of the four queries must have hit the chaos worker
    // first and failed over.
    EXPECT_GT(total_retries, 0);
    bad->Stop();
    good->Stop();
  }
}

TEST_F(ClusterE2ETest, CorruptAndTruncatedRepliesAreRejectedAndRetried) {
  const std::vector<ScoredPair> want = Reference();
  for (const bool truncate : {false, true}) {
    SCOPED_TRACE(truncate ? "truncate" : "corrupt");
    ChaosOptions chaos;
    chaos.seed = 21;
    if (truncate) {
      chaos.p_truncate_reply = 1.0;
    } else {
      chaos.p_corrupt_reply = 1.0;
    }
    auto bad = StartWorker(chaos);
    auto good = StartWorker();
    ClusterCoordinator coord(
        g_, params_, kD,
        {WorkerEndpoint{bad->port()}, WorkerEndpoint{good->port()}},
        BaseOptions());
    for (int i = 0; i < 4; ++i) {
      Result<std::vector<ScoredPair>> r = coord.TwoWay(P_, Q_, kK);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectBytesIdentical(*r, want);  // never a silently wrong answer
    }
    bad->Stop();
    good->Stop();
  }
}

TEST_F(ClusterE2ETest, FinishedConnectionThreadsAreJoined) {
  // The coordinator opens one connection per RPC attempt, so a worker
  // serves one short-lived thread per query; finished ones must be
  // joined as new connections arrive, not kept (with their stacks)
  // until Stop.
  WorkerOptions wo;
  wo.service.num_threads = 1;
  WorkerServer worker(g_, params_, kD, wo);
  ASSERT_TRUE(worker.Start().ok());
  ClusterCoordinator coord(g_, params_, kD, {WorkerEndpoint{worker.port()}},
                           BaseOptions());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(coord.TwoWay(P_, Q_, kK).ok());
  }
  EXPECT_GE(worker.queries_served(), 40);
  EXPECT_LE(worker.connection_threads(), 4u);
  worker.Stop();
  EXPECT_EQ(worker.connection_threads(), 0u);
}

TEST_F(ClusterE2ETest, AdmissionRejectionBacksOffThenSurfacesTyped) {
  WorkerOptions wo;
  wo.service.num_threads = 2;
  // A cost ceiling of 1 rejects every real query at admission.
  wo.service.admission.max_estimated_cost = 1;
  WorkerServer worker(g_, params_, kD, wo);
  ASSERT_TRUE(worker.Start().ok());

  CoordinatorOptions copts = BaseOptions();
  copts.retry.max_attempts = 3;
  ClusterCoordinator coord(g_, params_, kD, {WorkerEndpoint{worker.port()}},
                           copts);
  ClusterQueryStats stats;
  Result<std::vector<ScoredPair>> r = coord.TwoWay(P_, Q_, kK, &stats);
  // Load shedding must SHED: no local fallback that would defeat the
  // worker's admission decision.
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(stats.local_fallback);
  EXPECT_EQ(stats.retries, copts.retry.max_attempts - 1);
  EXPECT_GE(stats.retry_after_hint_micros, 1000);  // admission floor
  worker.Stop();
}

TEST_F(ClusterE2ETest, DeadWorkersDegradeToByteIdenticalLocalExecution) {
  auto worker = StartWorker();
  const uint16_t dead_port = worker->port();
  worker->Stop();  // nobody listens here any more

  ClusterCoordinator coord(g_, params_, kD, {WorkerEndpoint{dead_port}},
                           BaseOptions());
  ClusterQueryStats stats;
  Result<std::vector<ScoredPair>> r = coord.TwoWay(P_, Q_, kK, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectBytesIdentical(*r, Reference());
  EXPECT_TRUE(stats.local_fallback);
  EXPECT_EQ(stats.worker_index, -1);

  // With fallback disabled the same situation is a typed error.
  CoordinatorOptions no_fallback = BaseOptions();
  no_fallback.allow_local_fallback = false;
  ClusterCoordinator strict(g_, params_, kD, {WorkerEndpoint{dead_port}},
                            no_fallback);
  Result<std::vector<ScoredPair>> r2 = strict.TwoWay(P_, Q_, kK);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kIOError);
}

TEST_F(ClusterE2ETest, FingerprintMismatchIsSurfacedAndRoutedAround) {
  // A worker serving a DIFFERENT graph: well-formed answers over the
  // wrong data — the worst silent-corruption case.
  Graph other = RandomGraph(60, 200, 8);
  WorkerOptions wo;
  wo.service.num_threads = 2;
  WorkerServer impostor(other, params_, kD, wo);
  ASSERT_TRUE(impostor.Start().ok());

  ClusterCoordinator coord(g_, params_, kD,
                           {WorkerEndpoint{impostor.port()}}, BaseOptions());
  Status ping = coord.PingAll();
  EXPECT_EQ(ping.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(coord.WorkerHealthy(0));
  EXPECT_EQ(coord.NumHealthy(), 0u);

  // Queries never reach the impostor; local execution stays correct.
  ClusterQueryStats stats;
  Result<std::vector<ScoredPair>> r = coord.TwoWay(P_, Q_, kK, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectBytesIdentical(*r, Reference());
  EXPECT_TRUE(stats.local_fallback);
  impostor.Stop();
}

TEST_F(ClusterE2ETest, EffortDegradationIsByteIdenticalAcrossTheWire) {
  // The effort budget is the clock-free degradation anchor: the same
  // budget must cut at the same level locally and remotely, producing
  // identical partial answers (DESIGN.md §9 + §12).
  ExecContext local_exec;
  local_exec.effort_budget_blocks = 2;
  const std::vector<ScoredPair> want = Reference(&local_exec);

  auto worker = StartWorker();
  ClusterCoordinator coord(g_, params_, kD, {WorkerEndpoint{worker->port()}},
                           BaseOptions());
  ExecContext remote_exec;
  remote_exec.effort_budget_blocks = 2;
  ClusterQueryStats stats;
  Result<std::vector<ScoredPair>> r =
      coord.TwoWay(P_, Q_, kK, &stats, &remote_exec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectBytesIdentical(*r, want);
  EXPECT_TRUE(stats.degraded);
  EXPECT_LT(stats.level_reached, kD);
  EXPECT_GT(stats.eps_bound, 0.0);
  worker->Stop();
}

TEST_F(ClusterE2ETest, HedgingRacesAStragglerAndStaysByteIdentical) {
  ChaosOptions slow;
  slow.seed = 31;
  slow.p_delay_reply = 1.0;
  slow.delay_micros = 150000;  // far past the hedge threshold
  auto straggler = StartWorker(slow);
  auto fast = StartWorker();

  CoordinatorOptions copts = BaseOptions();
  copts.hedge.enabled = true;
  copts.hedge.warmup_samples = 0;  // hedge from the first query
  copts.hedge.min_delay_micros = 2000;
  copts.hedge.max_delay_micros = 5000;
  ClusterCoordinator coord(
      g_, params_, kD,
      {WorkerEndpoint{straggler->port()}, WorkerEndpoint{fast->port()}},
      copts);

  const std::vector<ScoredPair> want = Reference();
  int hedged = 0;
  int hedge_won = 0;
  for (int i = 0; i < 4; ++i) {
    ClusterQueryStats stats;
    Result<std::vector<ScoredPair>> r = coord.TwoWay(P_, Q_, kK, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectBytesIdentical(*r, want);
    if (stats.hedged) ++hedged;
    if (stats.hedge_won) ++hedge_won;
  }
  // Whenever the straggler was primary, the hedge must have fired and
  // beaten the 150 ms delay.
  EXPECT_GT(hedged, 0);
  EXPECT_GT(hedge_won, 0);
  straggler->Stop();
  fast->Stop();
}

TEST_F(ClusterE2ETest, HeartbeatsTrackWorkerDeathAndQueriesKeepFlowing) {
  auto w0 = StartWorker();
  auto w1 = StartWorker();
  ClusterCoordinator coord(
      g_, params_, kD,
      {WorkerEndpoint{w0->port()}, WorkerEndpoint{w1->port()}},
      BaseOptions());
  EXPECT_TRUE(coord.PingAll().ok());
  EXPECT_EQ(coord.NumHealthy(), 2u);

  w0->Abort();  // sudden death
  (void)coord.PingAll();
  (void)coord.PingAll();  // miss_threshold = 2
  EXPECT_FALSE(coord.WorkerHealthy(0));
  EXPECT_EQ(coord.NumHealthy(), 1u);

  const std::vector<ScoredPair> want = Reference();
  for (int i = 0; i < 3; ++i) {
    ClusterQueryStats stats;
    Result<std::vector<ScoredPair>> r = coord.TwoWay(P_, Q_, kK, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectBytesIdentical(*r, want);
    EXPECT_EQ(stats.worker_index, 1);
  }
  w1->Stop();
}

TEST_F(ClusterE2ETest, ChaosSoakNeverHangsOrAnswersWrong) {
  // Seeded mixed-fault soak over two chaos-armed workers: every query
  // either returns the byte-identical answer (possibly after retries,
  // hedges, or local fallback) or a typed Status. Runs under TSan in
  // CI, so it also shakes out races in the sever/drain paths.
  ChaosOptions chaos;
  chaos.seed = 99;
  chaos.p_kill_before_execute = 0.10;
  chaos.p_kill_at_level = 0.10;
  chaos.p_kill_before_reply = 0.10;
  chaos.p_delay_reply = 0.05;
  chaos.delay_micros = 20000;
  chaos.p_corrupt_reply = 0.10;
  chaos.p_truncate_reply = 0.10;
  ChaosOptions chaos2 = chaos;
  chaos2.seed = 100;
  auto w0 = StartWorker(chaos);
  auto w1 = StartWorker(chaos2);

  CoordinatorOptions copts = BaseOptions();
  copts.hedge.enabled = true;
  copts.hedge.warmup_samples = 4;
  copts.hedge.min_delay_micros = 2000;
  copts.hedge.max_delay_micros = 10000;
  ClusterCoordinator coord(
      g_, params_, kD,
      {WorkerEndpoint{w0->port()}, WorkerEndpoint{w1->port()}},
      copts);
  coord.StartHeartbeats();

  const std::vector<ScoredPair> want = Reference();
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    Result<std::vector<ScoredPair>> r = coord.TwoWay(P_, Q_, kK);
    if (r.ok()) {
      ExpectBytesIdentical(*r, want);
      ++completed;
    } else {
      // Typed, never silent: the only tolerable failure shapes.
      EXPECT_NE(r.status().code(), StatusCode::kOk);
    }
  }
  // Local fallback means chaos alone cannot zero out the run.
  EXPECT_EQ(completed, 40);
  coord.StopHeartbeats();
  w0->Stop();
  w1->Stop();
}

TEST(WorkerServerTest, StopIsIdempotentAndDrains) {
  Graph g = RandomGraph(30, 90, 3);
  DhtParams params = DhtParams::Lambda(0.2);
  WorkerOptions wo;
  wo.service.num_threads = 1;
  WorkerServer server(g, params, 4, wo);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
  server.Abort();
}

// --------------------------------------------- process supervision

/// Open descriptors of this process, via /proc/self/fd. The DIR's own
/// fd is included in every call, so before/after comparisons cancel.
int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

TEST(WorkerProcessTest, FailedAndCleanSpawnsLeakNoFileDescriptors) {
#ifdef DHTJOIN_TSAN_BUILD
  GTEST_SKIP() << "fork-based; covered by the uninstrumented jobs";
#endif
  Graph g = RandomGraph(30, 90, 3);
  DhtParams params = DhtParams::Lambda(0.2);
  // Occupy a port so every spawned child fails its bind and reports
  // failure back through the status pipe.
  Result<cluster::Listener> occupied = cluster::Listener::BindLoopback(0);
  ASSERT_TRUE(occupied.ok());

  WorkerOptions wo;
  wo.service.num_threads = 1;
  wo.port = occupied->port();
  const int before = CountOpenFds();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 8; ++i) {
    Result<cluster::SpawnedWorker> r =
        cluster::SpawnWorkerProcess(g, params, 3, wo);
    EXPECT_FALSE(r.ok()) << "bind to an occupied port succeeded";
  }
  EXPECT_EQ(CountOpenFds(), before) << "failed spawns leaked descriptors";

  // The success path must be just as clean once the worker is stopped.
  wo.port = 0;
  Result<cluster::SpawnedWorker> w =
      cluster::SpawnWorkerProcess(g, params, 3, wo);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_TRUE(cluster::StopWorkerProcess(*w, 2000).ok());
  EXPECT_EQ(CountOpenFds(), before) << "spawn/stop cycle leaked descriptors";
}

/// Respawn tests share this setup: the supervisor MUST fork its agent
/// while the test process has no live service threads, so everything
/// threaded (reference service, coordinator) is built afterwards —
/// the same ordering the CLI uses.
struct RespawnRig {
  Graph g = RandomGraph(60, 200, 7);
  DhtParams params = DhtParams::Lambda(0.2);
  NodeSet P = Range("P", 0, 20);
  NodeSet Q = Range("Q", 25, 55);
  static constexpr int kD = 6;
  static constexpr std::size_t kK = 15;

  CoordinatorOptions Options(cluster::WorkerSupervisor* sup,
                             const obs::Clock* clock) const {
    CoordinatorOptions o;
    o.hedge.enabled = false;
    o.retry.backoff.initial_micros = 200;
    o.retry.backoff.max_micros = 2000;
    o.local_service.num_threads = 2;
    o.clock = clock;
    o.supervisor = sup;
    o.respawn.enabled = true;
    o.respawn.backoff.initial_micros = 100000;  // 100ms, 200ms, 400ms...
    o.respawn.backoff.max_micros = 10000000;
    o.respawn.backoff.multiplier = 2.0;
    o.respawn.backoff.jitter = 0.0;  // exact schedule, pinned below
    return o;
  }
};

TEST(RespawnTest, BackoffScheduleAndLifetimeCapAreHonored) {
#ifdef DHTJOIN_TSAN_BUILD
  GTEST_SKIP() << "fork-based; covered by the uninstrumented jobs";
#endif
  RespawnRig rig;
  cluster::WorkerSlot slot;
  slot.options.service.num_threads = 2;
  auto sup = cluster::WorkerSupervisor::Start(rig.g, rig.params, rig.kD,
                                              {slot});
  ASSERT_TRUE(sup.ok()) << sup.status().ToString();
  Result<cluster::SpawnedWorker> w = (*sup)->Spawn(0);
  ASSERT_TRUE(w.ok()) << w.status().ToString();

  obs::FakeClock clock;
  CoordinatorOptions copts = rig.Options(sup->get(), &clock);
  copts.respawn.max_respawns = 2;
  ClusterCoordinator coord(rig.g, rig.params, rig.kD,
                           {WorkerEndpoint{w->port}}, copts);
  ASSERT_TRUE(coord.PingAll().ok());
  const std::vector<ScoredPair> want = [&] {
    Result<std::vector<ScoredPair>> r =
        coord.local_service().TwoWay(rig.P, rig.Q, rig.kK);
    EXPECT_TRUE(r.ok());
    return *r;
  }();

  auto kill_and_observe = [&] {
    ASSERT_TRUE((*sup)->Kill(0).ok());
    (void)coord.PingAll();
    (void)coord.PingAll();  // miss_threshold = 2
    ASSERT_FALSE(coord.WorkerHealthy(0));
  };

  // Death #1: the first pass schedules, the relaunch happens only
  // once the FULL first backoff delay elapsed on the injected clock.
  kill_and_observe();
  EXPECT_EQ(coord.TryRespawns(), 0);  // schedules, does not spawn
  clock.AdvanceMillis(99);
  EXPECT_EQ(coord.TryRespawns(), 0);
  EXPECT_EQ(coord.WorkerRespawns(0), 0);
  clock.AdvanceMillis(2);
  EXPECT_EQ(coord.TryRespawns(), 1);
  EXPECT_EQ(coord.WorkerRespawns(0), 1);
  EXPECT_TRUE(coord.WorkerHealthy(0));
  {
    ClusterQueryStats stats;
    Result<std::vector<ScoredPair>> r = coord.TwoWay(rig.P, rig.Q, rig.kK,
                                                     &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectBytesIdentical(*r, want);
    EXPECT_EQ(stats.worker_index, 0);  // the RESPAWNED worker answered
    EXPECT_FALSE(stats.local_fallback);
  }

  // Death #2: the backoff never resets, so the delay doubles.
  kill_and_observe();
  EXPECT_EQ(coord.TryRespawns(), 0);
  clock.AdvanceMillis(199);
  EXPECT_EQ(coord.TryRespawns(), 0);
  clock.AdvanceMillis(2);
  EXPECT_EQ(coord.TryRespawns(), 1);
  EXPECT_EQ(coord.WorkerRespawns(0), 2);

  // Death #3: at max_respawns the slot is abandoned for good, and
  // queries degrade to byte-identical local execution.
  kill_and_observe();
  clock.AdvanceMillis(100000);
  EXPECT_EQ(coord.TryRespawns(), 0);
  EXPECT_EQ(coord.WorkerRespawns(0), 2);
  EXPECT_FALSE(coord.WorkerHealthy(0));
  ClusterQueryStats stats;
  Result<std::vector<ScoredPair>> r = coord.TwoWay(rig.P, rig.Q, rig.kK,
                                                   &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectBytesIdentical(*r, want);
  EXPECT_TRUE(stats.local_fallback);
}

TEST(RespawnTest, RespawnedWorkerRejoinsWarmAndByteIdentical) {
#ifdef DHTJOIN_TSAN_BUILD
  GTEST_SKIP() << "fork-based; covered by the uninstrumented jobs";
#endif
  RespawnRig rig;
  const std::string snap = ::testing::TempDir() + "respawn_warm.snap";
  std::remove(snap.c_str());
  cluster::WorkerSlot slot;
  slot.options.service.num_threads = 2;
  slot.options.checkpoint_path = snap;
  auto sup = cluster::WorkerSupervisor::Start(rig.g, rig.params, rig.kD,
                                              {slot});
  ASSERT_TRUE(sup.ok()) << sup.status().ToString();
  Result<cluster::SpawnedWorker> w = (*sup)->Spawn(0);
  ASSERT_TRUE(w.ok()) << w.status().ToString();

  obs::FakeClock clock;
  ClusterCoordinator coord(rig.g, rig.params, rig.kD,
                           {WorkerEndpoint{w->port}},
                           rig.Options(sup->get(), &clock));
  ASSERT_TRUE(coord.PingAll().ok());

  // Warm the worker's score cache, then stop it gracefully: the
  // SIGTERM path writes the final checkpoint.
  std::vector<ScoredPair> want;
  {
    ClusterQueryStats stats;
    Result<std::vector<ScoredPair>> r = coord.TwoWay(rig.P, rig.Q, rig.kK,
                                                     &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(stats.worker_index, 0);
    want = *r;
  }
  ASSERT_TRUE((*sup)->StopSlot(0, 5000).ok());

  // The coordinator sees an ordinary death and respawns the slot; the
  // relaunched worker must warm-load the checkpoint.
  (void)coord.PingAll();
  (void)coord.PingAll();
  ASSERT_FALSE(coord.WorkerHealthy(0));
  EXPECT_EQ(coord.TryRespawns(), 0);
  clock.AdvanceMillis(101);
  ASSERT_EQ(coord.TryRespawns(), 1);
  ASSERT_TRUE(coord.WorkerHealthy(0));

  ClusterQueryStats stats;
  Result<std::vector<ScoredPair>> r = coord.TwoWay(rig.P, rig.Q, rig.kK,
                                                   &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectBytesIdentical(*r, want);
  EXPECT_EQ(stats.worker_index, 0);
  // The restored cache must serve this query WARM — the observable
  // difference between a warm rejoin and a silent cold restart.
  EXPECT_GT(stats.warm_targets, 0);
  EXPECT_EQ(stats.cold_targets, 0);
  std::remove(snap.c_str());
}

TEST(RespawnTest, FingerprintMismatchedWorkerIsQuarantinedNotRespawned) {
#ifdef DHTJOIN_TSAN_BUILD
  GTEST_SKIP() << "fork-based; covered by the uninstrumented jobs";
#endif
  RespawnRig rig;
  // The slot is mis-deployed: it serves a DIFFERENT graph, so every
  // spawn comes back fingerprint-mismatched. Respawning cannot fix a
  // deployment bug — the slot must be quarantined, not crash-looped.
  Graph wrong = RandomGraph(60, 200, 8);
  cluster::WorkerSlot slot;
  slot.graph = &wrong;
  slot.options.service.num_threads = 2;
  auto sup = cluster::WorkerSupervisor::Start(rig.g, rig.params, rig.kD,
                                              {slot});
  ASSERT_TRUE(sup.ok()) << sup.status().ToString();
  Result<cluster::SpawnedWorker> w = (*sup)->Spawn(0);
  ASSERT_TRUE(w.ok()) << w.status().ToString();

  obs::FakeClock clock;
  ClusterCoordinator coord(rig.g, rig.params, rig.kD,
                           {WorkerEndpoint{w->port}},
                           rig.Options(sup->get(), &clock));
  Status ping = coord.PingAll();
  EXPECT_EQ(ping.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(coord.WorkerQuarantined(0));
  EXPECT_FALSE(coord.WorkerHealthy(0));

  // No amount of elapsed time respawns a quarantined slot.
  for (int round = 0; round < 4; ++round) {
    clock.AdvanceMillis(100000);
    EXPECT_EQ(coord.TryRespawns(), 0);
  }
  EXPECT_EQ(coord.WorkerRespawns(0), 0);
  EXPECT_TRUE(coord.WorkerQuarantined(0));

  // Queries never touch the impostor; local execution stays correct.
  ClusterQueryStats stats;
  Result<std::vector<ScoredPair>> r = coord.TwoWay(rig.P, rig.Q, rig.kK,
                                                   &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(stats.local_fallback);
  Result<std::vector<ScoredPair>> want =
      coord.local_service().TwoWay(rig.P, rig.Q, rig.kK);
  ASSERT_TRUE(want.ok());
  ExpectBytesIdentical(*r, *want);
  ASSERT_TRUE((*sup)->Kill(0).ok());
}

TEST(TransportTest, ConnectToDeadPortFailsTyped) {
  // Bind-then-close gives a port with (very likely) no listener.
  Result<cluster::Listener> listener = cluster::Listener::BindLoopback(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();
  listener->ShutdownBoth();
  *listener = cluster::Listener();  // closed
  Result<cluster::Socket> conn = cluster::ConnectLoopback(
      port, Deadline::AfterMillis(200));
  EXPECT_FALSE(conn.ok());
}

}  // namespace
}  // namespace dhtjoin
