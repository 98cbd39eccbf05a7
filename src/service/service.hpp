#pragma once
// AdderService — arithmetic as a service: a concurrent request server
// over the row-major ACA evaluator (sim/row_kernel.hpp).
//
// The paper's processor sketch (Sec. 5) treats the VLSA as a shared
// functional unit: many in-flight additions, almost all answered in one
// cycle, the rare ER flag paying a recovery penalty.  This layer is the
// system-scale version of that argument.  Producers submit operand
// pairs into a bounded MPMC queue; a dispatcher takes whatever its
// queue holds, up to `max_batch`, without waiting for more (under load
// it may pause between pops so batches grow; see `max_batch`), evaluates
// each request in its own limbs (`sim::row_aca_add`: sum, ER flag and
// mispredict bit), and completes the unflagged majority immediately —
// soundness (`wrong` implies `flagged`, tested in
// tests/test_batch_engine.cpp) guarantees the fast path returns the
// exact sum.  The same dispatcher recomputes each flagged request's
// exact sum in place and charges it to a modeled serial *recovery
// lane*: `PipelineConfig::recovery_cycles` of extra service time per
// request, so adversarial traffic (long propagate chains) visibly
// congests the tail instead of averaging away.  The lane is a cycle
// model, not a thread — like the paper's VLSA, which stalls the same
// unit for the recovery cycles.
//
// Two clocks. (1) Wall time: nanosecond latency histograms, for real
// throughput numbers (optional — `record_wall_time`). (2) A modeled
// cycle clock: each batch dispatch is one VLSA cycle, a fast-path
// request completes the cycle after dispatch, and the recovery lane is
// a serial resource at `recovery_cycles` per flagged request.  The
// modeled histogram is what makes the "fast almost always, slow
// rarely" claim quantitative (p50 vs p999) and — unlike wall time — is
// deterministic in pump mode (below).
//
// Backpressure: `OverflowPolicy::Reject` fails submissions when the
// queue is full (counted in `service.rejected`); `Block` throttles the
// producer.  Either way memory stays bounded under overload.  Each
// shard's queue (service/bounded_queue.hpp) keeps its requests in a
// ring that grows to its working depth and then allocates nothing, and
// it has one push and one pop:
// admission pushes each shard's share of a call in one `push`, waiting
// for space only under Block in worker mode, and every dispatcher runs
// one loop over a waiting `pop_batch` on its own shard's queue.  pump()
// takes pops that do not wait.
//
// Determinism: with `workers == 0` nothing runs concurrently — the
// caller drives dispatch with `pump()` (the destructor pumps any
// leftovers).  Same seed + same submission order then yields a
// bit-identical telemetry snapshot, the reproducibility anchor for the
// whole layer (tests/test_service.cpp).  With `workers >= 1` batching
// depends on real arrival timing, so only the counters (totals, flags)
// are schedule-independent; histogram shapes vary with load.
//
// Sharding (`ServiceConfig::shards`, docs/scaling.md): above one shard
// the service becomes N independent {queue, dispatchers, clocks}
// units — the single global MPMC queue stops being the serialization
// point.  Submissions route by operand hash or round-robin
// (`RoutePolicy`), and a shard's dispatchers pop only its own queue.
// Each shard owns a modeled cycle clock (one VLSA functional unit per
// shard), its own modeled recovery lane, and labeled per-shard metrics
// ("service.submitted{shard=3}").  shards == 1 is byte-for-byte the
// pre-sharding service — no routing, no labels, same snapshots.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "service/bounded_queue.hpp"
#include "sim/row_kernel.hpp"
#include "sim/vlsa_pipeline.hpp"
#include "telemetry/registry.hpp"
#include "util/bitvec.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace vlsa::trace {
class DriftMonitor;
class PostmortemRing;
}  // namespace vlsa::trace

namespace vlsa::service {

using util::BitVec;

/// How a full submission queue treats new requests.
enum class OverflowPolicy {
  Block,   ///< producer waits for space (closed-loop throttling)
  Reject,  ///< submission fails fast, counted in service.rejected
};

/// How submissions pick a shard (meaningful only when shards > 1).
enum class RoutePolicy {
  /// Operand hash — deterministic, so a Block-policy retry of the same
  /// frame lands on the same (still-full) shard and backpressure stays
  /// per-shard instead of leaking onto a neighbor.
  Hash,
  /// Strict rotation — perfectly even under any operand distribution,
  /// at the cost of one shared atomic counter on the submit path.
  RoundRobin,
};

/// What `ServiceConfig::max_batch = 0` means, on every ISA tier.
inline constexpr int kDefaultMaxBatch = 256;

struct ServiceConfig {
  /// width / window / recovery_cycles of the modeled VLSA datapath.
  sim::PipelineConfig pipeline;
  /// Dispatcher threads, TOTAL across shards.  0 = pump mode: no
  /// threads, the caller calls pump() — fully deterministic (see file
  /// comment).  In sharded mode each shard gets max(1, workers/shards)
  /// dispatchers, so the effective total (reflected back into this
  /// field by the constructor) is never below `shards`.
  int workers = 1;
  /// Shard count: independent {queue, dispatchers, clocks} units.
  /// 1 (the default) is byte-for-byte the pre-sharding service: one
  /// queue, no routing, no per-shard metric labels.  Each shard models
  /// one VLSA functional unit with its own cycle clock, so the modeled
  /// throughput scales with shards even where the host's cores do not
  /// (docs/scaling.md).
  int shards = 1;
  /// Shard selection for submissions (shards > 1 only).
  RoutePolicy route = RoutePolicy::Hash;
  /// Most requests one dispatcher pop takes.  0 (the default) means
  /// kDefaultMaxBatch; any positive value is used as given.  1 gives
  /// the no-batching baseline the throughput bench compares against.
  /// A pop never waits for a batch to fill: it takes what the queue
  /// holds, up to this bound.  Only after a pop that took more than one
  /// request yet fewer than this bound (and than `queue_capacity`) does
  /// a worker sleep for 20 µs before the next pop, so batches grow
  /// under load while a lone request, or a backlog, goes straight
  /// through.  Each request is evaluated in its own limbs, on every ISA
  /// tier, so the bound sets only how much one pop, one modeled cycle
  /// and one round of telemetry cover, not the cost of an evaluation.
  int max_batch = 0;
  /// Submission queue bound, PER SHARD — the backpressure knob.
  std::size_t queue_capacity = 1024;
  OverflowPolicy overflow = OverflowPolicy::Block;
  /// Record wall-clock latency histograms (service.latency_ns).  Off
  /// for bit-identical fixed-seed telemetry.  Also gates queue-wait
  /// trace spans (they need the arrival timestamp).
  bool record_wall_time = true;
  /// Observability hooks (trace/postmortem.hpp, trace/drift.hpp); both
  /// non-owning and optional — when set they must outlive the service.
  /// The postmortem ring captures every ER=1 request's operands; the
  /// drift monitor ingests one (count, flagged) sample per batch.
  /// Request-path *trace events* need no hook: the service emits them
  /// whenever a trace::TraceSession is active (one relaxed atomic load
  /// per batch when idle).
  trace::PostmortemRing* postmortem = nullptr;
  trace::DriftMonitor* drift = nullptr;
};

/// What the requester gets back.  Both buffers a request brought in
/// come back in it: `sum` lives in the first operand's buffer, and `b`
/// is the second operand.  A dispatcher therefore frees no buffer a
/// caller allocated; they die, or are reused, on the caller's side.
struct Completion {
  BitVec sum;              ///< always the exact sum
  BitVec b;                ///< the second operand, handed back unchanged
  bool flagged = false;    ///< ER fired; took the recovery lane
  bool speculative_wrong = false;  ///< the one-cycle answer was wrong
  long long latency_cycles = 0;    ///< modeled: queue wait + service
};

class AdderService {
 public:
  /// `registry`, when given, must outlive the service (metrics from
  /// several services can share one registry); otherwise the service
  /// owns one, reachable via registry().
  explicit AdderService(const ServiceConfig& config,
                        telemetry::Registry* registry = nullptr);

  /// Drains: every accepted request is completed before destruction
  /// returns (workers joined, pump-mode leftovers pumped).  No promise
  /// is ever dropped.
  ~AdderService();

  AdderService(const AdderService&) = delete;
  AdderService& operator=(const AdderService&) = delete;

  /// Submit one addition (operands must match the configured width).
  /// Returns std::nullopt when the queue is full under Reject.  Throws
  /// std::runtime_error after close(), and std::invalid_argument on a
  /// width mismatch.  In pump mode a full queue returns std::nullopt
  /// under either policy (blocking would deadlock — there is no
  /// consumer until the caller pumps).
  std::optional<std::future<Completion>> submit(BitVec a, BitVec b);

  /// Submit a batch of additions in one queue transaction — the
  /// producer-side mirror of the dispatcher's batch pop, and the
  /// way to saturate the service (per-submission locking caps a
  /// producer long before the evaluation does).  Element i of the
  /// result corresponds to ops[i]; std::nullopt marks a rejected
  /// request (Reject policy or pump mode with a full queue — under
  /// Block everything is accepted).  Same throw conditions as submit().
  std::vector<std::optional<std::future<Completion>>> submit_many(
      std::vector<std::pair<BitVec, BitVec>> ops);

  /// Completion delivery for callers that cannot block on a future —
  /// the network front-end's event loops (src/net/server.cpp).  The
  /// callback runs on the dispatcher that evaluated the request (the
  /// pump() caller in pump mode), so it must be cheap and must not call
  /// back into submit paths.
  using CompletionCallback = std::function<void(Completion)>;

  /// Non-blocking submit with callback completion: pushes with
  /// try-semantics REGARDLESS of the overflow policy (an event loop can
  /// never afford to block) and returns false when the queue is full —
  /// the caller maps that onto its own backpressure currency (the net
  /// server stops reading the socket under Block, sends a REJECTED
  /// frame under Reject).  A false return is counted in
  /// service.rejected only under Reject; under Block it is a stall, not
  /// a rejection — and the operands are handed back through the rvalue
  /// references untouched, so the caller can park the SAME frame for a
  /// retry instead of copying operands defensively on every attempt.
  /// Same throw conditions as submit(); a throw after close() hands the
  /// operands back too.
  bool try_submit_callback(BitVec&& a, BitVec&& b,
                           CompletionCallback callback);

  /// Pump mode only: dispatch and complete at most one batch on the
  /// calling thread.  Returns requests completed; 0 when the queue is
  /// empty.
  std::size_t pump();

  /// Block until every accepted request has completed.
  void flush();

  /// Stop accepting; drain everything in flight.  Idempotent; the
  /// destructor calls it.
  void close();

  const ServiceConfig& config() const { return config_; }
  telemetry::Registry& registry() { return *registry_; }
  const telemetry::Registry& registry() const { return *registry_; }

  /// Modeled cycle clock: the furthest-advanced shard clock (each shard
  /// ticks once per batch it dispatches).  With shards == 1 this is the
  /// pre-sharding global clock.  The max is the modeled *makespan* —
  /// N independent functional units running in parallel finish when the
  /// busiest one does — which is what the scaling bench divides request
  /// counts by (bench/service_throughput.cpp, docs/scaling.md).
  long long now_cycles() const;

  /// Effective shard count (>= 1).
  int shards() const { return config_.shards; }

  /// One shard's modeled cycle clock (index in [0, shards())).
  long long shard_cycles(int shard) const;

  /// Depth of one shard's submission queue (tests, /statusz).
  std::size_t shard_queue_depth(int shard) const;

  /// The shard a request with these operands routes to — exposed so
  /// tests and capacity planners can predict placement under Hash
  /// routing (RoundRobin placement depends on global submission order).
  std::size_t route_of(const BitVec& a, const BitVec& b) const;

 private:
  struct Request {
    BitVec a, b;
    /// Engaged only on the future paths (submit/submit_many) — a
    /// default-constructed std::promise allocates its shared state, so
    /// the callback path (one request per network frame) must not pay
    /// for a promise it never reads.
    std::optional<std::promise<Completion>> promise;
    /// When set, completion is delivered here instead of the promise.
    CompletionCallback callback;
    long long arrival_cycle = 0;
    std::chrono::steady_clock::time_point arrival_time;
  };

  /// One shard: a complete, independent copy of the pre-sharding
  /// service's data plane — submission queue, dispatcher threads,
  /// modeled clocks — plus its labeled metrics.  Shards share only the
  /// engine code, the registry, and the global inflight/closed
  /// bookkeeping.
  struct Shard {
    explicit Shard(std::size_t queue_capacity) : queue(queue_capacity) {}

    BoundedQueue<Request> queue;
    std::vector<std::thread> workers;

    /// This shard's modeled cycle clock (1 tick per dispatched batch).
    /// Relaxed everywhere, same audit as the old global vclock below.
    std::atomic<long long> vclock{0};
    util::Mutex recovery_clock_mutex;
    /// Modeled cycle this shard's serial recovery lane frees up.
    long long recovery_free_at GUARDED_BY(recovery_clock_mutex) = 0;

    // Labeled per-shard metrics ("service.submitted{shard=3}" etc.),
    // registered only when shards > 1 — single-shard snapshots stay
    // byte-identical to the pre-sharding service.  Null otherwise.
    telemetry::Counter* submitted = nullptr;
    telemetry::Counter* completed = nullptr;
    telemetry::Counter* rejected = nullptr;
    telemetry::Counter* recovered = nullptr;
    telemetry::Counter* batches = nullptr;
    telemetry::Gauge* queue_depth = nullptr;
  };

  /// How admit() treats a full shard queue.  Wait (submit, submit_many)
  /// waits for space under Block in worker mode and counts any other
  /// miss as a rejection.  Try (try_submit_callback) never waits, and
  /// its miss is a rejection only under Reject — under Block it is the
  /// caller's stall.
  enum class Admission { Wait, Try };
  /// The one admission path behind every submit call.  It validates
  /// the requests, routes them (Hash per request, one RoundRobin ticket
  /// per call), stamps their arrival, pushes each shard's share with one
  /// BoundedQueue::push call, keeps the inflight / submitted / rejected
  /// accounting (global and per-shard) and emits one `submit` trace
  /// event per admitted share.  Each request it cannot take is handed
  /// back intact as `on_miss(index_in_requests, request)`, also before
  /// it throws because the service is closed.  Returns the number
  /// admitted.  Throws like submit().
  template <typename OnMiss>
  std::size_t admit(std::span<Request> requests, Admission mode,
                    OnMiss&& on_miss);
  /// One dispatcher's life: block on the shard's queue, dispatch what
  /// it pops, and return once the queue is closed and drained.
  void worker_loop(std::size_t shard_index);
  /// One dispatcher's working memory, reused across its batches so a
  /// steady dispatcher allocates nothing per request.
  struct DispatchScratch {
    std::vector<sim::RowFlags> flags;  ///< per request of the batch
    /// Receives each request's sum.  An unflagged request copies it
    /// over its first operand rather than swapping buffers: a swap
    /// hands one producer's buffer to another to free, which cost
    /// inproc_uniform about 8% of its throughput.
    BitVec spare;
    std::vector<std::uint64_t> run;  ///< the evaluator's run mask
  };
  /// Evaluate every request of one batch in its own limbs, then
  /// complete each on the calling thread, in batch order: an unflagged
  /// request takes the evaluated sum, a flagged one is summed again in
  /// place and charged to the shard's modeled recovery lane.
  std::size_t dispatch(std::vector<Request>& batch, DispatchScratch& scratch,
                       Shard& shard, std::size_t shard_index);
  /// Hand the finished completion to whichever channel the request
  /// carries (callback or promise).
  static void deliver(Request& request, Completion&& completion);

  ServiceConfig config_;
  std::unique_ptr<telemetry::Registry> owned_registry_;
  telemetry::Registry* registry_;

  /// shards() entries; unique_ptr because a Shard owns non-movable
  /// members (mutex, atomics) and the vector is sized once.
  std::vector<std::unique_ptr<Shard>> shards_;

  // Memory-ordering audit (every atomic below, and why its ordering is
  // what it is):
  //
  //  * Shard::vclock — relaxed everywhere.  A pure tick counter: values
  //    are compared arithmetically to compute modeled latencies, and no
  //    other data is published through it.  fetch_add is already atomic
  //    read-modify-write, so ticks are never lost.
  //  * rr_next_ — relaxed fetch_add; a rotation ticket, publishes
  //    nothing.
  //  * inflight_ — fetch_add/fetch_sub acq_rel, loads acquire.  The
  //    release half of each decrement orders the batch's deliveries and
  //    counter increments before the count drop, so a flush() that
  //    observes 0 with an acquire load happens-after every completion
  //    it waited for and sees final counters.  The increment side could
  //    be relaxed; the cost is unmeasurable off the per-batch path.
  //  * closed_ — store release in close(), load acquire in the submit
  //    paths: a submitter that sees closed_ == true also sees the
  //    queue close() calls that preceded the store (it will observe
  //    queue.closed() and throw rather than silently drop).
  std::atomic<std::uint64_t> rr_next_{0};
  /// Pump mode is single-threaded by definition, so plain rotation
  /// state and one shared scratch are fine here.
  std::size_t pump_next_ = 0;
  DispatchScratch pump_scratch_;

  std::atomic<long long> inflight_{0};
  std::atomic<bool> closed_{false};
  util::Mutex close_mutex_;
  bool close_finished_ GUARDED_BY(close_mutex_) = false;

  // Hot-path metrics, resolved once at construction.
  telemetry::Counter& submitted_;
  telemetry::Counter& rejected_;
  telemetry::Counter& completed_;
  telemetry::Counter& fast_path_;
  telemetry::Counter& recovered_;
  telemetry::Counter& wrong_;
  telemetry::Counter& batches_;
  telemetry::Gauge& queue_depth_;
  telemetry::Histogram& latency_cycles_;
  telemetry::Histogram& batch_occupancy_;
  telemetry::Histogram& latency_ns_;
};

}  // namespace vlsa::service
