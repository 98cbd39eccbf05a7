#pragma once
// Low-overhead request-path tracing for the arithmetic service —
// per-thread lock-free event rings plus a Chrome/Perfetto
// `trace_event` JSON exporter.
//
// The paper's service-level story is a *distribution* of latencies, and
// the telemetry layer (src/telemetry/) already shows its shape — but a
// histogram cannot answer "why was THIS request slow?".  The tracer
// answers it: every stage of the request path (submit → queue-wait →
// engine-eval → ER-check → recovery → complete) emits a
// typed event carrying the batch id, lane index, window k, and the ER
// flag, so a Perfetto timeline shows exactly which batch a request rode,
// whether its lane flagged, and how long its exact recomputation took.
// Recovery spans additionally carry the operands (low 64 bits) and the
// actual longest activated propagate-chain length — the ground truth
// the drift monitor (trace/drift.hpp) checks statistically.
//
// Design constraints, in order:
//
//  1. *Cheap when idle.*  Tracing is compiled in unconditionally; when
//     no TraceSession is active every instrumentation site costs ONE
//     relaxed atomic load and a predictable branch (`trace::enabled()`).
//     No allocation, no TLS initialization, no fences.
//  2. *Wait-free recording.*  Each thread writes to its own ring — no
//     shared tail, no CAS loop.  A full ring overwrites its oldest
//     events (tracing must never block or slow the service); the
//     collector reports how many were dropped.
//  3. *Race-free collection, TSan-clean.*  Every slot is a sequence
//     number plus a fixed array of atomic words (a seqlock whose payload
//     is itself atomic, so there is no C++ data race to suppress).  The
//     collector validates the sequence number on both sides of the copy
//     and discards torn slots; it may run while writers are live.
//
// Sampling: `TraceConfig::sample_rate` gates the *detail* events
// (submit / queue-wait / engine-eval / complete) — the
// service decides once per batch.  Recovery-path events (er-check /
// recovery) are always recorded while a session is active
// (`always_sample_recovery`), because mispredictions are the rare,
// diagnostic-critical signal the whole subsystem exists for.
//
// Memory-ordering audit:
//  * g_enabled — relaxed load on the hot path: it only gates work, it
//    publishes nothing.  Emit paths that proceed re-read the session
//    generation with acquire (below) before touching session state.
//  * generation_ — store release when a session starts (after the epoch
//    and config are written), load acquire in the per-thread
//    registration check: a thread that observes the new generation also
//    observes the session's epoch/config.
//  * slot seq — writer: relaxed odd mark, release *fence*, payload
//    stores relaxed, even mark release; reader: acquire first read,
//    relaxed payload copies, acquire fence, relaxed re-read.  The
//    classic seqlock handshake, with atomic payload words so no read is
//    ever UB.  The release fence after the odd mark is load-bearing on
//    overwrite: it orders busy-mark-before-payload, so a reader whose
//    validating re-read still sees the old even seq cannot have copied
//    any of the overwriting payload stores.  (Without it the relaxed
//    odd mark may become visible *after* the new payload words and a
//    torn copy validates — the model checker's WeakAtomics mutant in
//    tests/test_mc_suites.cpp demonstrates exactly this.)  Free on
//    x86/TSO; one `dmb ish` on ARM.
//  * ring head_ — store release after the slot is published so a
//    collector that reads head_ (acquire) sees every slot it covers.
//
// The ring's atomics are a policy template parameter (`BasicEventRing`)
// so the model checker (src/mc/, docs/model_checking.md) can run the
// *exact same* push/collect code under schedule-injected atomics with
// simulated store buffers.  Production code uses the `EventRing` alias
// (= BasicEventRing<StdAtomics>), which instantiates to byte-identical
// code with plain std::atomic.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace vlsa::trace {

/// The fixed event taxonomy of the service request path (docs/
/// observability.md).  Names are stable identifiers — scripts and the
/// golden-file test match on them.
enum class EventName : std::uint8_t {
  kSubmit = 0,     ///< instant: a submit call queued requests on a shard
  kQueueWait = 1,  ///< span: arrival → dispatcher pop (needs wall clock)
  // 2 is retired (it was batch-pack); values are stable identifiers.
  kEngineEval = 3, ///< span: a batch's row-major evaluation
  kErCheck = 4,    ///< instant: a lane's ER flag fired
  kRecovery = 5,   ///< span: a flagged lane's exact recomputation
  kComplete = 6,   ///< instant: completion delivered to the requester
  // Socket path (src/net/server.cpp).  `batch` carries the connection
  // id, `lane` a frame count where noted.
  kNetAccept = 7,    ///< instant: connection accepted
  kNetRead = 8,      ///< span: one drain-until-EAGAIN read burst
  kNetDecode = 9,    ///< span: decoding the bytes of one read burst
  kNetDispatch = 10, ///< instant: a decoded frame entered the service
  kNetWrite = 11,    ///< span: one flush of the connection write buffer
  kNetClose = 12,    ///< instant: connection torn down
  // Distributed tracing across the wire (net/client.cpp, the
  // kFlagTraceSampled frame bit): spans on both sides of a sampled
  // request carry the frame id in `args.req`, so trace::merge can
  // stitch one Perfetto timeline out of a client and a server export.
  kClientSend = 13,  ///< span: client encode+buffer of one request
  kClientRecv = 14,  ///< span: client blocking read → response decoded
  kNetServe = 15,    ///< span: server dispatch → response encoded
};
inline constexpr int kNumEventNames = 16;

/// Stable lowercase-dashed name ("engine-eval") used in exports.
const char* event_name(EventName name);

/// Chrome trace_event phases we emit: complete spans and instants.
enum class Phase : std::uint8_t {
  kComplete = 0,  ///< "X": ts + dur
  kInstant = 1,   ///< "i"
};

/// Sentinel for "no batch id".
inline constexpr std::uint64_t kNoBatch = ~std::uint64_t{0};

/// Optional event arguments.  Absent fields are omitted from the JSON.
struct EventArgs {
  std::uint64_t batch = kNoBatch;  ///< dispatch round (service vclock)
  int lane = -1;                   ///< lane index within the batch
  int k = -1;                      ///< speculation window
  int er = -1;                     ///< ER flag: -1 unknown, 0, 1
  int chain = -1;                  ///< longest propagate chain (recovery)
  /// Low 64 bits of the operands (recovery events; wider operands are
  /// truncated — the postmortem ring keeps them in full).
  std::uint64_t a_lo = 0;
  std::uint64_t b_lo = 0;
  bool has_operands = false;
  /// Wire request id of a trace-sampled frame (client-send /
  /// client-recv / net-serve / net-dispatch) — the join key of the
  /// distributed trace.
  std::uint64_t req = 0;
  bool has_req = false;
  /// Shard the event happened on (-1 = absent; the service sets it
  /// only in sharded mode, so single-shard exports are unchanged).
  int shard = -1;
};

/// One decoded trace event, as stored in the rings.
struct TraceEvent {
  /// Number of 64-bit words a slot payload occupies.
  static constexpr int kWords = 8;

  std::uint64_t ts_ns = 0;   ///< since session start
  std::uint64_t dur_ns = 0;  ///< kComplete spans only
  std::uint32_t tid = 0;     ///< session-local thread index
  EventName name = EventName::kSubmit;
  Phase phase = Phase::kInstant;
  EventArgs args;

  std::array<std::uint64_t, kWords> encode() const;
  static TraceEvent decode(const std::array<std::uint64_t, kWords>& words);
};

/// Production atomics policy: plain std::atomic and std fences.
struct StdAtomics {
  template <typename T>
  using Atomic = std::atomic<T>;
  static void fence_release() {
    std::atomic_thread_fence(std::memory_order_release);
  }
  static void fence_acquire() {
    std::atomic_thread_fence(std::memory_order_acquire);
  }
};

/// Single-writer event ring with seqlock slots; any thread may collect.
/// Capacity is rounded up to a power of two.  The writer never blocks
/// and never fails: a full ring overwrites its oldest slot.
///
/// `Atomics` injects the atomic type and fences (see StdAtomics above);
/// use the `EventRing` alias outside the model-checker tests.
template <typename Atomics = StdAtomics>
class BasicEventRing {
 public:
  explicit BasicEventRing(std::size_t capacity) {
    const std::size_t cap =
        std::bit_ceil(std::max<std::size_t>(capacity, 2));
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
  }

  BasicEventRing(const BasicEventRing&) = delete;
  BasicEventRing& operator=(const BasicEventRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  /// Record one event.  Single writer only (the owning thread).
  void push(const TraceEvent& event) { push_impl(event, false); }

  /// Seeded-mutant hook for the model checker: a push whose busy mark
  /// is *not* ordered before the payload (the release fence is
  /// skipped), reintroducing the torn-overwrite window the audit note
  /// above describes.  Never call outside tests/test_mc_suites.cpp.
  void push_skipping_busy_fence_for_test(const TraceEvent& event) {
    push_impl(event, true);
  }

  /// Total events ever pushed (monotone; collect() uses it to report
  /// drops).
  std::uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Append every currently-readable event (oldest first) to `out`.
  /// Safe concurrently with the writer; slots the writer is mid-update
  /// on (or overwrote during the copy) are skipped, never torn.
  /// Returns the number of events appended.
  std::size_t collect(std::vector<TraceEvent>& out) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t cap = mask_ + 1;
    const std::uint64_t first = head > cap ? head - cap : 0;
    std::size_t appended = 0;
    std::array<std::uint64_t, TraceEvent::kWords> words{};
    for (std::uint64_t ticket = first; ticket < head; ++ticket) {
      const Slot& slot = slots_[ticket & mask_];
      const std::uint64_t expect = 2 * ticket + 2;
      const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
      if (before != expect) continue;  // overwritten or mid-write
      for (int i = 0; i < TraceEvent::kWords; ++i) {
        words[static_cast<std::size_t>(i)] =
            slot.words[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed);
      }
      // The fence orders the payload copies before the validating
      // re-read; a concurrent overwrite flips seq first (the writer's
      // release fence), so a matching re-read proves the copy is
      // untorn.
      Atomics::fence_acquire();
      if (slot.seq.load(std::memory_order_relaxed) != expect) continue;
      out.push_back(TraceEvent::decode(words));
      ++appended;
    }
    return appended;
  }

 private:
  using AtomicWord = typename Atomics::template Atomic<std::uint64_t>;

  struct Slot {
    AtomicWord seq{0};
    std::array<AtomicWord, TraceEvent::kWords> words{};
  };

  void push_impl(const TraceEvent& event, bool skip_busy_fence) {
    const std::uint64_t ticket = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[ticket & mask_];
    // Odd = mid-write; collectors that read it discard the slot.
    slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
    // Order the busy mark before the payload stores (see the
    // memory-ordering audit in the file header).
    if (!skip_busy_fence) Atomics::fence_release();
    const auto words = event.encode();
    for (int i = 0; i < TraceEvent::kWords; ++i) {
      slot.words[static_cast<std::size_t>(i)].store(
          words[static_cast<std::size_t>(i)], std::memory_order_relaxed);
    }
    // Even = published; release so a collector that reads this seq sees
    // the payload stores above.
    slot.seq.store(2 * ticket + 2, std::memory_order_release);
    head_.store(ticket + 1, std::memory_order_release);
  }

  std::vector<Slot> slots_;
  std::uint64_t mask_;
  AtomicWord head_{0};
};

/// The production instantiation every non-checker caller uses.
using EventRing = BasicEventRing<StdAtomics>;

/// Session knobs.
struct TraceConfig {
  /// Probability that a batch (and the submits feeding it) records the
  /// detail events.  1.0 = trace everything, 0.0 = recovery-only.
  double sample_rate = 1.0;
  /// Events retained per thread (rounded up to a power of two).
  std::size_t ring_capacity = std::size_t{1} << 14;
  /// Record er-check/recovery events regardless of sampling.
  bool always_sample_recovery = true;
};

/// What an export saw.
struct CollectStats {
  std::uint64_t events = 0;   ///< events exported
  std::uint64_t dropped = 0;  ///< ring overwrites (pushed - retained)
  std::uint64_t threads = 0;  ///< rings that recorded at least one event
};

// ---------------------------------------------------------------------
// Hot-path API (what the service calls).  All of these are safe to call
// with no session active; only `enabled()` should be called first as
// the cheap gate.

/// One relaxed atomic load — the instrumentation gate.
bool enabled();

/// Nanoseconds since the active session started (0 with no session).
std::uint64_t now_ns();

/// Convert an absolute steady_clock time to session-relative ns
/// (clamped to 0 for times before the session started).
std::uint64_t to_session_ns(std::chrono::steady_clock::time_point t);

/// Per-batch sampling decision (thread-local xorshift against
/// `sample_rate`; always true at rate 1.0, always false at 0.0).
bool sample();

/// True when recovery-path events should be recorded (session active
/// and `always_sample_recovery`, or the batch was sampled anyway).
bool sample_recovery();

/// Record a complete span that started at `start_ns` (ends now).
void emit_complete(EventName name, std::uint64_t start_ns,
                   const EventArgs& args = {});

/// Record a complete span with an explicit duration.
void emit_span(EventName name, std::uint64_t start_ns, std::uint64_t dur_ns,
               const EventArgs& args = {});

/// Record an instant event (timestamped now).
void emit_instant(EventName name, const EventArgs& args = {});

// ---------------------------------------------------------------------

/// An active tracing window.  At most one session exists at a time
/// (constructing a second throws std::logic_error).  Construction
/// enables the global gate; destruction (or stop()) disables it.
/// Export may be called before or after stop(); a quiescent session
/// exports byte-identical documents every time (the golden-file
/// property tests/test_trace.cpp pins down).
class TraceSession {
 public:
  explicit TraceSession(const TraceConfig& config = {});
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  const TraceConfig& config() const { return config_; }

  /// Disable recording (idempotent).  Buffers remain exportable.
  void stop();

  /// Collect every thread ring into one time-sorted event list.
  std::vector<TraceEvent> collect(CollectStats* stats = nullptr) const;

  /// Chrome/Perfetto trace_event JSON ("traceEvents" array of "X"/"i"
  /// events plus thread-name metadata; ts/dur in microseconds).  Load
  /// via chrome://tracing or ui.perfetto.dev.
  CollectStats write_chrome_json(std::ostream& os) const;

  /// write_chrome_json to a string (tests, CLI).
  std::string chrome_json() const;

 private:
  TraceConfig config_;
};

}  // namespace vlsa::trace
