#include "trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace vlsa::trace {

namespace {

// -------------------------------------------------------------------
// Global session state.  One process-wide instance; a TraceSession is
// the RAII handle that arms and disarms it.
//
// Threads register lazily on first emit.  A registered ring is owned
// jointly by the registry (for collection) and the thread's TLS slot
// (so a ring outlives its thread OR the session, whichever ends first).
// The generation counter invalidates TLS caches across sessions.

struct ThreadRing {
  std::uint64_t generation = 0;
  std::uint32_t tid = 0;
  EventRing ring;
  ThreadRing(std::uint64_t gen, std::uint32_t id, std::size_t capacity)
      : generation(gen), tid(id), ring(capacity) {}
};

struct GlobalState {
  std::atomic<bool> enabled{false};
  std::atomic<bool> session_live{false};
  /// Bumped (release) by each session start; TLS caches compare-acquire.
  std::atomic<std::uint64_t> generation{0};
  /// Session epoch as steady_clock ns-since-clock-epoch.
  std::atomic<std::int64_t> epoch_ns{0};
  /// sample_rate scaled to 2^32 for an integer compare on the hot path.
  std::atomic<std::uint64_t> sample_threshold{0};
  std::atomic<bool> always_sample_recovery{true};
  std::atomic<std::uint64_t> ring_capacity{1024};

  util::Mutex mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings GUARDED_BY(mutex);
  std::uint32_t next_tid GUARDED_BY(mutex) = 0;
};

GlobalState& state() {
  static GlobalState g;
  return g;
}

// TLS cache: the ring this thread writes to, valid for `generation`.
thread_local std::shared_ptr<ThreadRing> tl_ring;

// Thread-local xorshift for sampling decisions (never consulted when
// tracing is off, so it costs nothing when idle).
thread_local std::uint64_t tl_sample_state = 0;

std::uint64_t sample_next() {
  std::uint64_t x = tl_sample_state;
  if (x == 0) {
    // Seed from the TLS address — distinct per thread, cheap, and the
    // quality bar for a sampling coin is low.
    x = reinterpret_cast<std::uintptr_t>(&tl_sample_state) | 1;
    x *= 0x9e3779b97f4a7c15ULL;
  }
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  tl_sample_state = x;
  return x;
}

EventRing* current_ring() {
  GlobalState& g = state();
  // Acquire pairs with the generation release in TraceSession's
  // constructor: a thread that sees the new generation sees the epoch
  // and config stores that preceded it.
  const std::uint64_t gen = g.generation.load(std::memory_order_acquire);
  ThreadRing* cached = tl_ring.get();
  if (cached != nullptr && cached->generation == gen) return &cached->ring;
  // Slow path: (re-)register this thread for the active session.
  auto ring = std::make_shared<ThreadRing>(
      gen, 0, g.ring_capacity.load(std::memory_order_relaxed));
  {
    util::LockGuard lock(g.mutex);
    if (!g.session_live.load(std::memory_order_relaxed)) return nullptr;
    ring->tid = g.next_tid++;
    g.rings.push_back(ring);
  }
  tl_ring = std::move(ring);
  return &tl_ring->ring;
}

void emit(EventName name, Phase phase, std::uint64_t ts_ns,
          std::uint64_t dur_ns, const EventArgs& args) {
  EventRing* ring = current_ring();
  if (ring == nullptr) return;  // session ended between gate and emit
  TraceEvent event;
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  event.tid = tl_ring->tid;
  event.name = name;
  event.phase = phase;
  event.args = args;
  ring->push(event);
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// -------------------------------------------------------------------
// Event encoding: 8 words per slot (see TraceEvent::kWords).
//   w0 ts_ns   w1 dur_ns   w2 batch   w3 a_lo   w4 b_lo
//   w5 tid<<32 | lane16<<16 | k16
//   w6 name<<0 | phase<<8 | er<<16 | has_operands<<24 | chain16<<32
//        | has_req<<48 | (shard+1)15<<49
//   w7 req (wire request id; meaningful only when has_req)
// lane/k/chain use 0xffff as "absent"; er uses 0xff; shard is stored
// biased by one so an all-zero word decodes to "absent" (-1).

namespace {
constexpr std::uint64_t kAbsent16 = 0xffff;
constexpr std::uint64_t kAbsent8 = 0xff;

std::uint64_t pack16(int v) {
  return v < 0 ? kAbsent16 : static_cast<std::uint64_t>(v) & 0xffff;
}
int unpack16(std::uint64_t v) {
  return v == kAbsent16 ? -1 : static_cast<int>(v);
}
}  // namespace

std::array<std::uint64_t, TraceEvent::kWords> TraceEvent::encode() const {
  std::array<std::uint64_t, kWords> w{};
  w[0] = ts_ns;
  w[1] = dur_ns;
  w[2] = args.batch;
  w[3] = args.a_lo;
  w[4] = args.b_lo;
  w[5] = (static_cast<std::uint64_t>(tid) << 32) | (pack16(args.lane) << 16) |
         pack16(args.k);
  const std::uint64_t er =
      args.er < 0 ? kAbsent8 : static_cast<std::uint64_t>(args.er & 1);
  // Shard rides the 15 bits above has_req, biased by one so "absent"
  // (-1) encodes as zero; values past the field cap saturate to it
  // (no real deployment shards past 32766 ways).
  const std::uint64_t shard1 =
      args.shard < 0
          ? 0
          : std::min<std::uint64_t>(
                static_cast<std::uint64_t>(args.shard) + 1, 0x7fff);
  w[6] = static_cast<std::uint64_t>(name) |
         (static_cast<std::uint64_t>(phase) << 8) | (er << 16) |
         (static_cast<std::uint64_t>(args.has_operands ? 1 : 0) << 24) |
         (pack16(args.chain) << 32) |
         (static_cast<std::uint64_t>(args.has_req ? 1 : 0) << 48) |
         (shard1 << 49);
  w[7] = args.req;
  return w;
}

TraceEvent TraceEvent::decode(
    const std::array<std::uint64_t, kWords>& w) {
  TraceEvent e;
  e.ts_ns = w[0];
  e.dur_ns = w[1];
  e.args.batch = w[2];
  e.args.a_lo = w[3];
  e.args.b_lo = w[4];
  e.tid = static_cast<std::uint32_t>(w[5] >> 32);
  e.args.lane = unpack16((w[5] >> 16) & 0xffff);
  e.args.k = unpack16(w[5] & 0xffff);
  e.name = static_cast<EventName>(w[6] & 0xff);
  e.phase = static_cast<Phase>((w[6] >> 8) & 0xff);
  const std::uint64_t er = (w[6] >> 16) & 0xff;
  e.args.er = er == kAbsent8 ? -1 : static_cast<int>(er);
  e.args.has_operands = ((w[6] >> 24) & 0xff) != 0;
  e.args.chain = unpack16((w[6] >> 32) & 0xffff);
  // Bit 48 exactly: bits 49-63 are the shard field now (older encoders
  // always wrote them as zero, so old captures still decode right).
  e.args.has_req = ((w[6] >> 48) & 1) != 0;
  const std::uint64_t shard1 = (w[6] >> 49) & 0x7fff;
  e.args.shard = shard1 == 0 ? -1 : static_cast<int>(shard1 - 1);
  e.args.req = w[7];
  return e;
}

const char* event_name(EventName name) {
  switch (name) {
    case EventName::kSubmit:
      return "submit";
    case EventName::kQueueWait:
      return "queue-wait";
    case EventName::kEngineEval:
      return "engine-eval";
    case EventName::kErCheck:
      return "er-check";
    case EventName::kRecovery:
      return "recovery";
    case EventName::kComplete:
      return "complete";
    case EventName::kNetAccept:
      return "net-accept";
    case EventName::kNetRead:
      return "net-read";
    case EventName::kNetDecode:
      return "net-decode";
    case EventName::kNetDispatch:
      return "net-dispatch";
    case EventName::kNetWrite:
      return "net-write";
    case EventName::kNetClose:
      return "net-close";
    case EventName::kClientSend:
      return "client-send";
    case EventName::kClientRecv:
      return "client-recv";
    case EventName::kNetServe:
      return "net-serve";
  }
  return "unknown";
}

// -------------------------------------------------------------------
// EventRing push/collect live in trace.hpp now (BasicEventRing is a
// template over its atomics policy for the model checker).

// -------------------------------------------------------------------
// Hot-path free functions

bool enabled() {
  return state().enabled.load(std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  const std::int64_t epoch =
      state().epoch_ns.load(std::memory_order_relaxed);
  const auto now = static_cast<std::int64_t>(steady_now_ns());
  return now > epoch ? static_cast<std::uint64_t>(now - epoch) : 0;
}

std::uint64_t to_session_ns(std::chrono::steady_clock::time_point t) {
  const std::int64_t epoch =
      state().epoch_ns.load(std::memory_order_relaxed);
  const auto ns = static_cast<std::int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
  return ns > epoch ? static_cast<std::uint64_t>(ns - epoch) : 0;
}

bool sample() {
  const std::uint64_t threshold =
      state().sample_threshold.load(std::memory_order_relaxed);
  if (threshold >= (std::uint64_t{1} << 32)) return true;
  if (threshold == 0) return false;
  return (sample_next() & 0xffffffffULL) < threshold;
}

bool sample_recovery() {
  return state().always_sample_recovery.load(std::memory_order_relaxed);
}

void emit_complete(EventName name, std::uint64_t start_ns,
                   const EventArgs& args) {
  const std::uint64_t end = now_ns();
  emit(name, Phase::kComplete, start_ns,
       end > start_ns ? end - start_ns : 0, args);
}

void emit_span(EventName name, std::uint64_t start_ns, std::uint64_t dur_ns,
               const EventArgs& args) {
  emit(name, Phase::kComplete, start_ns, dur_ns, args);
}

void emit_instant(EventName name, const EventArgs& args) {
  emit(name, Phase::kInstant, now_ns(), 0, args);
}

// -------------------------------------------------------------------
// TraceSession

TraceSession::TraceSession(const TraceConfig& config) : config_(config) {
  GlobalState& g = state();
  bool expected = false;
  if (!g.session_live.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
    throw std::logic_error("TraceSession: a session is already active");
  }
  {
    util::LockGuard lock(g.mutex);
    g.rings.clear();
    g.next_tid = 0;
  }
  const double rate = std::clamp(config_.sample_rate, 0.0, 1.0);
  g.sample_threshold.store(
      static_cast<std::uint64_t>(rate * 4294967296.0),
      std::memory_order_relaxed);
  g.always_sample_recovery.store(config_.always_sample_recovery,
                                 std::memory_order_relaxed);
  g.ring_capacity.store(config_.ring_capacity, std::memory_order_relaxed);
  g.epoch_ns.store(static_cast<std::int64_t>(steady_now_ns()),
                   std::memory_order_relaxed);
  // Release: a thread that acquires the new generation sees everything
  // above.  The enabled gate flips last.
  g.generation.fetch_add(1, std::memory_order_release);
  g.enabled.store(true, std::memory_order_release);
}

TraceSession::~TraceSession() {
  stop();
  GlobalState& g = state();
  {
    util::LockGuard lock(g.mutex);
    g.rings.clear();
  }
  g.session_live.store(false, std::memory_order_release);
}

void TraceSession::stop() {
  state().enabled.store(false, std::memory_order_release);
}

std::vector<TraceEvent> TraceSession::collect(CollectStats* stats) const {
  GlobalState& g = state();
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    util::LockGuard lock(g.mutex);
    rings = g.rings;
  }
  std::vector<TraceEvent> events;
  CollectStats local;
  for (const auto& ring : rings) {
    const std::size_t got = ring->ring.collect(events);
    const std::uint64_t pushed = ring->ring.pushed();
    local.dropped += pushed - std::min<std::uint64_t>(pushed, got);
    if (pushed > 0) ++local.threads;
  }
  local.events = events.size();
  // Deterministic order for export: time, then thread, then name —
  // ties broken stably so quiescent exports are byte-identical.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return static_cast<int>(a.name) <
                            static_cast<int>(b.name);
                   });
  if (stats != nullptr) *stats = local;
  return events;
}

CollectStats TraceSession::write_chrome_json(std::ostream& os) const {
  CollectStats stats;
  const auto events = collect(&stats);
  util::JsonWriter json(os);
  json.begin_object();
  json.kv("displayTimeUnit", "ns");
  json.key("metadata").begin_object();
  json.kv("tool", "vlsa_trace");
  json.kv("events", stats.events);
  json.kv("dropped", stats.dropped);
  // Session epoch as steady_clock ns: processes on the same host share
  // this clock, so trace::merge aligns documents by epoch delta.
  json.kv("epoch_ns", static_cast<long long>(
                          state().epoch_ns.load(std::memory_order_relaxed)));
  json.end_object();
  json.key("traceEvents").begin_array();
  // Thread-name metadata first, so Perfetto labels the tracks.
  std::vector<std::uint32_t> tids;
  for (const auto& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (const std::uint32_t tid : tids) {
    json.begin_object();
    json.kv("name", "thread_name").kv("ph", "M");
    json.kv("pid", 1).kv("tid", static_cast<long long>(tid));
    json.key("args").begin_object();
    json.kv("name", "vlsa-thread-" + std::to_string(tid));
    json.end_object();
    json.end_object();
  }
  char hex[19];
  for (const auto& e : events) {
    json.begin_object();
    json.kv("name", event_name(e.name));
    json.kv("cat", "vlsa");
    json.kv("ph", e.phase == Phase::kComplete ? "X" : "i");
    // Chrome's ts/dur unit is microseconds; fractional values keep the
    // full ns resolution (%.17g round-trips doubles deterministically).
    json.kv("ts", static_cast<double>(e.ts_ns) / 1000.0);
    if (e.phase == Phase::kComplete) {
      json.kv("dur", static_cast<double>(e.dur_ns) / 1000.0);
    } else {
      json.kv("s", "t");  // thread-scoped instant
    }
    json.kv("pid", 1).kv("tid", static_cast<long long>(e.tid));
    json.key("args").begin_object();
    if (e.args.batch != kNoBatch) json.kv("batch", e.args.batch);
    if (e.args.lane >= 0) json.kv("lane", e.args.lane);
    if (e.args.k >= 0) json.kv("k", e.args.k);
    if (e.args.er >= 0) json.kv("er", e.args.er);
    if (e.args.chain >= 0) json.kv("chain", e.args.chain);
    if (e.args.shard >= 0) json.kv("shard", e.args.shard);
    if (e.args.has_req) json.kv("req", e.args.req);
    if (e.args.has_operands) {
      std::snprintf(hex, sizeof hex, "0x%016llx",
                    static_cast<unsigned long long>(e.args.a_lo));
      json.kv("a_lo", hex);
      std::snprintf(hex, sizeof hex, "0x%016llx",
                    static_cast<unsigned long long>(e.args.b_lo));
      json.kv("b_lo", hex);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << "\n";
  return stats;
}

std::string TraceSession::chrome_json() const {
  std::ostringstream os;
  write_chrome_json(os);
  return os.str();
}

}  // namespace vlsa::trace
