#include "service/service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "core/aca.hpp"
#include "trace/drift.hpp"
#include "trace/postmortem.hpp"
#include "trace/trace.hpp"

namespace vlsa::service {

namespace {

ServiceConfig validated(ServiceConfig config) {
  if (config.pipeline.width < 1) {
    throw std::invalid_argument("AdderService: width < 1");
  }
  if (config.pipeline.window < 1) {
    throw std::invalid_argument("AdderService: window < 1");
  }
  if (config.pipeline.recovery_cycles < 0) {
    throw std::invalid_argument("AdderService: negative recovery_cycles");
  }
  if (config.workers < 0) {
    throw std::invalid_argument("AdderService: negative workers");
  }
  if (config.shards < 1) {
    throw std::invalid_argument("AdderService: shards < 1");
  }
  if (config.max_batch < 0) {
    throw std::invalid_argument("AdderService: negative max_batch");
  }
  // Every shard needs at least one dispatcher or its queue never
  // drains; round the total up to a multiple of shards and reflect the
  // effective count back (workers=4, shards=4 -> one per shard, the
  // per-core intent).  Pump mode (workers == 0) is exempt: the caller's
  // pump() rotates over all shards itself.
  if (config.workers > 0 && config.shards > 1) {
    const int per_shard = std::max(1, config.workers / config.shards);
    config.workers = per_shard * config.shards;
  }
  if (config.max_batch == 0) config.max_batch = kDefaultMaxBatch;
  return config;
}

/// Fibonacci + murmur3-final mix over the operand low limbs: cheap,
/// deterministic, and uniform enough that hash routing spreads any
/// non-adversarial operand distribution across shards (the
/// hash-distribution test in tests/test_service.cpp checks no shard
/// starves under uniform operands).
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// How long a worker sleeps before its next pop after a pop that took
/// more than one request but emptied the queue without filling a pop
/// (see worker_loop's full_pop).  Then requests arrive faster than one
/// per cycle, yet the worker keeps up, so the pause lets the next batch
/// grow.  A lone request never waits, and neither does a backlog: a
/// full pop goes straight on.  A sleeping worker is not a waiting
/// consumer, so pushes during the pause wake nobody.
///
/// It is a stopgap for the queue hand-off, with a constant tuned on one
/// host (a 4-vCPU KVM guest, where a sweep of 10, 20 and 40 µs favoured
/// 20).  A row-major batch finishes in a few microseconds, so without
/// the pause a worker parks every few requests and every push to a
/// parked worker pays a wakeup: wallbench's saturated inproc_uniform
/// batches shrank to about 5 requests and it lost about a quarter of
/// its throughput.  Open-loop traffic that arrives during a pause pays
/// for it.  In bench/service_throughput (10 runs a side, same host) the
/// tail-latency section's uniform p50 rose from 3.3 to 4.1 µs (p99
/// 20.5 to 21.5 µs) and the bursty p99 from 22.5 to 36.9 µs against
/// the packed 64-lane path; `vlsa_tool loadgen 64` at 50k to 400k/s
/// Poisson, with 1 or 4 workers, read p50 and p99 no worse than it.
/// A per-shard dispatch token would remove the hand-off instead
/// (ROADMAP item 4).
constexpr std::chrono::microseconds kCoalesce{20};

/// Best-effort: make this thread's short sleeps end on time.  Linux
/// rounds a sleep up by the thread's timer slack, 50 µs by default,
/// which would stretch the kCoalesce pause to about 70 µs of idle
/// worker.
void tighten_timer_slack() {
#ifdef __linux__
  (void)prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);  // ns
#endif
}

}  // namespace

AdderService::AdderService(const ServiceConfig& config,
                           telemetry::Registry* registry)
    : config_(validated(config)),
      owned_registry_(registry == nullptr
                          ? std::make_unique<telemetry::Registry>()
                          : nullptr),
      registry_(registry == nullptr ? owned_registry_.get() : registry),
      submitted_(registry_->counter("service.submitted")),
      rejected_(registry_->counter("service.rejected")),
      completed_(registry_->counter("service.completed")),
      fast_path_(registry_->counter("service.fast_path")),
      recovered_(registry_->counter("service.recovered")),
      wrong_(registry_->counter("service.speculative_wrong")),
      batches_(registry_->counter("service.batches")),
      queue_depth_(registry_->gauge("service.queue_depth")),
      latency_cycles_(registry_->histogram("service.latency_cycles")),
      batch_occupancy_(registry_->histogram("service.batch_occupancy")),
      latency_ns_(registry_->histogram("service.latency_ns")) {
  const auto n_shards = static_cast<std::size_t>(config_.shards);
  shards_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_.queue_capacity));
  }
  // Per-shard labeled metrics only above one shard: single-shard
  // snapshots must stay byte-identical to the pre-sharding service
  // (tests/test_service.cpp fixed-seed determinism).  The label block
  // is embedded in the registry name; the Prometheus writer renders it
  // as a real label set (telemetry/prometheus.cpp).
  if (n_shards > 1) {
    for (std::size_t i = 0; i < n_shards; ++i) {
      Shard& shard = *shards_[i];
      const std::string suffix = "{shard=" + std::to_string(i) + "}";
      shard.submitted = &registry_->counter("service.submitted" + suffix);
      shard.completed = &registry_->counter("service.completed" + suffix);
      shard.rejected = &registry_->counter("service.rejected" + suffix);
      shard.recovered = &registry_->counter("service.recovered" + suffix);
      shard.batches = &registry_->counter("service.batches" + suffix);
      shard.queue_depth = &registry_->gauge("service.queue_depth" + suffix);
    }
  }
  if (config_.workers > 0) {
    const int per_shard = config_.workers / config_.shards;
    for (std::size_t i = 0; i < n_shards; ++i) {
      Shard& shard = *shards_[i];
      shard.workers.reserve(static_cast<std::size_t>(per_shard));
      for (int j = 0; j < per_shard; ++j) {
        shard.workers.emplace_back([this, i] { worker_loop(i); });
      }
    }
  }
}

AdderService::~AdderService() { close(); }

long long AdderService::now_cycles() const {
  long long makespan = 0;
  for (const auto& shard : shards_) {
    makespan =
        std::max(makespan, shard->vclock.load(std::memory_order_relaxed));
  }
  return makespan;
}

long long AdderService::shard_cycles(int shard) const {
  return shards_.at(static_cast<std::size_t>(shard))
      ->vclock.load(std::memory_order_relaxed);
}

std::size_t AdderService::shard_queue_depth(int shard) const {
  return shards_.at(static_cast<std::size_t>(shard))->queue.size();
}

std::size_t AdderService::route_of(const BitVec& a, const BitVec& b) const {
  const std::size_t n_shards = shards_.size();
  if (n_shards == 1) return 0;
  const std::uint64_t h =
      mix64(a.limbs()[0] * 0x9e3779b97f4a7c15ULL + (b.limbs()[0] ^
            0x6a09e667f3bcc909ULL));
  return static_cast<std::size_t>(h % n_shards);
}

template <typename OnMiss>
std::size_t AdderService::admit(std::span<Request> requests, Admission mode,
                                OnMiss&& on_miss) {
  if (closed_.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      on_miss(i, requests[i]);
    }
    throw std::runtime_error("AdderService: submit after close");
  }
  for (const Request& request : requests) {
    if (request.a.width() != config_.pipeline.width ||
        request.b.width() != config_.pipeline.width) {
      throw std::invalid_argument("AdderService: operand width mismatch");
    }
  }
  const std::size_t n = requests.size();
  const std::size_t n_shards = shards_.size();
  // Routing granularity: Hash routes each request by its operands —
  // deterministic, so a Block-policy retry of a parked network frame
  // lands on the same still-full shard and backpressure stays
  // per-shard.  RoundRobin takes ONE ticket per call: a submit_many
  // chunk is its unit of work, and keeping it whole keeps the
  // one-bulk-transaction batching win.
  const bool hash = n_shards > 1 && config_.route == RoutePolicy::Hash;
  std::size_t ticket = 0;
  if (n_shards > 1 && !hash) {
    ticket = static_cast<std::size_t>(
        rr_next_.fetch_add(1, std::memory_order_relaxed) % n_shards);
  }
  // Blocking on a full queue in pump mode would deadlock (nothing
  // drains until the caller pumps), so pump mode never waits.  The Try
  // path exists for event loops, which translate a miss into their own
  // backpressure (socket read stall or REJECTED frame); only the Reject
  // policy counts that as a service rejection.
  const bool wait = mode == Admission::Wait &&
                    config_.overflow == OverflowPolicy::Block &&
                    config_.workers > 0;
  const bool count_miss =
      mode == Admission::Wait || config_.overflow == OverflowPolicy::Reject;
  const auto now = config_.record_wall_time
                       ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{};
  inflight_.fetch_add(static_cast<long long>(n), std::memory_order_acq_rel);
  std::size_t admitted = 0;
  bool closed = false;
  // Push one shard's share; `origin` maps share positions back to
  // indices in `requests` (nullptr: the share is `requests` itself).
  const auto push_share = [&](std::size_t shard_index,
                              std::span<Request> share,
                              const std::size_t* origin) {
    Shard& shard = *shards_[shard_index];
    // One arrival stamp per share: requests of one chunk landing on one
    // shard share an arrival cycle, which is what lets dispatch
    // aggregate their latency records into runs.
    const long long arrival = shard.vclock.load(std::memory_order_relaxed);
    for (Request& request : share) {
      request.arrival_cycle = arrival;
      request.arrival_time = now;
    }
    // Leading requests are accepted until the queue fills (or, when
    // waiting, until it closes).
    const std::size_t taken = shard.queue.push(share, wait);
    admitted += taken;
    if (taken > 0) {
      if (shard.submitted != nullptr) {
        shard.submitted->increment(static_cast<long long>(taken));
      }
      if (trace::enabled() && trace::sample()) {
        trace::EventArgs args;
        args.k = config_.pipeline.window;
        if (n_shards > 1) args.shard = static_cast<int>(shard_index);
        trace::emit_instant(trace::EventName::kSubmit, args);
      }
    }
    if (taken == share.size()) return;
    if (shard.queue.closed()) {
      closed = true;
    } else if (count_miss && shard.rejected != nullptr) {
      shard.rejected->increment(static_cast<long long>(share.size() - taken));
    }
    for (std::size_t j = taken; j < share.size(); ++j) {
      on_miss(origin != nullptr ? origin[j] : j, share[j]);
    }
  };
  if (!hash || n == 1) {
    push_share(hash ? route_of(requests[0].a, requests[0].b) : ticket,
               requests, nullptr);
  } else {
    // A Hash-routed chunk: regroup it by shard, one share per shard.
    std::vector<std::size_t> shard_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      shard_of[i] = route_of(requests[i].a, requests[i].b);
    }
    std::vector<Request> share;
    std::vector<std::size_t> origin;
    for (std::size_t s = 0; s < n_shards; ++s) {
      share.clear();
      origin.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (shard_of[i] != s) continue;
        share.push_back(std::move(requests[i]));
        origin.push_back(i);
      }
      if (!share.empty()) push_share(s, share, origin.data());
    }
  }
  if (admitted > 0) submitted_.increment(static_cast<long long>(admitted));
  const std::size_t missed = n - admitted;
  if (missed > 0) {
    inflight_.fetch_sub(static_cast<long long>(missed),
                        std::memory_order_acq_rel);
    if (closed) throw std::runtime_error("AdderService: submit after close");
    if (count_miss) rejected_.increment(static_cast<long long>(missed));
  }
  return admitted;
}

std::optional<std::future<Completion>> AdderService::submit(BitVec a,
                                                            BitVec b) {
  Request request;
  request.a = std::move(a);
  request.b = std::move(b);
  auto future = request.promise.emplace().get_future();
  if (admit({&request, 1}, Admission::Wait, [](std::size_t, Request&) {}) ==
      0) {
    return std::nullopt;
  }
  return future;
}

bool AdderService::try_submit_callback(BitVec&& a, BitVec&& b,
                                       CompletionCallback callback) {
  Request request;
  request.a = std::move(a);
  request.b = std::move(b);
  request.callback = std::move(callback);
  // Not consumed on a miss: hand the operands back so a Block-policy
  // caller can park them for retry without having paid a defensive
  // copy on every successful submit (the overwhelmingly common case).
  return admit({&request, 1}, Admission::Try,
               [&a, &b](std::size_t, Request& missed) {
                 a = std::move(missed.a);
                 b = std::move(missed.b);
               }) == 1;
}

std::vector<std::optional<std::future<Completion>>>
AdderService::submit_many(std::vector<std::pair<BitVec, BitVec>> ops) {
  std::vector<Request> requests(ops.size());
  std::vector<std::optional<std::future<Completion>>> futures;
  futures.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    requests[i].a = std::move(ops[i].first);
    requests[i].b = std::move(ops[i].second);
    futures.emplace_back(requests[i].promise.emplace().get_future());
  }
  admit(requests, Admission::Wait,
        [&futures](std::size_t i, Request&) { futures[i].reset(); });
  return futures;
}

void AdderService::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  const auto max_batch = static_cast<std::size_t>(config_.max_batch);
  // The largest pop the queue can give: a pop this big means a backlog
  // (with Block producers perhaps waiting for space), never a pause.
  const std::size_t full_pop = std::min(max_batch, config_.queue_capacity);
  std::vector<Request> batch;
  batch.reserve(full_pop);
  DispatchScratch scratch;
  tighten_timer_slack();
  // Block on the own queue until work or the close; a waiting pop
  // returns 0 only once the queue is closed and drained.  After a pop
  // that took more than one request but less than a full pop, sleep
  // for kCoalesce before the next.
  for (;;) {
    const std::size_t taken = shard.queue.pop_batch(batch, max_batch, true);
    if (taken == 0) return;
    dispatch(batch, scratch, shard, shard_index);
    batch.clear();
    if (taken > 1 && taken < full_pop) {
      std::this_thread::sleep_for(kCoalesce);
    }
  }
}

std::size_t AdderService::dispatch(std::vector<Request>& batch,
                                   DispatchScratch& scratch, Shard& shard,
                                   std::size_t shard_index) {
  // Depth is sampled per batch, not per submission: the gauge is a
  // load indicator and must stay off the producers' hot path.
  const auto depth = static_cast<long long>(shard.queue.size());
  queue_depth_.set(depth);
  if (shard.queue_depth != nullptr) shard.queue_depth->set(depth);
  const int window = config_.pipeline.window;
  // One modeled cycle per dispatched batch on THIS shard's clock —
  // each shard models an independent VLSA functional unit, so N shards
  // advance N clocks in parallel and the makespan (now_cycles(), the
  // max) is what the scaling bench divides by.  `round` is this batch's
  // cycle; a request submitted and dispatched in the same round
  // completes with the minimum latency of 1 cycle.
  const long long round = shard.vclock.fetch_add(1, std::memory_order_relaxed);
  const int trace_shard =
      config_.shards > 1 ? static_cast<int>(shard_index) : -1;

  // Tracing gates, resolved once per batch: `tracing` is the single
  // relaxed load that keeps the idle cost at one branch; `sampled`
  // gates the detail events for this whole batch; the recovery span
  // follows the session's always-on-recovery knob, and `er-check` fires
  // under either.
  const bool tracing = trace::enabled();
  const bool sampled = tracing && trace::sample();
  const bool trace_recovery = tracing && trace::sample_recovery();
  const bool trace_er_check = sampled || trace_recovery;
  const auto batch_id = static_cast<std::uint64_t>(round);

  // Evaluate every request in its own limbs.  An unflagged request's
  // sum is copied over its first operand, so the fast path allocates
  // nothing; a flagged request keeps both operands for the postmortem
  // ring and the recovery span.
  const std::uint64_t t_eval = sampled ? trace::now_ns() : 0;
  if (scratch.spare.width() != config_.pipeline.width) {
    scratch.spare = BitVec(config_.pipeline.width);
  }
  scratch.flags.resize(batch.size());
  std::uint64_t n_flagged = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& request = batch[i];
    scratch.flags[i] = sim::row_aca_add(request.a, request.b, window,
                                        scratch.spare, scratch.run);
    if (scratch.flags[i].flagged) {
      ++n_flagged;
    } else {
      request.a.limbs() = scratch.spare.limbs();
    }
  }
  if (sampled) {
    trace::EventArgs args;
    args.batch = batch_id;
    args.k = window;
    args.shard = trace_shard;
    trace::emit_complete(trace::EventName::kEngineEval, t_eval, args);
  }

  if (config_.drift != nullptr) {
    config_.drift->record_batch(batch.size(), n_flagged);
  }

  batches_.increment();
  if (shard.batches != nullptr) shard.batches->increment();
  batch_occupancy_.record(batch.size());

  // Telemetry is aggregated over the batch: requests that arrived in
  // the same cycle (every submit_many chunk) share one latency, so runs
  // collapse into one record_n and the counters into one increment each
  // — otherwise 8 workers serialize on these cache lines and telemetry
  // becomes the throughput ceiling.
  long long n_recovered = 0, n_wrong = 0;
  std::uint64_t run_value = 0, run_count = 0;
  for (std::size_t lane = 0; lane < batch.size(); ++lane) {
    Request& request = batch[lane];
    Completion completion;
    completion.flagged = scratch.flags[lane].flagged;
    trace::EventArgs args;
    args.batch = batch_id;
    args.lane = static_cast<int>(lane);
    args.k = window;
    args.er = completion.flagged ? 1 : 0;
    args.shard = trace_shard;
    // Queue-wait needs the arrival timestamp, which only exists when
    // wall-clock recording is on.
    if (sampled && config_.record_wall_time) {
      trace::emit_complete(trace::EventName::kQueueWait,
                           trace::to_session_ns(request.arrival_time), args);
    }
    if (!completion.flagged) {
      // ER clear: by soundness the one-cycle speculative answer is
      // this exact sum, which the eval pass left in `a`.
      completion.sum = std::move(request.a);
      completion.latency_cycles =
          std::max<long long>(1, round + 1 - request.arrival_cycle);
      if (sampled) trace::emit_instant(trace::EventName::kComplete, args);
    } else {
      completion.speculative_wrong = scratch.flags[lane].wrong;
      if (trace_er_check) {
        trace::emit_instant(trace::EventName::kErCheck, args);
      }
      {
        // The recovery lane is a serial resource PER SHARD: it picks the
        // request up no earlier than the cycle after detection and holds
        // it for recovery_cycles — queued flags congest, fattening the
        // tail of the shard they flagged on.
        util::LockGuard lock(shard.recovery_clock_mutex);
        shard.recovery_free_at =
            std::max(shard.recovery_free_at, round + 1) +
            config_.pipeline.recovery_cycles;
        completion.latency_cycles = std::max<long long>(
            1, shard.recovery_free_at - request.arrival_cycle);
      }
      // Recompute the sum exactly, in place — the software twin of the
      // paper's recovery adder stage.  The operands are read first.
      BitVec& a = request.a;
      const BitVec& b = request.b;
      const std::uint64_t t_start = trace_recovery ? trace::now_ns() : 0;
      if (config_.postmortem != nullptr) {
        config_.postmortem->record(a, b, window, completion.speculative_wrong,
                                   batch_id, args.lane, t_start);
      }
      if (trace_recovery) {
        args.chain = core::longest_propagate_chain(a, b);
        args.a_lo = a.limbs()[0];
        args.b_lo = b.limbs()[0];
        args.has_operands = true;
      }
      a.add_into(b, a);
      completion.sum = std::move(a);
      if (trace_recovery) {
        trace::emit_complete(trace::EventName::kRecovery, t_start, args);
        trace::emit_instant(trace::EventName::kComplete, args);
      }
      ++n_recovered;
      if (completion.speculative_wrong) ++n_wrong;
    }
    const auto cycles = static_cast<std::uint64_t>(completion.latency_cycles);
    if (run_count > 0 && cycles != run_value) {
      latency_cycles_.record_n(run_value, run_count);
      run_count = 0;
    }
    run_value = cycles;
    ++run_count;
    if (config_.record_wall_time) {
      const auto elapsed =
          std::chrono::steady_clock::now() - request.arrival_time;
      latency_ns_.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
    }
    // Hand the second operand back: the requester frees or reuses it,
    // never this thread.
    completion.b = std::move(request.b);
    deliver(request, std::move(completion));
  }
  if (run_count > 0) latency_cycles_.record_n(run_value, run_count);
  const auto n = static_cast<long long>(batch.size());
  completed_.increment(n);
  if (shard.completed != nullptr) shard.completed->increment(n);
  if (n > n_recovered) fast_path_.increment(n - n_recovered);
  if (n_recovered > 0) {
    recovered_.increment(n_recovered);
    if (shard.recovered != nullptr) shard.recovered->increment(n_recovered);
  }
  if (n_wrong > 0) wrong_.increment(n_wrong);
  inflight_.fetch_sub(n, std::memory_order_acq_rel);
  return batch.size();
}

void AdderService::deliver(Request& request, Completion&& completion) {
  if (request.callback) {
    request.callback(std::move(completion));
  } else {
    request.promise->set_value(std::move(completion));
  }
}

std::size_t AdderService::pump() {
  if (config_.workers != 0) {
    throw std::logic_error("AdderService::pump: only valid with workers=0");
  }
  std::vector<Request> batch;
  const auto max_batch = static_cast<std::size_t>(config_.max_batch);
  const std::size_t n_shards = shards_.size();
  // Rotate so no shard starves when several hold work; pump mode is
  // single-threaded by contract, so plain member state suffices.
  for (std::size_t i = 0; i < n_shards; ++i) {
    const std::size_t idx = (pump_next_ + i) % n_shards;
    Shard& shard = *shards_[idx];
    if (shard.queue.pop_batch(batch, max_batch, false) == 0) continue;
    pump_next_ = (idx + 1) % n_shards;
    return dispatch(batch, pump_scratch_, shard, idx);
  }
  return 0;
}

void AdderService::flush() {
  while (inflight_.load(std::memory_order_acquire) > 0) {
    if (config_.workers == 0) {
      if (pump() == 0) break;  // nothing queued; nothing can be in flight
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void AdderService::close() {
  util::LockGuard lock(close_mutex_);
  if (close_finished_) return;
  closed_.store(true, std::memory_order_release);
  // Shutdown ordering across N shards (the lame-duck drain):
  //   1. close EVERY submission queue — no shard accepts new work;
  //   2. join EVERY dispatcher — each drains its own queue until its
  //      waiting pop returns 0 (closed and empty, decided under the
  //      queue lock).
  for (auto& shard : shards_) shard->queue.close();
  if (config_.workers == 0) {
    while (pump() > 0) {
    }
  } else {
    for (auto& shard : shards_) {
      for (auto& worker : shard->workers) worker.join();
    }
  }
  close_finished_ = true;
}

}  // namespace vlsa::service
