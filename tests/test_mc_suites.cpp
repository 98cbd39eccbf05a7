// Model-checked invariant suites over PRODUCTION concurrency code
// (docs/model_checking.md), plus the seeded-mutant tests that prove the
// checker actually catches the bug classes it exists for.
//
// The code under test is the shipped implementation, not a model:
//   * service::BoundedQueue<T, mc::Sync>   — the real queue on
//     checker-controlled mutex/condvar (service/bounded_queue.hpp).
//     Its one `push` and one `pop_batch` are the calls the service
//     makes, with the same `wait` flags.
//   * trace::BasicEventRing<mc::Atomics>   — the real seqlock ring on
//     checker-controlled atomics (trace/trace.hpp).
// Swapping the policy parameter is the only difference from production.
//
// Mutant convention: every McMutant test injects one specific bug (a
// deleted notify via Options::suppress_notify_cv, a skipped fence, a
// demoted memory order, a dropped seqlock increment, a reordered
// publish) and REQUIRES the checker to find it — and to reproduce it
// from the reported decision list.  A mutant the checker stops
// catching is a regression in the checker, not in the queue.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mc/primitives.hpp"
#include "mc/sched.hpp"
#include "service/bounded_queue.hpp"
#include "trace/trace.hpp"

namespace mc = vlsa::mc;
using vlsa::service::BoundedQueue;
using vlsa::trace::BasicEventRing;
using vlsa::trace::EventName;
using vlsa::trace::Phase;
using vlsa::trace::TraceEvent;

namespace {

using McQueueT = BoundedQueue<int, mc::Sync>;

// One item through the queue's only push: `wait` blocks for space like
// a Block-policy submit, otherwise it is the event loop's try.
bool push_one(McQueueT& q, int item, bool wait = true) {
  return q.push({&item, 1}, wait) == 1;
}

// ---------------------------------------------------------------------
// McQueue — no loss, no duplication, FIFO per producer, close-drain:
// the queue's contract under every explored interleaving.

// Two producers, two items each, capacity 1 (maximum contention), the
// body thread consuming.  Items are tagged with their producer.
void queue_two_producer_body() {
  McQueueT q(1);
  mc::Thread p1([&] {
    MC_ASSERT(push_one(q, 11));
    MC_ASSERT(push_one(q, 12));
  });
  mc::Thread p2([&] {
    MC_ASSERT(push_one(q, 21));
    MC_ASSERT(push_one(q, 22));
  });
  std::vector<int> seen;
  std::vector<int> out;
  while (seen.size() < 4) {
    out.clear();
    (void)q.pop_batch(out, 4, true);
    seen.insert(seen.end(), out.begin(), out.end());
  }
  p1.join();
  p2.join();
  // No loss, no duplication: each tagged item exactly once.
  for (const int want : {11, 12, 21, 22}) {
    int count = 0;
    for (const int v : seen) count += (v == want);
    MC_ASSERT(count == 1);
  }
  // FIFO per producer: 11 before 12, 21 before 22.
  std::size_t i11 = 0, i12 = 0, i21 = 0, i22 = 0;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] == 11) i11 = i;
    if (seen[i] == 12) i12 = i;
    if (seen[i] == 21) i21 = i;
    if (seen[i] == 22) i22 = i;
  }
  MC_ASSERT(i11 < i12);
  MC_ASSERT(i21 < i22);
}

TEST(McQueue, TwoProducersNoLossNoDupFifo) {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_schedules = 20000;
  const mc::Result r = mc::explore(queue_two_producer_body, o);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_GT(r.schedules, 100u);
}

TEST(McQueue, BulkPushBatchPop) {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_schedules = 20000;
  const mc::Result r = mc::explore(
      [] {
        McQueueT q(2);
        mc::Thread p([&] {
          std::vector<int> items{1, 2, 3};
          MC_ASSERT(q.push(items, true) == 3);
        });
        std::vector<int> seen;
        std::vector<int> out;
        while (seen.size() < 3) {
          out.clear();
          (void)q.pop_batch(out, 2, true);
          seen.insert(seen.end(), out.begin(), out.end());
        }
        p.join();
        MC_ASSERT(seen.size() == 3);
        // Single producer: global FIFO.
        for (int i = 0; i < 3; ++i) MC_ASSERT(seen[static_cast<std::size_t>(i)] == i + 1);
      },
      o);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
}

TEST(McQueue, CloseDrainsThenSignalsShutdown) {
  const mc::Result r = mc::explore([] {
    McQueueT q(4);
    MC_ASSERT(push_one(q, 1, false));
    MC_ASSERT(push_one(q, 2, false));
    mc::Thread c([&] {
      std::vector<int> got;
      std::vector<int> out;
      for (;;) {
        out.clear();
        // Shutdown signal: a forever pop returns empty only once done.
        if (q.pop_batch(out, 4, true) == 0) break;
        got.insert(got.end(), out.begin(), out.end());
      }
      // Everything queued before close drains, in order.
      MC_ASSERT(got.size() == 2);
      MC_ASSERT(got[0] == 1 && got[1] == 2);
    });
    q.close();
    MC_ASSERT(!push_one(q, 3, false));  // closed: pushes fail
    c.join();
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.budget_exhausted);
}

// The acceptance configuration: 2 producers, 2 consumers, capacity 1.
// Exploration must cover >= 10k distinct interleavings inside the CI
// budget without finding a violation.
TEST(McCoverage, TwoProducerTwoConsumerTenThousandSchedules) {
  mc::Options o;
  o.max_schedules = 12000;
  const mc::Result r = mc::explore(
      [] {
        McQueueT q(1);
        mc::Thread p1([&] { MC_ASSERT(push_one(q, 1)); });
        mc::Thread p2([&] { MC_ASSERT(push_one(q, 2)); });
        mc::atomic<int> popped{0};
        auto consume = [&] {
          std::vector<int> out;
          for (;;) {
            out.clear();
            const std::size_t n = q.pop_batch(out, 2, true);
            if (n == 0) break;  // closed and empty
            popped.fetch_add(static_cast<int>(n));
          }
        };
        mc::Thread c1(consume);
        mc::Thread c2(consume);
        p1.join();
        p2.join();
        q.close();
        c1.join();
        c2.join();
        MC_ASSERT(popped.load() == 2);
      },
      o);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_GE(r.schedules, 10000u);
}

// ---------------------------------------------------------------------
// McRing — the seqlock ring: a concurrent collector never observes a
// torn payload, and the writer never blocks on the collector.

// Events whose seven encoded words are pairwise distinct, so any
// cross-event mix of words decodes to something that matches none.
TraceEvent ring_event(int i) {
  TraceEvent e;
  e.ts_ns = 0x1000u * static_cast<std::uint64_t>(i + 1) + 1;
  e.dur_ns = 0x2000u * static_cast<std::uint64_t>(i + 1) + 2;
  e.tid = static_cast<std::uint32_t>(i + 1);
  e.name = static_cast<EventName>(i % 3);
  e.phase = Phase::kComplete;
  e.args.batch = 0x3000u * static_cast<std::uint64_t>(i + 1) + 3;
  e.args.lane = i + 4;
  e.args.k = i + 5;
  e.args.er = i % 2;
  e.args.chain = i + 6;
  e.args.a_lo = 0x4000u * static_cast<std::uint64_t>(i + 1) + 7;
  e.args.b_lo = 0x5000u * static_cast<std::uint64_t>(i + 1) + 8;
  e.args.has_operands = true;
  return e;
}

bool matches_some_pushed(const TraceEvent& got, int n_pushed) {
  const auto words = got.encode();
  for (int i = 0; i < n_pushed; ++i) {
    if (words == ring_event(i).encode()) return true;
  }
  return false;
}

// Capacity 2, three pushes: the third overwrites slot 0 while the
// collector may be mid-copy — the torn-read window the seqlock closes.
void ring_body(bool skip_busy_fence) {
  BasicEventRing<mc::Atomics> ring(2);
  // Quiescent pre-fill: both slots written by this thread before the
  // writer spawns, then a seq_cst store to flush the store buffer so
  // the committed state is the full two-event window.  Exploration
  // then concentrates on the one race the busy fence guards: an
  // overwriting push against a concurrent collector.
  ring.push(ring_event(0));
  ring.push(ring_event(1));
  mc::atomic<int> prefill_flush{0};
  prefill_flush.store(1);
  mc::Thread writer([&] {
    if (skip_busy_fence) {
      ring.push_skipping_busy_fence_for_test(ring_event(2));
    } else {
      ring.push(ring_event(2));
    }
  });
  std::vector<TraceEvent> out;
  ring.collect(out);
  for (const TraceEvent& e : out) {
    MC_ASSERT(matches_some_pushed(e, 3));
  }
  writer.join();
  // Quiescent collect sees exactly the retained window, in order.
  out.clear();
  MC_ASSERT(ring.collect(out) == 2);
  MC_ASSERT(matches_some_pushed(out[0], 3));
  MC_ASSERT(matches_some_pushed(out[1], 3));
  MC_ASSERT(ring.pushed() == 3);
}

TEST(McRing, CollectorNeverTornInterleaved) {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_schedules = 20000;
  const mc::Result r = mc::explore([] { ring_body(false); }, o);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
}

TEST(McRing, CollectorNeverTornWeakMemory) {
  // With store buffers modeled, the writer's fences carry the proof.
  mc::Options o;
  o.weak_memory = true;
  o.mode = mc::Options::Mode::kRandom;
  o.max_schedules = 2000;
  o.seed = 11;
  const mc::Result r = mc::explore([] { ring_body(false); }, o);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
}

TEST(McRing, WriterNeverBlocksOnCollector) {
  // The writer's step count is bounded regardless of what the
  // collector does: a tight per-execution step budget still passes.
  mc::Options o;
  o.max_steps = 400;
  o.preemption_bound = 1;
  o.max_schedules = 5000;
  const mc::Result r = mc::explore([] { ring_body(false); }, o);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
}

// ---------------------------------------------------------------------
// McService — completion/promise handoff over the production queue.

TEST(McService, CompletionHandoffPublishesResult) {
  // Worker pops a request, writes the result cell (instrumented
  // relaxed atomic — shared data the checker schedules around), then
  // publishes via the done flag — the probe below may observe done==1
  // at any interleaving point and must then see the full result.
  const mc::Result r = mc::explore([] {
    McQueueT q(2);
    mc::atomic<int> result{0};
    mc::atomic<int> done{0};
    mc::Thread worker([&] {
      std::vector<int> out;
      while (out.empty()) (void)q.pop_batch(out, 1, true);
      result.store(out[0] * 2, std::memory_order_relaxed);
      done.store(1, std::memory_order_release);
    });
    MC_ASSERT(push_one(q, 21));
    if (done.load(std::memory_order_acquire) == 1) {
      MC_ASSERT(result.load(std::memory_order_relaxed) == 42);
    }
    worker.join();
    MC_ASSERT(done.load() == 1 && result.load() == 42);
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.budget_exhausted);
}

TEST(McService, CompetingWorkersDeliverExactlyOnce) {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_schedules = 20000;
  const mc::Result r = mc::explore(
      [] {
        McQueueT q(2);
        mc::atomic<int> delivered0{0};
        mc::atomic<int> delivered1{0};
        auto work = [&] {
          std::vector<int> out;
          for (;;) {
            out.clear();
            if (q.pop_batch(out, 2, true) == 0) break;
            for (const int i : out) {
              if (i == 0) delivered0.fetch_add(1);
              if (i == 1) delivered1.fetch_add(1);
            }
          }
        };
        mc::Thread w1(work);
        mc::Thread w2(work);
        MC_ASSERT(push_one(q, 0));
        MC_ASSERT(push_one(q, 1));
        q.close();
        w1.join();
        w2.join();
        MC_ASSERT(delivered0.load() == 1);
        MC_ASSERT(delivered1.load() == 1);
      },
      o);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
}

// ---------------------------------------------------------------------
// McMutant — seeded bugs the checker MUST catch, each replayable from
// its reported decision list.

void expect_replayable_failure(const std::function<void()>& body,
                               const mc::Result& r, const mc::Options& o) {
  ASSERT_TRUE(r.failed) << "mutant not caught after " << r.schedules
                        << " schedules";
  ASSERT_FALSE(r.failing.empty());
  const mc::Result again = mc::replay(body, r.failing, o);
  EXPECT_TRUE(again.failed);
  EXPECT_EQ(again.message, r.message);
  EXPECT_EQ(again.trace, r.trace);
}

// Mutant 1 (the lost-wakeup regression of docs/model_checking.md):
// delete BoundedQueue's not_empty notify — registration order in the
// queue is mutex m0, not_empty c0, not_full c1 — and the consumer
// sleeps forever on a queue with an item in it.
TEST(McMutant, QueueLostNotEmptyWakeupDeadlocks) {
  auto body = [] {
    McQueueT q(1);
    mc::Thread p([&] { MC_ASSERT(push_one(q, 7)); });
    std::vector<int> out;
    while (out.empty()) (void)q.pop_batch(out, 1, true);
    p.join();
    MC_ASSERT(out[0] == 7);
  };
  mc::Options o;
  o.suppress_notify_cv = 0;  // not_empty_
  // Iterative bounding: the failure found is minimal in preemptions.
  const mc::Result r = mc::explore_iterative(body, 2, o);
  expect_replayable_failure(body, r, o);
  EXPECT_NE(r.message.find("deadlock"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("cv-wait"), std::string::npos) << r.message;
  // Pin the minimal failing schedule: exploration is deterministic, so
  // this string only moves when the scheduler's choice order changes —
  // review such a diff, then update the pin.
  EXPECT_EQ(mc::format_schedule(r.failing),
            mc::format_schedule(mc::explore_iterative(body, 2, o).failing));
}

// Mutant 2: delete the not_full notify — blocked producers never learn
// the consumer freed capacity.
TEST(McMutant, QueueLostNotFullWakeupDeadlocks) {
  auto body = [] {
    McQueueT q(1);
    mc::Thread p([&] {
      MC_ASSERT(push_one(q, 1));
      MC_ASSERT(push_one(q, 2));  // blocks on the full queue
    });
    std::vector<int> seen;
    std::vector<int> out;
    while (seen.size() < 2) {
      out.clear();
      (void)q.pop_batch(out, 1, true);
      seen.insert(seen.end(), out.begin(), out.end());
    }
    p.join();
  };
  mc::Options o;
  o.suppress_notify_cv = 1;  // not_full_
  const mc::Result r = mc::explore_iterative(body, 2, o);
  expect_replayable_failure(body, r, o);
  EXPECT_NE(r.message.find("deadlock"), std::string::npos) << r.message;
}

// Mutant 3: delete close()'s not_empty broadcast — the shutdown signal
// never reaches a sleeping consumer.
TEST(McMutant, QueueLostCloseWakeupDeadlocks) {
  auto body = [] {
    McQueueT q(1);
    mc::Thread c([&] {
      std::vector<int> out;
      (void)q.pop_batch(out, 1, true);  // returns 0 after close
      MC_ASSERT(out.empty());
    });
    q.close();
    c.join();
  };
  mc::Options o;
  o.suppress_notify_cv = 0;
  const mc::Result r = mc::explore_iterative(body, 2, o);
  expect_replayable_failure(body, r, o);
  EXPECT_NE(r.message.find("deadlock"), std::string::npos) << r.message;
}

// Mutant 4: skip the ring writer's busy-mark release fence (the hook
// trace.hpp ships for exactly this test).  Under the store-buffer
// model the overwriting payload can commit before the odd mark, and a
// mid-copy collector validates a torn event.
TEST(McMutant, RingSkippedBusyFenceTearsPayload) {
  auto body = [] { ring_body(true); };
  mc::Options o;
  o.weak_memory = true;
  o.mode = mc::Options::Mode::kRandom;
  o.max_schedules = 20000;
  o.seed = 3;
  const mc::Result r = mc::explore(body, o);
  expect_replayable_failure(body, r, o);
  EXPECT_NE(r.message.find("matches_some_pushed"), std::string::npos)
      << r.message;
}

// A three-word seqlock small enough to explore exhaustively — the
// memory-order mutants below are exact miniatures of the EventRing
// writer protocol.
struct MiniSeqlock {
  mc::atomic<std::uint64_t> seq{0};
  mc::atomic<std::uint64_t> w0{0};
  mc::atomic<std::uint64_t> w1{0};

  void write(std::uint64_t a, std::uint64_t b, bool drop_odd_mark,
             bool demote_publish_release) {
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    if (!drop_odd_mark) seq.store(s + 1, std::memory_order_relaxed);
    mc::fence_release();
    w0.store(a, std::memory_order_relaxed);
    w1.store(b, std::memory_order_relaxed);
    seq.store(s + 2, demote_publish_release ? std::memory_order_relaxed
                                            : std::memory_order_release);
  }

  // True = valid snapshot per the seqlock handshake.
  bool read(std::uint64_t* a, std::uint64_t* b) const {
    const std::uint64_t s1 = seq.load(std::memory_order_acquire);
    if (s1 & 1) return false;
    *a = w0.load(std::memory_order_relaxed);
    *b = w1.load(std::memory_order_relaxed);
    mc::fence_acquire();
    return seq.load(std::memory_order_relaxed) == s1;
  }
};

void mini_seqlock_body(bool drop_odd_mark, bool demote_publish_release) {
  MiniSeqlock s;
  mc::Thread writer([&] {
    s.write(0xAAAA, 0xBBBB, drop_odd_mark, demote_publish_release);
  });
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  if (s.read(&a, &b)) {
    // A validated snapshot is all-old or all-new, never a mix.
    MC_ASSERT((a == 0 && b == 0) || (a == 0xAAAA && b == 0xBBBB));
  }
  writer.join();
}

TEST(McMutant, SeqlockIntactProtocolPasses) {
  const mc::Result sc = mc::explore([] { mini_seqlock_body(false, false); });
  EXPECT_FALSE(sc.failed) << sc.message << "\n" << sc.trace;
  mc::Options o;
  o.weak_memory = true;
  const mc::Result wk =
      mc::explore([] { mini_seqlock_body(false, false); }, o);
  EXPECT_FALSE(wk.failed) << wk.message << "\n" << wk.trace;
}

// Mutant 5: drop the odd busy mark — a reader overlapping the write
// validates a half-written payload.  Caught under plain interleaving
// semantics, no weak memory needed.
TEST(McMutant, SeqlockDroppedBusyMarkTears) {
  auto body = [] { mini_seqlock_body(true, false); };
  const mc::Options o;
  const mc::Result r = mc::explore(body, o);
  expect_replayable_failure(body, r, o);
}

// Mutant 6: demote the publishing store from release to relaxed — with
// store buffers the new even seq can commit before the payload words,
// and the reader validates stale/mixed data.
TEST(McMutant, SeqlockDemotedReleasePublishTears) {
  auto body = [] { mini_seqlock_body(false, true); };
  mc::Options o;
  o.weak_memory = true;
  const mc::Result r = mc::explore(body, o);
  expect_replayable_failure(body, r, o);
}

// Mutant 7: the worker publishes completion before writing the result
// (the classic reordered-publish service bug).
TEST(McMutant, ServicePublishBeforeResultCaught) {
  auto body = [] {
    McQueueT q(2);
    // The result cell is shared data: it must be an instrumented
    // atomic (relaxed = "plain field the checker can see") or the
    // window between the two writes is not a scheduling point.
    mc::atomic<int> result{0};
    mc::atomic<int> done{0};
    mc::Thread worker([&] {
      std::vector<int> out;
      while (out.empty()) (void)q.pop_batch(out, 1, true);
      done.store(1, std::memory_order_release);  // MUTANT: before result
      result.store(out[0] * 2, std::memory_order_relaxed);
    });
    MC_ASSERT(push_one(q, 21));
    if (done.load(std::memory_order_acquire) == 1) {
      MC_ASSERT(result.load(std::memory_order_relaxed) == 42);
    }
    worker.join();
  };
  const mc::Options o;
  const mc::Result r = mc::explore(body, o);
  expect_replayable_failure(body, r, o);
  EXPECT_NE(r.message.find("== 42"), std::string::npos) << r.message;
}

}  // namespace
