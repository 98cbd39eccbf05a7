// Tests for the arithmetic service: correctness against the scalar ACA
// model, fixed-seed determinism of the telemetry snapshot, bounded-queue
// backpressure, drain-on-destroy, and multi-producer/multi-worker
// operation (the suites here also run under the `tsan` preset).

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aca.hpp"
#include "service/bounded_queue.hpp"
#include "service/service.hpp"
#include "telemetry/registry.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "workloads/operand_stream.hpp"

namespace vlsa {
namespace {

using service::AdderService;
using service::Completion;
using service::OverflowPolicy;
using service::ServiceConfig;
using util::BitVec;

ServiceConfig pump_config(int width, int window,
                          std::size_t capacity = 4096) {
  ServiceConfig config;
  config.pipeline.width = width;
  config.pipeline.window = window;
  config.workers = 0;
  config.queue_capacity = capacity;
  config.record_wall_time = false;
  return config;
}

long long counter_value(const telemetry::Snapshot& snap,
                        const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "no counter named " << name;
  return -1;
}

TEST(ServiceCorrectness, PumpModeMatchesScalarModel) {
  const int width = 64, window = 8;
  AdderService service(pump_config(width, window));
  workloads::OperandStream stream(workloads::Distribution::Uniform, width,
                                  0xfeed);
  struct Expected {
    BitVec sum;
    bool flagged;
    std::future<Completion> future;
  };
  std::vector<Expected> expected;
  for (int i = 0; i < 500; ++i) {
    const auto [a, b] = stream.next();
    auto future = service.submit(a, b);
    ASSERT_TRUE(future.has_value());
    expected.push_back({a + b, core::aca_flag(a, b, window),
                        std::move(*future)});
  }
  service.flush();
  for (auto& e : expected) {
    const Completion got = e.future.get();
    EXPECT_EQ(got.sum, e.sum);
    EXPECT_EQ(got.flagged, e.flagged);
    EXPECT_GE(got.latency_cycles, 1);
  }
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.completed"), 500);
  EXPECT_EQ(counter_value(snap, "service.fast_path") +
                counter_value(snap, "service.recovered"),
            500);
}

TEST(ServiceCorrectness, MaxBatchIsTheDefaultOrTheGivenValue) {
  // 0 means kDefaultMaxBatch and a positive value is used as given, on
  // every ISA tier: each request is evaluated in its own limbs, so the
  // SIMD lane count means nothing to the service.
  auto config = pump_config(64, 6);
  EXPECT_EQ(AdderService(config).config().max_batch,
            service::kDefaultMaxBatch);
  for (const int given : {1, 5, 1000}) {
    config.max_batch = given;
    EXPECT_EQ(AdderService(config).config().max_batch, given);
  }
}

TEST(ServiceCorrectness, WideBatchDispatchMatchesScalarModel) {
  // max_batch = 0, the default (256): a flush after 1200 queued
  // submissions makes every dispatch pop a batch of up to 256 requests,
  // driving the eval pass and the completion loop over full batches end
  // to end.  Window 6 at width 64 flags often enough that the recovery
  // lane runs inside wide batches too.
  const int width = 64, window = 6;
  AdderService service(pump_config(width, window));
  workloads::OperandStream stream(workloads::Distribution::Uniform, width,
                                  0x51d5);
  struct Expected {
    BitVec sum;
    bool flagged;
    std::future<Completion> future;
  };
  std::vector<Expected> expected;
  for (int i = 0; i < 1200; ++i) {
    const auto [a, b] = stream.next();
    auto future = service.submit(a, b);
    ASSERT_TRUE(future.has_value());
    expected.push_back({a + b, core::aca_flag(a, b, window),
                        std::move(*future)});
  }
  service.flush();
  int flagged = 0;
  for (auto& e : expected) {
    const Completion got = e.future.get();
    EXPECT_EQ(got.sum, e.sum);
    EXPECT_EQ(got.flagged, e.flagged);
    flagged += e.flagged ? 1 : 0;
  }
  EXPECT_GT(flagged, 0);  // the batch actually exercised recovery
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.completed"), 1200);
  EXPECT_EQ(counter_value(snap, "service.recovered"), flagged);
}

TEST(ServiceCorrectness, ExactAtServiceWidthsAndBatchShapes) {
  // The shipped shape (1024/23) and widths whose top limb is partial,
  // uniform and adversarial operands (b = ~a with a few flipped bits),
  // dispatched in batches of 1, of 5 and of max_batch.  Each request
  // must come back with the exact sum, the scalar ER flag and the
  // sliced engine's mispredict bit: the speculative sum or carry out
  // differs from the exact one.  The last request of every round
  // mispredicts only its carry out (a length-k run at the top with a
  // generate below), so aca_is_exact alone would call it exact.
  struct Shape {
    int width, window;
  };
  for (const Shape shape : {Shape{1024, 23}, Shape{333, 9}, Shape{65, 1}}) {
    const int n = shape.width, k = shape.window;
    AdderService service(pump_config(n, k));
    const auto max_batch =
        static_cast<std::size_t>(service.config().max_batch);
    util::Rng rng(static_cast<std::uint64_t>(n) * 31 + k);
    int flagged = 0, wrong = 0;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{5},
                                    max_batch}) {
      struct Expected {
        BitVec a, b;
        std::future<Completion> future;
      };
      std::vector<Expected> expected;
      const auto submit = [&](const BitVec& a, const BitVec& b) {
        auto future = service.submit(a, b);
        ASSERT_TRUE(future.has_value());
        expected.push_back({a, b, std::move(*future)});
      };
      for (std::size_t i = 0; i < 2 * batch + 3; ++i) {
        const BitVec a = rng.next_bits(n);
        BitVec b = rng.next_bits(n);
        if (i % 2 == 1) {
          b = ~a;
          for (int f = 0; f < 1 + static_cast<int>(i % 4); ++f) {
            const int bit = static_cast<int>(
                rng.next_below(static_cast<std::uint64_t>(n)));
            b.set_bit(bit, !b.bit(bit));
          }
        }
        submit(a, b);
        if (expected.size() % batch == 0) {
          ASSERT_EQ(service.pump(), batch);
        }
      }
      BitVec top_a(n), top_b(n);
      for (int i = n - k; i < n; ++i) top_a.set_bit(i, true);
      top_a.set_bit(n - k - 1, true);
      top_b.set_bit(n - k - 1, true);
      submit(top_a, top_b);
      service.flush();
      for (auto& e : expected) {
        const Completion got = e.future.get();
        const auto spec = core::aca_add(e.a, e.b, k);
        const auto exact = e.a.add_with_carry(e.b);
        const bool mispredict =
            !core::aca_is_exact(e.a, e.b, k) ||
            spec.carry_out != exact.carry_out;
        ASSERT_EQ(got.sum, exact.sum) << n << "/" << k << " batch " << batch;
        ASSERT_EQ(got.flagged, core::aca_flag(e.a, e.b, k))
            << n << "/" << k << " batch " << batch;
        ASSERT_EQ(got.speculative_wrong, mispredict)
            << n << "/" << k << " batch " << batch;
        flagged += got.flagged ? 1 : 0;
        wrong += got.speculative_wrong ? 1 : 0;
      }
      EXPECT_TRUE(core::aca_is_exact(top_a, top_b, k));
    }
    EXPECT_GT(flagged, 0) << n << "/" << k;
    EXPECT_GT(wrong, 0) << n << "/" << k;
  }
}

TEST(ServiceOwnership, EveryCompletionHandsTheSecondOperandBack) {
  // A dispatcher frees no buffer a caller allocated: each completion
  // carries the submitted b back unchanged next to the exact sum, on the
  // fast path and the recovery path, through futures and callbacks, in
  // pump mode and with worker threads.
  struct Shape {
    int width, window;
  };
  for (const Shape shape : {Shape{1024, 23}, Shape{333, 9}}) {
    for (const int workers : {0, 2}) {
      const int n = shape.width, k = shape.window;
      ServiceConfig config = pump_config(n, k);
      config.workers = workers;
      AdderService service(config);
      util::Rng rng(static_cast<std::uint64_t>(n) * 7 + workers);
      constexpr int kRequests = 120;
      std::vector<BitVec> as, bs;
      std::vector<std::future<Completion>> futures(kRequests);
      std::vector<std::optional<Completion>> called(kRequests);
      std::mutex called_mutex;
      for (int i = 0; i < kRequests; ++i) {
        const BitVec a = rng.next_bits(n);
        // Every other request is b = ~a: one propagate run over the
        // whole width, so it is flagged and takes the recovery path.
        const BitVec b = i % 2 == 1 ? ~a : rng.next_bits(n);
        as.push_back(a);
        bs.push_back(b);
        if (i % 3 == 0) {
          ASSERT_TRUE(service.try_submit_callback(
              BitVec(a), BitVec(b), [&called, &called_mutex, i](Completion c) {
                std::lock_guard<std::mutex> lock(called_mutex);
                called[static_cast<std::size_t>(i)] = std::move(c);
              }));
        } else {
          auto future = service.submit(a, b);
          ASSERT_TRUE(future.has_value());
          futures[static_cast<std::size_t>(i)] = std::move(*future);
        }
        if (workers == 0 && i % 16 == 15) service.pump();
      }
      service.flush();
      int flagged = 0;
      for (int i = 0; i < kRequests; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        Completion got;
        if (i % 3 == 0) {
          std::lock_guard<std::mutex> lock(called_mutex);
          ASSERT_TRUE(called[idx].has_value()) << i;
          got = std::move(*called[idx]);
        } else {
          got = futures[idx].get();
        }
        ASSERT_EQ(got.b, bs[idx]) << n << "/" << k << " request " << i;
        ASSERT_EQ(got.sum, as[idx] + bs[idx]) << i;
        ASSERT_EQ(got.flagged, core::aca_flag(as[idx], bs[idx], k)) << i;
        flagged += got.flagged ? 1 : 0;
      }
      EXPECT_GE(flagged, kRequests / 2) << n << "/" << k;
      EXPECT_LT(flagged, kRequests) << n << "/" << k;
    }
  }
}

TEST(ServiceDeterminism, FixedSeedSnapshotsAreByteIdentical) {
  // Single worker (pump mode), fixed seed, wall-time recording off:
  // the full telemetry snapshot — histograms included — must be
  // bit-identical across repeats.
  auto run = [] {
    // window 4 at width 64 flags often, exercising the recovery lane.
    AdderService service(pump_config(64, 4));
    workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                    0x5eed);
    for (int i = 0; i < 1000; ++i) {
      auto [a, b] = stream.next();
      EXPECT_TRUE(service.submit(std::move(a), std::move(b)).has_value());
      if (i % 3 == 0) service.pump();  // interleave dispatch with arrivals
    }
    service.flush();
    return service.registry().snapshot();
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_GT(counter_value(first, "service.recovered"), 0);
}

TEST(ServiceCorrectness, SubmitManyMatchesPerRequestSubmit) {
  const int width = 64, window = 8;
  AdderService service(pump_config(width, window));
  workloads::OperandStream stream(workloads::Distribution::Uniform, width,
                                  0xbead);
  std::vector<std::pair<BitVec, BitVec>> ops;
  std::vector<BitVec> sums;
  for (int i = 0; i < 200; ++i) {
    auto [a, b] = stream.next();
    sums.push_back(a + b);
    ops.emplace_back(std::move(a), std::move(b));
  }
  auto futures = service.submit_many(std::move(ops));
  ASSERT_EQ(futures.size(), 200u);
  service.flush();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].has_value()) << "rejected at " << i;
    EXPECT_EQ(futures[i]->get().sum, sums[i]);
  }
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.submitted"), 200);
  EXPECT_EQ(counter_value(snap, "service.completed"), 200);
}

TEST(ServiceBackpressure, SubmitManyRejectsTailBeyondCapacity) {
  // Pump mode with a 8-slot queue: a 12-element batch accepts the first
  // 8 and rejects the last 4, in order.
  AdderService service(pump_config(32, 4, /*capacity=*/8));
  std::vector<std::pair<BitVec, BitVec>> ops;
  for (int i = 0; i < 12; ++i) {
    ops.emplace_back(BitVec::from_u64(32, static_cast<std::uint64_t>(i)),
                     BitVec::from_u64(32, 1));
  }
  auto futures = service.submit_many(std::move(ops));
  ASSERT_EQ(futures.size(), 12u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(futures[static_cast<std::size_t>(i)].has_value()) << i;
  }
  for (int i = 8; i < 12; ++i) {
    EXPECT_FALSE(futures[static_cast<std::size_t>(i)].has_value()) << i;
  }
  service.flush();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)]->get().sum,
              BitVec::from_u64(32, static_cast<std::uint64_t>(i) + 1));
  }
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.submitted"), 8);
  EXPECT_EQ(counter_value(snap, "service.rejected"), 4);
}

TEST(ServiceBackpressure, BoundedQueueRejectsExactlyWhenFull) {
  auto config = pump_config(32, 4, /*capacity=*/8);
  config.overflow = OverflowPolicy::Reject;
  AdderService service(config);
  const BitVec a = BitVec::from_u64(32, 1);
  const BitVec b = BitVec::from_u64(32, 2);
  std::vector<std::future<Completion>> accepted;
  for (int i = 0; i < 8; ++i) {
    auto future = service.submit(a, b);
    ASSERT_TRUE(future.has_value()) << "rejected below capacity, i=" << i;
    accepted.push_back(std::move(*future));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(service.submit(a, b).has_value());
  }
  {
    const auto snap = service.registry().snapshot();
    EXPECT_EQ(counter_value(snap, "service.submitted"), 8);
    EXPECT_EQ(counter_value(snap, "service.rejected"), 3);
  }
  // Draining frees capacity: the next submission is accepted again.
  service.flush();
  auto future = service.submit(a, b);
  ASSERT_TRUE(future.has_value());
  accepted.push_back(std::move(*future));
  service.flush();
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().sum, BitVec::from_u64(32, 3));
  }
}

TEST(ServiceShutdown, DestructorDrainsInFlight) {
  telemetry::Registry registry;
  std::vector<std::future<Completion>> futures;
  const int width = 64;
  workloads::OperandStream stream(workloads::Distribution::Uniform, width,
                                  0xd1e);
  std::vector<BitVec> sums;
  {
    ServiceConfig config;
    config.pipeline.width = width;
    config.pipeline.window = 8;
    config.workers = 2;
    config.queue_capacity = 256;
    AdderService service(config, &registry);
    for (int i = 0; i < 2000; ++i) {
      auto [a, b] = stream.next();
      sums.push_back(a + b);
      auto future = service.submit(std::move(a), std::move(b));
      ASSERT_TRUE(future.has_value());
      futures.push_back(std::move(*future));
    }
    // Destructor runs here with requests still queued and in flight.
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Completion got = futures[i].get();  // must not hang or throw
    EXPECT_EQ(got.sum, sums[i]);
  }
  const auto snap = registry.snapshot();
  EXPECT_EQ(counter_value(snap, "service.completed"), 2000);
}

TEST(ServiceShutdown, SubmitAfterCloseThrows) {
  AdderService service(pump_config(32, 4));
  service.close();
  EXPECT_THROW(
      service.submit(BitVec::from_u64(32, 1), BitVec::from_u64(32, 2)),
      std::runtime_error);
}

TEST(ServiceShutdown, OperandWidthMismatchThrows) {
  AdderService service(pump_config(32, 4));
  EXPECT_THROW(
      service.submit(BitVec::from_u64(16, 1), BitVec::from_u64(32, 2)),
      std::invalid_argument);
}

TEST(ServiceConcurrency, MultiProducerBlockPolicyCompletesAll) {
  telemetry::Registry registry;
  {
    ServiceConfig config;
    config.pipeline.width = 64;
    config.pipeline.window = 6;
    config.workers = 4;
    config.queue_capacity = 64;  // small bound: exercises blocking
    config.overflow = OverflowPolicy::Block;
    AdderService service(config, &registry);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 2000;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&service, p] {
        workloads::OperandStream stream(workloads::Distribution::Uniform,
                                        64, 100 + p);
        for (int i = 0; i < kPerProducer; ++i) {
          auto [a, b] = stream.next();
          ASSERT_TRUE(
              service.submit(std::move(a), std::move(b)).has_value());
        }
      });
    }
    for (auto& producer : producers) producer.join();
    service.flush();
    const auto snap = registry.snapshot();
    EXPECT_EQ(counter_value(snap, "service.completed"),
              kProducers * kPerProducer);
    EXPECT_EQ(counter_value(snap, "service.rejected"), 0);
  }
}

// A queue smaller than max_batch: a pop of the whole queue is a full
// pop (a backlog with Block producers waiting for space), which the
// worker must follow straight away.  Every sum stays exact at a width
// that crosses limbs, and no pop exceeds the queue.
TEST(ServiceConcurrency, QueueSmallerThanMaxBatchCompletesExactly) {
  telemetry::Registry registry;
  ServiceConfig config;
  config.pipeline.width = 1024;
  config.pipeline.window = 23;
  config.workers = 1;
  config.queue_capacity = 8;
  config.overflow = OverflowPolicy::Block;
  AdderService service(config, &registry);
  ASSERT_GT(static_cast<std::size_t>(service.config().max_batch),
            config.queue_capacity);
  constexpr int kProducers = 2;
  constexpr int kPerProducer = 1500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, p] {
      util::Rng rng(300 + static_cast<std::uint64_t>(p));
      std::vector<std::pair<BitVec, std::future<Completion>>> pending;
      for (int i = 0; i < kPerProducer; ++i) {
        const BitVec a = rng.next_bits(1024);
        // Every fourth pair is all-propagate, so the flagged path runs.
        const BitVec b = i % 4 == 0 ? ~a : rng.next_bits(1024);
        auto future = service.submit(a, b);
        ASSERT_TRUE(future.has_value());
        pending.emplace_back(a + b, std::move(*future));
      }
      for (auto& [sum, future] : pending) {
        ASSERT_EQ(future.get().sum, sum);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  const auto snap = registry.snapshot();
  EXPECT_EQ(counter_value(snap, "service.completed"),
            kProducers * kPerProducer);
  EXPECT_GT(counter_value(snap, "service.recovered"), 0);
  for (const auto& h : snap.histograms) {
    if (h.name == "service.batch_occupancy") {
      EXPECT_LE(h.max, static_cast<std::uint64_t>(config.queue_capacity));
    }
  }
}

TEST(ServiceRecovery, ComplementaryTrafficCongestsRecoveryLane) {
  const int width = 64, window = 8;
  auto config = pump_config(width, window);
  config.pipeline.recovery_cycles = 2;
  AdderService service(config);
  util::Rng rng(7);
  std::vector<std::pair<BitVec, std::future<Completion>>> expected;
  for (int i = 0; i < 256; ++i) {
    const BitVec a = rng.next_bits(width);
    const BitVec b = ~a;  // full-width propagate chain: always flags
    auto future = service.submit(a, b);
    ASSERT_TRUE(future.has_value());
    expected.emplace_back(a + b, std::move(*future));
  }
  service.flush();
  for (auto& [sum, future] : expected) {
    const Completion got = future.get();
    EXPECT_EQ(got.sum, sum);
    EXPECT_TRUE(got.flagged);
    EXPECT_GE(got.latency_cycles, 1 + config.pipeline.recovery_cycles);
  }
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.recovered"), 256);
  EXPECT_EQ(counter_value(snap, "service.fast_path"), 0);
  // The serial recovery lane backs up: the tail is far above the median.
  for (const auto& h : snap.histograms) {
    if (h.name == "service.latency_cycles") {
      EXPECT_GT(h.p999(), h.p50());
      EXPECT_GE(h.max, 256u * 2u);  // ~2 cycles per queued recovery
    }
  }
}

TEST(ServiceTelemetry, FastPathMinimumLatencyIsOneCycle) {
  // A huge window never flags: everything takes the one-cycle fast path.
  AdderService service(pump_config(64, 64));
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64, 3);
  for (int i = 0; i < 64; ++i) {
    auto [a, b] = stream.next();
    ASSERT_TRUE(service.submit(std::move(a), std::move(b)).has_value());
  }
  service.flush();
  const auto snap = service.registry().snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name == "service.latency_cycles") {
      EXPECT_EQ(h.min, 1u);
      EXPECT_EQ(h.count, 64u);
    }
  }
  EXPECT_EQ(counter_value(snap, "service.recovered"), 0);
}

// One item through the queue's only push.
bool push_one(service::BoundedQueue<int>& queue, int item, bool wait) {
  return queue.push({&item, 1}, wait) == 1;
}

TEST(BoundedQueue, PushPopBatchBasics) {
  service::BoundedQueue<int> queue(4);
  EXPECT_TRUE(push_one(queue, 1, false));
  EXPECT_TRUE(push_one(queue, 2, false));
  EXPECT_TRUE(push_one(queue, 3, false));
  EXPECT_TRUE(push_one(queue, 4, false));
  EXPECT_FALSE(push_one(queue, 5, false));  // full
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 3, false), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(push_one(queue, 5, false));  // space again
  out.clear();
  EXPECT_EQ(queue.pop_batch(out, 10, false), 2u);
  EXPECT_EQ(out, (std::vector<int>{4, 5}));
  EXPECT_EQ(queue.pop_batch(out, 10, false), 0u);
}

TEST(BoundedQueue, PushWithoutWaitTakesTheLeadingItemsThatFit) {
  // The admission path relies on this: what the queue does not take is
  // handed back to the caller intact (try_submit_callback returns the
  // operands of a missed request).
  service::BoundedQueue<std::string> queue(2);
  std::vector<std::string> items{"a", "b", "c"};
  EXPECT_EQ(queue.push(items, false), 2u);
  EXPECT_EQ(items[2], "c");
  std::vector<std::string> out;
  EXPECT_EQ(queue.pop_batch(out, 8, false), 2u);
  EXPECT_EQ(out, (std::vector<std::string>{"a", "b"}));
  queue.close();
  std::vector<std::string> late{"d"};
  EXPECT_EQ(queue.push(late, true), 0u);  // closed: takes nothing
  EXPECT_EQ(late[0], "d");
}

TEST(BoundedQueue, CloseDrainsThenSignalsShutdown) {
  service::BoundedQueue<int> queue(8);
  EXPECT_TRUE(push_one(queue, 1, false));
  EXPECT_TRUE(push_one(queue, 2, false));
  queue.close();
  EXPECT_FALSE(push_one(queue, 3, false));
  std::vector<int> out;
  // A closed queue drains...
  EXPECT_EQ(queue.pop_batch(out, 64, true), 2u);
  // ...and then reports shutdown immediately (no block).
  EXPECT_EQ(queue.pop_batch(out, 64, true), 0u);
}

TEST(BoundedQueue, RingKeepsFifoAcrossWrapAroundAndGrowth) {
  // Push five, pop three: the live items slide around the ring, so it
  // wraps, and it fills while wrapped, so it grows with its oldest item
  // in the middle (16 -> 32 -> 64 -> 100 slots, the last capped at the
  // capacity).  Every item must come out once, in push order.
  service::BoundedQueue<int> queue(100);
  int next_in = 0, next_out = 0;
  std::vector<int> out;
  for (int round = 0; round < 48; ++round) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(push_one(queue, next_in++, false));
    out.clear();
    ASSERT_EQ(queue.pop_batch(out, 3, false), 3u);
    for (const int v : out) ASSERT_EQ(v, next_out++);
  }
  EXPECT_EQ(queue.size(), 96u);
  // Full exactly at the capacity, whatever the ring's shape.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(push_one(queue, next_in++, false));
  EXPECT_FALSE(push_one(queue, -1, false));
  out.clear();
  EXPECT_EQ(queue.pop_batch(out, 1000, false), 100u);
  for (const int v : out) EXPECT_EQ(v, next_out++);
  EXPECT_EQ(next_out, next_in);
  // The drained ring keeps its slots and its order.
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(push_one(queue, next_in++, false));
  out.clear();
  EXPECT_EQ(queue.pop_batch(out, 1000, false), 7u);
  for (const int v : out) EXPECT_EQ(v, next_out++);
}

TEST(BoundedQueue, CapacityOneQueueHoldsOneItemAtATime) {
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1}}) {
    service::BoundedQueue<std::string> queue(capacity);  // 0 rounds up to 1
    for (int i = 0; i < 5; ++i) {
      std::vector<std::string> items{std::to_string(i), "spill"};
      EXPECT_EQ(queue.push(items, false), 1u);
      EXPECT_EQ(items[1], "spill");
      std::vector<std::string> out;
      EXPECT_EQ(queue.pop_batch(out, 8, false), 1u);
      EXPECT_EQ(out, (std::vector<std::string>{std::to_string(i)}));
    }
    EXPECT_EQ(queue.size(), 0u);
  }
}

TEST(BoundedQueue, CloseDrainsWrappedRingInOrder) {
  service::BoundedQueue<int> queue(8);
  std::vector<int> out;
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(push_one(queue, i, false));
  EXPECT_EQ(queue.pop_batch(out, 4, false), 4u);
  for (int i = 6; i < 12; ++i) EXPECT_TRUE(push_one(queue, i, false));
  queue.close();
  EXPECT_FALSE(push_one(queue, 99, false));
  out.clear();
  while (queue.pop_batch(out, 3, true) > 0) {
  }
  EXPECT_EQ(out, (std::vector<int>{4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(ServiceShardedRouting, HashSpreadsUniformTrafficAcrossShards) {
  // Hash routing over uniform operands must land within a loose band of
  // the even split on every shard — a collapsed or starved shard means
  // the mixer is broken, not that the test got unlucky (8000 draws at
  // p=1/4 put 6 sigma well inside the band).
  auto config = pump_config(64, 8);
  config.shards = 4;
  AdderService service(config);
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                  0x40a5);
  std::array<int, 4> counts{};
  constexpr int kDraws = 8000;
  for (int i = 0; i < kDraws; ++i) {
    const auto [a, b] = stream.next();
    counts[service.route_of(a, b)]++;
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(counts[static_cast<std::size_t>(s)], kDraws * 15 / 100)
        << "shard " << s << " starved";
    EXPECT_LT(counts[static_cast<std::size_t>(s)], kDraws * 35 / 100)
        << "shard " << s << " overloaded";
  }
}

TEST(ServiceShardedRouting, RouteIsDeterministicPerOperandPair) {
  // Block-policy network retries re-submit the same operands; hash
  // routing must send the retry to the same shard (and the same
  // operands must route identically across service instances with the
  // same shard count).
  auto config = pump_config(64, 8);
  config.shards = 4;
  AdderService first(config);
  AdderService second(config);
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64, 77);
  for (int i = 0; i < 256; ++i) {
    const auto [a, b] = stream.next();
    const auto shard = first.route_of(a, b);
    EXPECT_EQ(shard, first.route_of(a, b));
    EXPECT_EQ(shard, second.route_of(a, b));
  }
}

TEST(ServiceShardedRouting, RoundRobinKeepsEachCallWholeAndRotates) {
  // RoundRobin takes one ticket per call: a submit_many chunk lands
  // whole on one shard, the next call on the other, and single submits
  // alternate.  Pump mode, so each queue holds what was routed to it
  // until the flush.
  auto config = pump_config(64, 8);
  config.shards = 2;
  config.route = service::RoutePolicy::RoundRobin;
  config.overflow = OverflowPolicy::Reject;
  AdderService service(config);
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                  0x7070);
  std::vector<BitVec> sums;
  std::vector<std::future<Completion>> futures;
  const auto submit_chunk = [&](int n) {
    std::vector<std::pair<BitVec, BitVec>> ops;
    for (int i = 0; i < n; ++i) {
      auto [a, b] = stream.next();
      sums.push_back(a + b);
      ops.emplace_back(std::move(a), std::move(b));
    }
    for (auto& future : service.submit_many(std::move(ops))) {
      ASSERT_TRUE(future.has_value());
      futures.push_back(std::move(*future));
    }
  };
  const auto submit_one = [&] {
    auto [a, b] = stream.next();
    sums.push_back(a + b);
    auto future = service.submit(std::move(a), std::move(b));
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
  };
  // Queue depth and labeled submit count of one shard.
  const auto expect_shard = [&service](int shard, std::size_t n) {
    EXPECT_EQ(service.shard_queue_depth(shard), n) << "shard " << shard;
    EXPECT_EQ(counter_value(service.registry().snapshot(),
                            "service.submitted{shard=" +
                                std::to_string(shard) + "}"),
              static_cast<long long>(n))
        << "shard " << shard;
  };

  submit_chunk(5);
  const int first = service.shard_queue_depth(0) == 5 ? 0 : 1;
  const int other = 1 - first;
  expect_shard(first, 5);
  expect_shard(other, 0);
  submit_chunk(3);
  expect_shard(first, 5);
  expect_shard(other, 3);
  submit_one();
  expect_shard(first, 6);
  expect_shard(other, 3);
  submit_one();
  expect_shard(first, 6);
  expect_shard(other, 4);

  service.flush();
  ASSERT_EQ(futures.size(), sums.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().sum, sums[i]) << "request " << i;
  }
  EXPECT_EQ(service.shard_queue_depth(0), 0u);
  EXPECT_EQ(service.shard_queue_depth(1), 0u);
}

TEST(ServiceSharded, PerShardCompletionOrderIsFifoNoLossNoDup) {
  // 4 shards x 1 dispatcher each: each shard's completions must be
  // exactly its submissions in submission order — FIFO, no loss, no
  // duplicates.  Window 64 never flags at width 64; window 4 flags most
  // requests, so FIFO must also hold across the recovery path.
  for (const int window : {64, 4}) {
    SCOPED_TRACE("window " + std::to_string(window));
    ServiceConfig config;
    config.pipeline.width = 64;
    config.pipeline.window = window;
    config.workers = 4;
    config.shards = 4;
    config.queue_capacity = 4096;
    config.record_wall_time = false;
    telemetry::Registry registry;
    AdderService service(config, &registry);
    std::mutex mutex;
    std::array<std::vector<int>, 4> completed;
    std::array<std::vector<int>, 4> expected;
    workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                    0xf1f0);
    constexpr int kRequests = 4000;
    for (int i = 0; i < kRequests; ++i) {
      auto [a, b] = stream.next();
      const auto shard = service.route_of(a, b);
      expected[shard].push_back(i);
      const bool ok = service.try_submit_callback(
          std::move(a), std::move(b),
          [&mutex, &completed, shard, i](Completion) {
            std::lock_guard<std::mutex> lock(mutex);
            completed[shard].push_back(i);
          });
      ASSERT_TRUE(ok) << "backpressure below capacity at " << i;
    }
    service.flush();
    std::lock_guard<std::mutex> lock(mutex);
    std::size_t total = 0;
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(completed[static_cast<std::size_t>(s)],
                expected[static_cast<std::size_t>(s)])
          << "shard " << s << " broke per-shard FIFO";
      total += completed[static_cast<std::size_t>(s)].size();
    }
    EXPECT_EQ(total, static_cast<std::size_t>(kRequests));
    if (window == 4) {
      EXPECT_GT(counter_value(registry.snapshot(), "service.recovered"),
                kRequests / 2);
    }
  }
}

TEST(ServiceSharded, MultiProducerBlockCompletesAllAndLabelsAddUp) {
  // Sharded version of the Block-policy soak: small per-shard queues
  // force blocking, and afterwards the per-shard labeled counters must
  // sum exactly to the global ones (every request accounted to exactly
  // one shard).
  telemetry::Registry registry;
  {
    ServiceConfig config;
    config.pipeline.width = 64;
    config.pipeline.window = 6;
    config.workers = 4;
    config.shards = 4;
    config.queue_capacity = 64;
    config.overflow = OverflowPolicy::Block;
    AdderService service(config, &registry);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 2000;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&service, p] {
        workloads::OperandStream stream(workloads::Distribution::Uniform,
                                        64, 300 + p);
        for (int i = 0; i < kPerProducer; ++i) {
          auto [a, b] = stream.next();
          ASSERT_TRUE(
              service.submit(std::move(a), std::move(b)).has_value());
        }
      });
    }
    for (auto& producer : producers) producer.join();
    service.flush();
    const auto snap = registry.snapshot();
    constexpr long long kTotal = kProducers * kPerProducer;
    EXPECT_EQ(counter_value(snap, "service.completed"), kTotal);
    EXPECT_EQ(counter_value(snap, "service.rejected"), 0);
    long long submitted = 0, completed = 0;
    for (int s = 0; s < 4; ++s) {
      const std::string suffix = "{shard=" + std::to_string(s) + "}";
      submitted += counter_value(snap, "service.submitted" + suffix);
      completed += counter_value(snap, "service.completed" + suffix);
      EXPECT_GT(counter_value(snap, "service.submitted" + suffix), 0)
          << "shard " << s << " never saw traffic";
    }
    EXPECT_EQ(submitted, kTotal);
    EXPECT_EQ(completed, kTotal);
  }
}

TEST(ServiceSharded, RejectPolicyCountsAgainstTheRoutedShard) {
  // Pump mode, 2 shards, 8-slot per-shard queues, Reject policy: keep
  // submitting operands that hash-route to one shard until it overflows
  // — rejections must land on that shard's labeled counter only, and
  // the other shard must stay writable throughout.
  auto config = pump_config(64, 8, /*capacity=*/8);
  config.shards = 2;
  config.overflow = OverflowPolicy::Reject;
  AdderService service(config);
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                  0x0dd);
  int accepted_to_0 = 0, rejected_from_0 = 0;
  std::pair<BitVec, BitVec> shard1_ops;
  bool have_shard1 = false;
  while (rejected_from_0 < 3) {
    auto [a, b] = stream.next();
    if (service.route_of(a, b) != 0) {
      if (!have_shard1) {
        shard1_ops = {a, b};
        have_shard1 = true;
      }
      continue;
    }
    if (service.submit(std::move(a), std::move(b)).has_value()) {
      ++accepted_to_0;
      ASSERT_LE(accepted_to_0, 8) << "accepted beyond per-shard capacity";
    } else {
      ++rejected_from_0;
    }
  }
  EXPECT_EQ(accepted_to_0, 8);
  // The sibling shard's queue is empty — it must still accept.
  ASSERT_TRUE(have_shard1);
  EXPECT_TRUE(service
                  .submit(std::move(shard1_ops.first),
                          std::move(shard1_ops.second))
                  .has_value());
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.rejected"), 3);
  EXPECT_EQ(counter_value(snap, "service.rejected{shard=0}"), 3);
  EXPECT_EQ(counter_value(snap, "service.rejected{shard=1}"), 0);
  service.flush();
}

TEST(ServiceSharded, SubmitManySplitsAHashChunkByShard) {
  // A Hash-routed submit_many chunk goes in as one share per shard:
  // each shard admits the leading requests of its share up to capacity,
  // the rest come back as nullopt at their own index, and the counters
  // land on the routed shard.
  auto config = pump_config(64, 8, /*capacity=*/8);
  config.shards = 2;
  config.overflow = OverflowPolicy::Reject;
  AdderService service(config);
  workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                  0x5a1);
  std::vector<std::pair<BitVec, BitVec>> ops;
  std::vector<std::size_t> shard_of;
  for (int i = 0; i < 40; ++i) {
    auto ab = stream.next();
    shard_of.push_back(service.route_of(ab.first, ab.second));
    ops.push_back(std::move(ab));
  }
  const auto sent = ops;
  auto futures = service.submit_many(std::move(ops));
  ASSERT_EQ(futures.size(), sent.size());
  std::array<long long, 2> routed{}, accepted{};
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const bool leading = routed[shard_of[i]]++ < 8;
    EXPECT_EQ(futures[i].has_value(), leading) << "request " << i;
    if (leading) ++accepted[shard_of[i]];
  }
  ASSERT_GT(routed[0], 8) << "seed no longer overflows shard 0";
  ASSERT_GT(routed[1], 8) << "seed no longer overflows shard 1";
  service.flush();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (futures[i]) {
      EXPECT_EQ(futures[i]->get().sum, sent[i].first + sent[i].second);
    }
  }
  const auto snap = service.registry().snapshot();
  EXPECT_EQ(counter_value(snap, "service.submitted"), 16);
  EXPECT_EQ(counter_value(snap, "service.rejected"), 40 - 16);
  for (int s = 0; s < 2; ++s) {
    const std::string suffix = "{shard=" + std::to_string(s) + "}";
    EXPECT_EQ(counter_value(snap, "service.submitted" + suffix),
              accepted[static_cast<std::size_t>(s)]);
    EXPECT_EQ(counter_value(snap, "service.rejected" + suffix),
              routed[static_cast<std::size_t>(s)] -
                  accepted[static_cast<std::size_t>(s)]);
  }
}

TEST(ServiceSharded, TrySubmitCallbackMissHandsOperandsBack) {
  // The event-loop contract of try_submit_callback on a full shard:
  // never block, return false, give both operands back untouched and
  // drop the callback unrun.  Under Block the miss is a stall (the net
  // server parks the frame), so service.rejected must not move; under
  // Reject it counts on the global counter and the routed shard only.
  for (const OverflowPolicy policy :
       {OverflowPolicy::Block, OverflowPolicy::Reject}) {
    auto config = pump_config(64, 8, /*capacity=*/8);
    config.shards = 2;
    config.overflow = policy;
    AdderService service(config);
    workloads::OperandStream stream(workloads::Distribution::Uniform, 64,
                                    0x7e5);
    auto next_for_shard = [&](std::size_t shard) {
      for (;;) {
        auto ops = stream.next();
        if (service.route_of(ops.first, ops.second) == shard) return ops;
      }
    };
    int delivered = 0;
    const auto count = [&delivered](const Completion&) { ++delivered; };
    for (int i = 0; i < 8; ++i) {
      auto [a, b] = next_for_shard(0);
      ASSERT_TRUE(service.try_submit_callback(std::move(a), std::move(b),
                                              count));
    }
    const auto [a0, b0] = next_for_shard(0);
    BitVec a = a0;
    BitVec b = b0;
    bool miss_ran = false;
    EXPECT_FALSE(service.try_submit_callback(
        std::move(a), std::move(b),
        [&miss_ran](const Completion&) { miss_ran = true; }));
    EXPECT_EQ(a, a0);
    EXPECT_EQ(b, b0);
    const long long expect_rejected =
        policy == OverflowPolicy::Reject ? 1 : 0;
    const auto snap = service.registry().snapshot();
    EXPECT_EQ(counter_value(snap, "service.rejected"), expect_rejected);
    EXPECT_EQ(counter_value(snap, "service.rejected{shard=0}"),
              expect_rejected);
    EXPECT_EQ(counter_value(snap, "service.rejected{shard=1}"), 0);
    EXPECT_EQ(counter_value(snap, "service.submitted"), 8);
    EXPECT_EQ(counter_value(snap, "service.submitted{shard=0}"), 8);
    // The sibling shard is unaffected by its neighbor being full.
    auto [a1, b1] = next_for_shard(1);
    EXPECT_TRUE(service.try_submit_callback(std::move(a1), std::move(b1),
                                            count));
    service.flush();
    EXPECT_FALSE(miss_ran);
    EXPECT_EQ(delivered, 9);
  }
}

TEST(ServiceSharded, SingleShardSnapshotHasNoShardLabels) {
  // shards == 1 must be byte-identical to the pre-sharding service:
  // in particular no `{shard=...}` labeled series may appear (the
  // fixed-seed determinism test above depends on this).
  AdderService service(pump_config(64, 8));
  const BitVec a = BitVec::from_u64(64, 7);
  const BitVec b = BitVec::from_u64(64, 9);
  ASSERT_TRUE(service.submit(a, b).has_value());
  service.flush();
  const auto snap = service.registry().snapshot();
  for (const auto& [key, value] : snap.counters) {
    EXPECT_EQ(key.find("{shard="), std::string::npos) << key;
  }
  for (const auto& [key, value] : snap.gauges) {
    EXPECT_EQ(key.find("{shard="), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace vlsa
