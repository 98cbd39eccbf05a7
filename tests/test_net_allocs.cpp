// Allocation guard for the socket path: once a connection has reached
// its working depth, the server's threads (acceptor, event loop,
// dispatchers) allocate nothing per request.  Every request buffer is
// recycled by the thread that allocated it — the loop decodes into a
// connection's request slots, the completion hands both operand buffers
// back, the shard queues are rings, and the completion callback fits in
// std::function's inline storage — so a regression that reintroduces a
// per-request allocation anywhere on that path fails here.
//
// This executable replaces the global operator new with a counter.  The
// test's own thread is the client and is not counted; every other
// thread belongs to the server.  It carries the `net` label, so the
// sanitizer presets run it too.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_server_allocs{0};
thread_local bool t_client = false;

void* counted_alloc(std::size_t size) {
  if (!t_client) g_server_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  if (!t_client) g_server_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  auto alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  for (;;) {
    void* p = nullptr;
    if (::posix_memalign(&p, alignment, size) == 0) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_alloc_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace vlsa {
namespace {

TEST(NetAllocationGuard, ServerThreadsAllocateNothingPerRequest) {
  t_client = true;
  constexpr int kWidth = 1024;
  constexpr std::size_t kOutstanding = 512;
  constexpr int kWarmUp = 20000;
  constexpr int kRequests = 100000;

  // The shape the tcp_uniform benchmark runs: two shards with a
  // dispatcher each, one event loop, one corked client keeping up to
  // 512 requests in flight.
  service::ServiceConfig config;
  config.pipeline.width = kWidth;
  config.pipeline.window = 23;
  config.shards = 2;
  config.workers = 2;
  service::AdderService service(config);
  net::ServerConfig server_config;
  server_config.event_threads = 1;
  net::Server server(server_config, service);
  net::Client client(server_config.host, server.port());
  client.cork(true);

  util::Rng rng(0xa110c);
  std::vector<util::BitVec> as, bs, sums;
  for (int i = 0; i < 64; ++i) {
    as.push_back(rng.next_bits(kWidth));
    bs.push_back(rng.next_bits(kWidth));
    sums.push_back(as.back() + bs.back());
  }
  const auto run = [&](int requests) {
    int sent = 0, received = 0;
    std::vector<std::size_t> pick_of_id(1, 0);
    while (received < requests) {
      while (sent < requests && client.outstanding() < kOutstanding) {
        const auto pick = static_cast<std::size_t>(sent) % as.size();
        const std::uint64_t id = client.send(as[pick], bs[pick]);
        if (pick_of_id.size() <= id) pick_of_id.resize(id + 1);
        pick_of_id[id] = pick;
        ++sent;
      }
      const net::ResponseFrame response = client.recv();
      ASSERT_EQ(response.status, net::Status::Ok);
      ASSERT_EQ(response.sum, sums[pick_of_id.at(response.id)]);
      ++received;
    }
  };

  // Warm-up: the shard rings, the connection's request slots and every
  // buffer on the path grow to their working depth.  A loaded host can
  // still push a buffer past that depth later (a descheduled loop lets
  // more responses pile up), which costs a few growth steps in all, not
  // an allocation per request; the bound leaves room for them.
  run(kWarmUp);
  const std::uint64_t before =
      g_server_allocs.load(std::memory_order_relaxed);
  run(kRequests);
  const std::uint64_t allocs =
      g_server_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_LE(allocs, static_cast<std::uint64_t>(kRequests / 1000))
      << allocs << " server-thread allocations over " << kRequests
      << " requests";
}

}  // namespace
}  // namespace vlsa
