// Tests for the network front-end: wire-protocol round-trips, the
// incremental decoder against partial reads and hostile bytes (run
// these under the `asan` preset — the decoder must reject garbage
// without UB), and end-to-end loopback runs against a live epoll
// server under both overflow policies, including recovery-triggering
// traffic.  The aggregate `NetSuite` ctest entry carries the `net`
// label; the TSan job runs it too (client threads vs event loops vs
// service workers).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aca.hpp"
#include "net/admin.hpp"
#include "net/client.hpp"
#include "net/notifier.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "telemetry/registry.hpp"
#include "trace/trace.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "workloads/operand_stream.hpp"

namespace vlsa {
namespace {

using net::DecoderLimits;
using net::FrameDecoder;
using net::FrameType;
using net::RequestFrame;
using net::ResponseFrame;
using net::Status;
using service::AdderService;
using service::OverflowPolicy;
using service::ServiceConfig;
using util::BitVec;

BitVec random_vec(util::Rng& rng, int width) {
  BitVec v(width);
  for (auto& limb : v.limbs()) limb = rng.next_u64();
  if (!v.limbs().empty() && width % 64 != 0) {
    v.limbs().back() &= (std::uint64_t{1} << (width % 64)) - 1;
  }
  return v;
}

// ---------------------------------------------------------------------
// Protocol: encode/decode round-trips

TEST(NetProtocol, RequestRoundTripAcrossWidths) {
  util::Rng rng(0x900d);
  for (const int width : {1, 7, 8, 63, 64, 65, 256, 1024}) {
    RequestFrame in;
    in.id = rng.next_u64();
    in.width = width;
    in.window = width >= 8 ? 8 : 0;
    in.a = random_vec(rng, width);
    in.b = random_vec(rng, width);

    std::vector<std::uint8_t> bytes;
    net::encode_request(in, bytes);

    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    RequestFrame out;
    ResponseFrame unused;
    ASSERT_EQ(decoder.next(out, unused), FrameDecoder::Result::Frame)
        << "width " << width;
    EXPECT_EQ(decoder.type(), FrameType::Request);
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.width, width);
    EXPECT_EQ(out.window, in.window);
    EXPECT_EQ(out.a, in.a);
    EXPECT_EQ(out.b, in.b);
    EXPECT_EQ(decoder.buffered(), 0u);
    EXPECT_EQ(decoder.next(out, unused), FrameDecoder::Result::NeedMore);
  }
}

TEST(NetProtocol, DecodeIntoAReusedFrameEqualsAFreshDecode) {
  // The server decodes each request into a recycled frame whose operand
  // buffers still hold an earlier request.  Whatever they hold (here
  // every limb bit set, even above the width) and whatever width they
  // have, the result must equal a decode into a fresh frame.
  util::Rng rng(0x5107);
  struct Case {
    int before, after;
  };
  for (const Case c : {Case{100, 100}, Case{1024, 64}, Case{4096, 1}}) {
    RequestFrame in;
    in.id = rng.next_u64();
    in.width = c.after;
    in.a = random_vec(rng, c.after);
    in.b = BitVec(c.after);  // zero, so any stale bit would show
    std::vector<std::uint8_t> bytes;
    net::encode_request(in, bytes);
    ResponseFrame unused;

    FrameDecoder fresh_decoder;
    fresh_decoder.feed(bytes.data(), bytes.size());
    RequestFrame fresh;
    ASSERT_EQ(fresh_decoder.next(fresh, unused), FrameDecoder::Result::Frame);

    RequestFrame reused;
    reused.id = ~std::uint64_t{0};
    reused.flags = net::kFlagTraceSampled;
    reused.width = c.before;
    reused.window = 77;
    for (BitVec* v : {&reused.a, &reused.b}) {
      *v = BitVec(c.before);
      std::fill(v->limbs().begin(), v->limbs().end(), ~std::uint64_t{0});
    }
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ASSERT_EQ(decoder.next(reused, unused), FrameDecoder::Result::Frame)
        << c.before << " -> " << c.after << ": " << decoder.error();
    EXPECT_EQ(reused.id, fresh.id);
    EXPECT_EQ(reused.op, fresh.op);
    EXPECT_EQ(reused.flags, fresh.flags);
    EXPECT_EQ(reused.width, fresh.width);
    EXPECT_EQ(reused.window, fresh.window);
    EXPECT_EQ(reused.a, fresh.a) << c.before << " -> " << c.after;
    EXPECT_EQ(reused.b, fresh.b) << c.before << " -> " << c.after;
    EXPECT_EQ(reused.a, in.a);
    EXPECT_EQ(reused.b, in.b);

    // An operand moved out of the frame keeps its width but no limbs;
    // the next decode must allocate afresh, not write into nothing.
    const BitVec taken = std::move(reused.a);
    decoder.feed(bytes.data(), bytes.size());
    ASSERT_EQ(decoder.next(reused, unused), FrameDecoder::Result::Frame);
    EXPECT_EQ(reused.a, in.a);
    EXPECT_EQ(taken, in.a);
  }
}

TEST(NetProtocol, ResponseRoundTripAllStatuses) {
  util::Rng rng(0xd00d);
  const int width = 128;
  for (const Status status :
       {Status::Ok, Status::Rejected, Status::Error}) {
    ResponseFrame in;
    in.id = rng.next_u64();
    in.status = status;
    in.width = width;
    in.window = 12;
    in.latency_ticks = 42;
    if (status == Status::Ok) {
      in.flags = net::kFlagRecovered;
      in.sum = random_vec(rng, width);
    }

    std::vector<std::uint8_t> bytes;
    net::encode_response(in, bytes);

    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    RequestFrame unused;
    ResponseFrame out;
    ASSERT_EQ(decoder.next(unused, out), FrameDecoder::Result::Frame);
    EXPECT_EQ(decoder.type(), FrameType::Response);
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.status, status);
    EXPECT_EQ(out.flags, in.flags);
    EXPECT_EQ(out.latency_ticks, 42u);
    if (status == Status::Ok) {
      EXPECT_EQ(out.sum, in.sum);
    } else {
      EXPECT_EQ(out.sum.width(), 0);
    }
  }
}

TEST(NetProtocol, PipelinedFramesDecodeInOrder) {
  util::Rng rng(0xcafe);
  const int width = 96;
  std::vector<RequestFrame> frames;
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 17; ++i) {
    RequestFrame f;
    f.id = static_cast<std::uint64_t>(i) + 1;
    f.width = width;
    f.a = random_vec(rng, width);
    f.b = random_vec(rng, width);
    net::encode_request(f, bytes);
    frames.push_back(std::move(f));
  }
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  RequestFrame out;
  ResponseFrame unused;
  for (const RequestFrame& expected : frames) {
    ASSERT_EQ(decoder.next(out, unused), FrameDecoder::Result::Frame);
    EXPECT_EQ(out.id, expected.id);
    EXPECT_EQ(out.a, expected.a);
    EXPECT_EQ(out.b, expected.b);
  }
  EXPECT_EQ(decoder.next(out, unused), FrameDecoder::Result::NeedMore);
}

TEST(NetProtocol, OneByteAtATime) {
  util::Rng rng(0x1b1b);
  const int width = 200;
  RequestFrame in;
  in.id = 7;
  in.width = width;
  in.a = random_vec(rng, width);
  in.b = random_vec(rng, width);
  std::vector<std::uint8_t> bytes;
  net::encode_request(in, bytes);

  FrameDecoder decoder;
  RequestFrame out;
  ResponseFrame unused;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(&bytes[i], 1);
    ASSERT_EQ(decoder.next(out, unused), FrameDecoder::Result::NeedMore)
        << "frame completed early at byte " << i;
  }
  decoder.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(decoder.next(out, unused), FrameDecoder::Result::Frame);
  EXPECT_EQ(out.a, in.a);
  EXPECT_EQ(out.b, in.b);
}

TEST(NetProtocol, TruncationIsNeedMoreNotError) {
  RequestFrame in;
  in.id = 1;
  in.width = 64;
  in.a = BitVec::from_u64(64, 5);
  in.b = BitVec::from_u64(64, 6);
  std::vector<std::uint8_t> bytes;
  net::encode_request(in, bytes);
  // Every strict prefix must park the decoder, never poison it.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                net::kHeaderBytes - 1, net::kHeaderBytes,
                                bytes.size() - 1}) {
    FrameDecoder decoder;
    decoder.feed(bytes.data(), cut);
    RequestFrame out;
    ResponseFrame unused;
    EXPECT_EQ(decoder.next(out, unused), FrameDecoder::Result::NeedMore);
    EXPECT_FALSE(decoder.poisoned());
  }
}

FrameDecoder::Result decode_raw(std::vector<std::uint8_t> bytes,
                                std::string* error = nullptr) {
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  RequestFrame request;
  ResponseFrame response;
  const auto result = decoder.next(request, response);
  if (error != nullptr) *error = decoder.error();
  return result;
}

std::vector<std::uint8_t> valid_request_bytes() {
  RequestFrame in;
  in.id = 9;
  in.width = 64;
  in.a = BitVec::from_u64(64, 1);
  in.b = BitVec::from_u64(64, 2);
  std::vector<std::uint8_t> bytes;
  net::encode_request(in, bytes);
  return bytes;
}

TEST(NetProtocol, HostileHeadersAreFatal) {
  // Each mutation of one header byte must poison the decoder.
  struct Case {
    std::size_t offset;
    std::uint8_t value;
    const char* what;
  };
  const Case cases[] = {
      {0, 0x00, "bad magic"},        {4, 0x7f, "unknown version"},
      {5, 0x00, "bad frame type"},   {5, 0x03, "unknown frame type"},
      {6, 0x41, "unknown op"},       {7, 0x01, "response-only flag bit"},
      {24, 0x01, "request with latency"},
  };
  for (const Case& c : cases) {
    auto bytes = valid_request_bytes();
    bytes[c.offset] = c.value;
    EXPECT_EQ(decode_raw(std::move(bytes)), FrameDecoder::Result::Error)
        << c.what;
  }
}

TEST(NetProtocol, TraceSampledFlagRoundTripsBothDirections) {
  // Bit 2 is the one flag valid on requests: the client's sampling
  // decision riding the wire.  It must round-trip on requests, echo on
  // responses, and remain the ONLY acceptable request flag bit.
  RequestFrame in;
  in.id = 77;
  in.width = 64;
  in.window = 8;
  in.a = BitVec::from_u64(64, 1);
  in.b = BitVec::from_u64(64, 2);
  in.flags = net::kFlagTraceSampled;
  std::vector<std::uint8_t> bytes;
  net::encode_request(in, bytes);
  EXPECT_EQ(bytes[7], net::kFlagTraceSampled);

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  RequestFrame out;
  ResponseFrame unused;
  ASSERT_EQ(decoder.next(out, unused), FrameDecoder::Result::Frame);
  EXPECT_EQ(out.flags, net::kFlagTraceSampled);
  EXPECT_EQ(out.id, 77u);

  // Any higher bit stays fatal.
  auto hostile = valid_request_bytes();
  hostile[7] = 0x08;
  EXPECT_EQ(decode_raw(std::move(hostile)), FrameDecoder::Result::Error);

  // Response side: the echo coexists with the recovery flag.
  ResponseFrame response_in;
  response_in.id = 77;
  response_in.status = Status::Ok;
  response_in.width = 64;
  response_in.window = 8;
  response_in.flags = net::kFlagRecovered | net::kFlagTraceSampled;
  response_in.sum = BitVec::from_u64(64, 3);
  std::vector<std::uint8_t> response_bytes;
  net::encode_response(response_in, response_bytes);
  FrameDecoder response_decoder;
  response_decoder.feed(response_bytes.data(), response_bytes.size());
  RequestFrame runused;
  ResponseFrame response_out;
  ASSERT_EQ(response_decoder.next(runused, response_out),
            FrameDecoder::Result::Frame);
  EXPECT_EQ(response_out.flags,
            net::kFlagRecovered | net::kFlagTraceSampled);
}

TEST(NetProtocol, OversizedAndInconsistentLengthsAreFatal) {
  {
    // Declared width above the decoder limit.
    auto bytes = valid_request_bytes();
    bytes[16] = 0xff;
    bytes[17] = 0xff;  // width 65535 > max_width
    EXPECT_EQ(decode_raw(std::move(bytes)), FrameDecoder::Result::Error);
  }
  {
    // Zero width.
    auto bytes = valid_request_bytes();
    bytes[16] = 0;
    bytes[17] = 0;
    EXPECT_EQ(decode_raw(std::move(bytes)), FrameDecoder::Result::Error);
  }
  {
    // Payload length that disagrees with the declared width.
    auto bytes = valid_request_bytes();
    bytes[20] = 0xff;  // payload 255 != 16
    EXPECT_EQ(decode_raw(std::move(bytes)), FrameDecoder::Result::Error);
  }
  {
    // Hostile operand padding: width 60 declared, but bits 60..63 set.
    RequestFrame in;
    in.id = 2;
    in.width = 64;
    in.a = BitVec::ones(64);
    in.b = BitVec::ones(64);
    std::vector<std::uint8_t> bytes;
    net::encode_request(in, bytes);
    bytes[16] = 60;  // shrink the declared width; payload stays 16 bytes
    bytes[20] = 16;
    EXPECT_EQ(decode_raw(std::move(bytes)), FrameDecoder::Result::Error);
  }
}

TEST(NetProtocol, PoisonIsSticky) {
  auto bytes = valid_request_bytes();
  bytes[0] = 0;  // bad magic
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  RequestFrame request;
  ResponseFrame response;
  EXPECT_EQ(decoder.next(request, response), FrameDecoder::Result::Error);
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_FALSE(decoder.error().empty());
  // Feeding perfectly valid bytes afterwards must not resurrect it —
  // framing is gone for good.
  const auto good = valid_request_bytes();
  decoder.feed(good.data(), good.size());
  EXPECT_EQ(decoder.next(request, response), FrameDecoder::Result::Error);
}

TEST(NetProtocol, RandomGarbageNeverCrashes) {
  // Deterministic fuzz: random byte blobs in random chunk sizes.  The
  // decoder may report anything except UB (ASan is the real assertion
  // here); once poisoned it must stay poisoned.
  util::Rng rng(0xfa22);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder decoder;
    RequestFrame request;
    ResponseFrame response;
    bool poisoned = false;
    for (int chunk = 0; chunk < 8; ++chunk) {
      std::vector<std::uint8_t> blob(1 + rng.next_below(200));
      for (auto& byte : blob) {
        byte = static_cast<std::uint8_t>(rng.next_u64());
      }
      decoder.feed(blob.data(), blob.size());
      for (int pulls = 0; pulls < 64; ++pulls) {
        const auto result = decoder.next(request, response);
        if (result == FrameDecoder::Result::Error) {
          poisoned = true;
          break;
        }
        if (result == FrameDecoder::Result::NeedMore) break;
      }
      if (poisoned) break;
    }
    if (poisoned) {
      EXPECT_EQ(decoder.next(request, response),
                FrameDecoder::Result::Error);
    }
  }
}

// ---------------------------------------------------------------------
// End-to-end over loopback

ServiceConfig service_config(int width, int window, OverflowPolicy policy,
                             std::size_t capacity = 1024) {
  ServiceConfig config;
  config.pipeline.width = width;
  config.pipeline.window = window;
  config.workers = 2;
  config.queue_capacity = capacity;
  config.overflow = policy;
  return config;
}

TEST(NetLoopback, BlockingCallsMatchScalarModel) {
  const int width = 64, window = 8;
  AdderService service(service_config(width, window, OverflowPolicy::Block));
  net::Server server(net::ServerConfig{}, service);
  ASSERT_GT(server.port(), 0);

  net::Client client("127.0.0.1", server.port());
  util::Rng rng(0xabcd);
  for (int i = 0; i < 200; ++i) {
    const BitVec a = random_vec(rng, width);
    const BitVec b = random_vec(rng, width);
    const ResponseFrame response = client.call(a, b);
    ASSERT_EQ(response.status, Status::Ok);
    EXPECT_EQ(response.sum, a + b);
    EXPECT_EQ(response.width, width);
    EXPECT_EQ(response.window, window);
    EXPECT_GE(response.latency_ticks, 1u);
    // The wire flag must agree with the scalar ACA model.
    EXPECT_EQ((response.flags & net::kFlagRecovered) != 0,
              core::aca_flag(a, b, window));
  }
}

TEST(NetLoopback, PipelinedUnderBlockPolicyNothingDropped) {
  // Tiny queue + saturating pipelined client: Block policy must stall
  // the socket (TCP backpressure) rather than drop or reject anything.
  const int width = 64, window = 8;
  AdderService service(
      service_config(width, window, OverflowPolicy::Block, 8));
  net::Server server(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server.port());

  util::Rng rng(0x8070);
  const int n = 2000;
  std::vector<BitVec> sums;
  sums.reserve(n);
  for (int i = 0; i < n; ++i) {
    const BitVec a = random_vec(rng, width);
    const BitVec b = random_vec(rng, width);
    sums.push_back(a + b);
    client.send(a, b);
  }
  int ok = 0;
  while (client.outstanding() > 0) {
    const ResponseFrame response = client.recv();
    ASSERT_EQ(response.status, Status::Ok);
    ASSERT_GE(response.id, 1u);
    ASSERT_LE(response.id, static_cast<std::uint64_t>(n));
    EXPECT_EQ(response.sum, sums[response.id - 1]);
    ++ok;
  }
  EXPECT_EQ(ok, n);
}

TEST(NetLoopback, ShardedServiceServesPipelinedTraffic) {
  // `vlsa_tool serve --shards 4` end-to-end in miniature: the net
  // front-end needs no sharding knowledge (hash routing hides behind
  // try_submit_callback), per-shard Block backpressure stalls the
  // socket exactly like the single-queue service, and afterwards the
  // per-shard labeled counters must account for every frame exactly
  // once.
  const int width = 64, window = 8;
  ServiceConfig config =
      service_config(width, window, OverflowPolicy::Block, /*capacity=*/64);
  config.workers = 4;
  config.shards = 4;
  AdderService service(config);
  net::Server server(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server.port());

  util::Rng rng(0x54a2d);
  const int n = 2000;
  std::vector<BitVec> sums;
  sums.reserve(n);
  for (int i = 0; i < n; ++i) {
    const BitVec a = random_vec(rng, width);
    const BitVec b = random_vec(rng, width);
    sums.push_back(a + b);
    client.send(a, b);
  }
  int ok = 0;
  while (client.outstanding() > 0) {
    const ResponseFrame response = client.recv();
    ASSERT_EQ(response.status, Status::Ok);
    EXPECT_EQ(response.sum, sums[response.id - 1]);
    ++ok;
  }
  EXPECT_EQ(ok, n);

  const auto snap = service.registry().snapshot();
  auto counter = [&snap](const std::string& name) {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "no counter named " << name;
    return -1LL;
  };
  EXPECT_EQ(counter("service.completed"), n);
  long long submitted = 0, completed = 0;
  for (int s = 0; s < 4; ++s) {
    const std::string suffix = "{shard=" + std::to_string(s) + "}";
    submitted += counter("service.submitted" + suffix);
    completed += counter("service.completed" + suffix);
    EXPECT_GT(counter("service.submitted" + suffix), 0)
        << "shard " << s << " starved behind the server";
  }
  EXPECT_EQ(submitted, n);
  EXPECT_EQ(completed, n);
}

TEST(NetLoopback, RejectPolicyAnswersRejectedFrames) {
  // Tiny queue + saturating pipelined client under Reject: every
  // request gets SOME answer, and the correct ones are exact.
  const int width = 64, window = 8;
  AdderService service(
      service_config(width, window, OverflowPolicy::Reject, 4));
  net::Server server(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server.port());

  util::Rng rng(0x7e7e);
  const int n = 3000;
  std::vector<BitVec> sums;
  sums.reserve(n);
  for (int i = 0; i < n; ++i) {
    const BitVec a = random_vec(rng, width);
    const BitVec b = random_vec(rng, width);
    sums.push_back(a + b);
    client.send(a, b);
  }
  int ok = 0, rejected = 0;
  while (client.outstanding() > 0) {
    const ResponseFrame response = client.recv();
    if (response.status == Status::Rejected) {
      ++rejected;
      continue;
    }
    ASSERT_EQ(response.status, Status::Ok);
    EXPECT_EQ(response.sum, sums[response.id - 1]);
    ++ok;
  }
  EXPECT_EQ(ok + rejected, n);
  EXPECT_GT(ok, 0);
  // Backpressure must show up in the server's own accounting when any
  // rejection happened (a fast machine may drain everything in time).
  const auto snap = service.registry().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "net.frames_rejected") {
      EXPECT_EQ(value, rejected);
    }
  }
}

TEST(NetLoopback, CorkAfterUncorkedSendWritesEachFrameOnce) {
  // An uncorked send must leave nothing behind in the send buffer;
  // otherwise the next corked flush writes the old frame again and the
  // server answers that id twice.
  const int width = 64, window = 8;
  AdderService service(service_config(width, window, OverflowPolicy::Block));
  net::Server server(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server.port());

  const BitVec a = BitVec::from_u64(width, 3);
  const BitVec b = BitVec::from_u64(width, 4);
  ASSERT_EQ(client.send(a, b), 1u);
  const ResponseFrame first = client.recv();
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.sum, a + b);

  client.cork(true);
  const BitVec c = BitVec::from_u64(width, 5);
  const BitVec d = BitVec::from_u64(width, 6);
  ASSERT_EQ(client.send(c, d), 2u);
  const ResponseFrame second = client.recv();
  EXPECT_EQ(second.id, 2u);
  EXPECT_EQ(second.sum, c + d);

  // Nothing is outstanding, so the next read must see the server's
  // close rather than a second answer.
  client.finish_sending();
  EXPECT_THROW(static_cast<void>(client.recv()), net::ConnectionError);
  long long frames_in = -1;
  for (const auto& [name, value] : service.registry().snapshot().counters) {
    if (name == "net.frames_in") frames_in = value;
  }
  EXPECT_EQ(frames_in, 2);
}

TEST(NetLoopback, RecoveryTrafficCarriesTheFlag) {
  // Complementary operands (b ≈ ~a) make nearly every addition
  // propagate across the window — the adversarial traffic the ER flag
  // exists for.  The wire must carry the recovery flag and the modeled
  // latency must exceed the fast path's.
  const int width = 256, window = 8;
  AdderService service(service_config(width, window, OverflowPolicy::Block));
  net::Server server(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server.port());

  workloads::OperandStream stream(workloads::Distribution::Complementary,
                                  width, 0x5eed);
  int recovered = 0;
  for (int i = 0; i < 100; ++i) {
    const auto [a, b] = stream.next();
    const ResponseFrame response = client.call(a, b);
    ASSERT_EQ(response.status, Status::Ok);
    EXPECT_EQ(response.sum, a + b);
    const bool flagged = (response.flags & net::kFlagRecovered) != 0;
    EXPECT_EQ(flagged, core::aca_flag(a, b, window));
    if (flagged) ++recovered;
  }
  EXPECT_GT(recovered, 50);  // complementary traffic flags nearly always
}

TEST(NetLoopback, WidthMismatchIsAnErrorFrame) {
  AdderService service(service_config(64, 8, OverflowPolicy::Block));
  net::Server server(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server.port());
  const ResponseFrame response =
      client.call(BitVec::from_u64(32, 1), BitVec::from_u64(32, 2));
  EXPECT_EQ(response.status, Status::Error);
}

TEST(NetLoopback, GarbageBytesCloseTheConnection) {
  AdderService service(service_config(64, 8, OverflowPolicy::Block));
  net::Server server(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server.port());
  // A healthy exchange first, so the failure below is unambiguous.
  const ResponseFrame ok =
      client.call(BitVec::from_u64(64, 3), BitVec::from_u64(64, 4));
  ASSERT_EQ(ok.status, Status::Ok);

  // Raw garbage through a plain socket: the server must count a decode
  // error and hang up (EOF), never answer or crash.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  auto bytes = valid_request_bytes();
  bytes[0] = 0x00;  // break the magic
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  std::uint8_t buf[64];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
  }
  EXPECT_EQ(n, 0) << "expected EOF after a protocol violation";
  ::close(fd);

  // The healthy connection keeps working: poisoning is per-connection.
  const ResponseFrame still_ok =
      client.call(BitVec::from_u64(64, 5), BitVec::from_u64(64, 6));
  EXPECT_EQ(still_ok.status, Status::Ok);
  const auto snap = service.registry().snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "net.decode_errors") {
      EXPECT_EQ(value, 1);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(NetLoopback, SlowReaderIsClosedPastTheWriteCap) {
  // A peer that sends requests but never reads its responses: once
  // both kernel buffers are full, responses pile up in the server's
  // write buffer, and past ServerConfig::max_write_buffer the server
  // must hang up rather than buffer without bound.
  const int width = 1024, window = 16;
  AdderService service(service_config(width, window, OverflowPolicy::Block));
  net::ServerConfig server_config;
  server_config.max_write_buffer = 16 * 1024;
  net::Server server(server_config, service);
  const auto slow_closes = [&service] {
    long long value = 0;
    for (const auto& [name, v] : service.registry().snapshot().counters) {
      if (name == "net.slow_client_closes") value = v;
    }
    return value;
  };

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A small receive window (set before connect, so it is what the
  // handshake advertises) keeps the kernel from absorbing the backlog,
  // and the timeouts turn a server that never hangs up into a failure
  // instead of a hang.
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  const timeval timeout{5, 0};
  ASSERT_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout)), 0);
  ASSERT_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // 60k width-1024 requests answer with 9.6 MB of responses, over twice
  // the largest send buffer Linux autotunes to by default (4 MiB) plus
  // the cap; the server normally hangs up long before the bound.
  const int kMaxRequests = 60000;
  util::Rng rng(0x510e);
  const BitVec a = random_vec(rng, width);
  const BitVec b = random_vec(rng, width);
  std::vector<std::uint8_t> bytes;
  int sent = 0;
  while (sent < kMaxRequests) {
    bytes.clear();
    net::encode_request(static_cast<std::uint64_t>(sent) + 1, window, a, b,
                        bytes);
    if (::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(bytes.size())) {
      break;  // the server hung up (or stopped reading)
    }
    ++sent;
  }
  EXPECT_GT(sent, 0);
  for (int i = 0; i < 1000 && slow_closes() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(slow_closes(), 1) << "after " << sent << " requests";

  // Whatever the kernel still holds for us is readable; after it, the
  // socket must report the close, not time out.
  std::vector<std::uint8_t> sink(64 * 1024);
  ssize_t n;
  while ((n = ::read(fd, sink.data(), sink.size())) > 0) {
  }
  const int err = errno;
  EXPECT_TRUE(n == 0 || (n < 0 && err == ECONNRESET))
      << "expected EOF or reset, got n=" << n << " errno=" << err;
  ::close(fd);

  // The cap is per connection: a well-behaved client is still served.
  net::Client client("127.0.0.1", server.port());
  const BitVec c = random_vec(rng, width);
  const ResponseFrame ok = client.call(a, c);
  ASSERT_EQ(ok.status, Status::Ok);
  EXPECT_EQ(ok.sum, a + c);
}

TEST(NetLoopback, GracefulShutdownDrainsOutstanding) {
  const int width = 64, window = 8;
  AdderService service(service_config(width, window, OverflowPolicy::Block));
  auto server = std::make_unique<net::Server>(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server->port());

  util::Rng rng(0x57a9);
  std::vector<BitVec> sums;
  for (int i = 0; i < 500; ++i) {
    const BitVec a = random_vec(rng, width);
    const BitVec b = random_vec(rng, width);
    sums.push_back(a + b);
    client.send(a, b);
  }
  client.finish_sending();
  server->shutdown();  // stop accepting + drain in-flight, then close
  // Every accepted request must have been answered before the close.
  int ok = 0;
  try {
    while (client.outstanding() > 0) {
      const ResponseFrame response = client.recv();
      ASSERT_EQ(response.status, Status::Ok);
      EXPECT_EQ(response.sum, sums[response.id - 1]);
      ++ok;
    }
  } catch (const net::ConnectionError&) {
    ADD_FAILURE() << "connection closed with " << client.outstanding()
                  << " responses undelivered (answered " << ok << ")";
  }
  EXPECT_EQ(ok, 500);
  EXPECT_EQ(server->active_connections(), 0);
  server.reset();  // second shutdown via destructor: must be a no-op
}

TEST(NetLoopback, ClientHangingUpWithRequestsInFlightLeavesTheServerServing) {
  // A client sends a burst and closes at once, so its requests complete
  // after the server saw the hang-up.  Each completion returns its slot
  // to a connection that is going away (ASan and TSan run this under the
  // net label); the connection must still be torn down, and a second
  // client must still be served.
  const int width = 1024, window = 23;
  AdderService service(service_config(width, window, OverflowPolicy::Block));
  net::Server server(net::ServerConfig{}, service);
  util::Rng rng(0xc105e);
  constexpr int kBurst = 2000;
  {
    net::Client doomed("127.0.0.1", server.port());
    doomed.cork(true);
    for (int i = 0; i < kBurst; ++i) {
      doomed.send(random_vec(rng, width), random_vec(rng, width));
    }
    doomed.flush();
  }  // closed with every request unanswered
  net::Client survivor("127.0.0.1", server.port());
  for (int i = 0; i < 200; ++i) {
    const BitVec a = random_vec(rng, width);
    const BitVec b = random_vec(rng, width);
    const ResponseFrame response = survivor.call(a, b);
    ASSERT_EQ(response.status, Status::Ok);
    ASSERT_EQ(response.sum, a + b);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.active_connections() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.active_connections(), 1);
  service.flush();
  const auto snap = service.registry().snapshot();
  long long frames_in = 0;
  for (const auto& [key, value] : snap.counters) {
    if (key == "net.frames_in") frames_in = value;
  }
  // Every frame the server read was submitted; how many of the burst
  // it read before the hang-up depends on timing.
  EXPECT_GE(frames_in, 200);
  EXPECT_LE(frames_in, kBurst + 200);
}

TEST(NetLoopback, SendToAServerThatIsGoneThrowsConnectionError) {
  // The server closes the connection when it is destroyed.  The next
  // send lands in the socket buffer and draws a reset; a later one
  // fails with EPIPE.  The client must throw ConnectionError there:
  // a plain write(2) raises SIGPIPE instead, whose default action kills
  // this test process.
  const int width = 64, window = 8;
  AdderService service(service_config(width, window, OverflowPolicy::Block));
  auto server = std::make_unique<net::Server>(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server->port());
  util::Rng rng(0x919e);
  const BitVec a = random_vec(rng, width);
  const BitVec b = random_vec(rng, width);
  ASSERT_EQ(client.call(a, b).status, Status::Ok);
  server.reset();
  bool threw = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!threw && std::chrono::steady_clock::now() < deadline) {
    try {
      client.send(a, b);
    } catch (const net::ConnectionError&) {
      threw = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(threw);
}

TEST(NetNotifier, PushAfterFinalTakeFreesTheConnection) {
  // The drain order that leaked a Connection: a completion callback
  // drops `inflight`, the loop sees the connection quiet, destroys it,
  // makes its final take and exits, and only then does the callback
  // push.  A connection holds its notifier, so a push that parked it
  // would close a shared_ptr cycle.  Forced here step by step.
  struct FakeConnection {
    std::shared_ptr<net::detail::Notifier<FakeConnection>> notifier;
  };
  using Notifier = net::detail::Notifier<FakeConnection>;
  auto loop_ref = std::make_shared<Notifier>();
  auto conn = std::make_shared<FakeConnection>();
  conn->notifier = loop_ref;
  const std::weak_ptr<FakeConnection> conn_alive = conn;
  const std::weak_ptr<Notifier> notifier_alive = loop_ref;

  // While the loop runs, a push parks the connection for take().
  conn->notifier->push(conn);
  conn->notifier->push(nullptr);
  EXPECT_EQ(loop_ref->take().size(), 2u);

  // The loop exits: final close-and-take, then its reference goes.
  EXPECT_TRUE(loop_ref->close_and_take().empty());
  loop_ref.reset();

  // The late completion push, then the callback releases its copy.
  conn->notifier->push(conn);
  conn->notifier->push(nullptr);
  conn.reset();
  EXPECT_TRUE(conn_alive.expired());
  EXPECT_TRUE(notifier_alive.expired());
}

TEST(NetLoopback, ServerRefusesPumpModeService) {
  ServiceConfig config = service_config(64, 8, OverflowPolicy::Block);
  config.workers = 0;  // pump mode: nothing would ever drain the queue
  AdderService service(config);
  EXPECT_THROW(net::Server(net::ServerConfig{}, service),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Distributed tracing: the sampled flag across the wire

TEST(NetTracing, SampledRequestJoinsClientAndServerSpans) {
  // With a session active, every client send is sampled (rate 1.0),
  // the flag rides the wire, the server emits a net-serve span keyed
  // by the same request id, and the echoed flag keys the client-recv
  // span — the three spans trace::merge later joins across processes.
  trace::TraceSession session;
  const int width = 64, window = 8;
  AdderService service(service_config(width, window, OverflowPolicy::Block));
  net::Server server(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server.port());
  util::Rng rng(0x7ace);
  for (int i = 0; i < 20; ++i) {
    const BitVec a = random_vec(rng, width);
    const BitVec b = random_vec(rng, width);
    const ResponseFrame response = client.call(a, b);
    ASSERT_EQ(response.status, Status::Ok);
    EXPECT_NE(response.flags & net::kFlagTraceSampled, 0)
        << "server must echo the trace-sampled bit";
  }
  session.stop();

  const auto events = session.collect();
  std::vector<std::uint64_t> send_reqs, recv_reqs, serve_reqs;
  for (const auto& e : events) {
    if (!e.args.has_req) continue;
    if (e.name == trace::EventName::kClientSend) {
      send_reqs.push_back(e.args.req);
    } else if (e.name == trace::EventName::kClientRecv) {
      recv_reqs.push_back(e.args.req);
    } else if (e.name == trace::EventName::kNetServe) {
      serve_reqs.push_back(e.args.req);
    }
  }
  EXPECT_EQ(send_reqs.size(), 20u);
  EXPECT_EQ(recv_reqs.size(), 20u);
  EXPECT_EQ(serve_reqs.size(), 20u);
  // Every request id appears on all three spans.
  std::sort(send_reqs.begin(), send_reqs.end());
  std::sort(recv_reqs.begin(), recv_reqs.end());
  std::sort(serve_reqs.begin(), serve_reqs.end());
  EXPECT_EQ(send_reqs, recv_reqs);
  EXPECT_EQ(send_reqs, serve_reqs);
}

TEST(NetTracing, NoSessionMeansNoFlagOnTheWire) {
  // trace::enabled() gates the client's sampling decision: without a
  // session the flag must stay clear (zero per-request overhead, and
  // the server never emits distributed-trace spans).
  const int width = 64, window = 8;
  AdderService service(service_config(width, window, OverflowPolicy::Block));
  net::Server server(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server.port());
  const ResponseFrame response =
      client.call(BitVec::from_u64(64, 1), BitVec::from_u64(64, 2));
  ASSERT_EQ(response.status, Status::Ok);
  EXPECT_EQ(response.flags & net::kFlagTraceSampled, 0);
}

// ---------------------------------------------------------------------
// Admin plane: HTTP parser against partial reads and hostile input

using net::AdminConfig;
using net::AdminRequest;
using net::AdminResponse;
using net::AdminServer;
using net::HttpRequestParser;

TEST(AdminHttp, ParsesAGetByteAtATime) {
  const std::string head = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  HttpRequestParser parser;
  auto result = HttpRequestParser::Result::NeedMore;
  for (std::size_t i = 0; i < head.size(); ++i) {
    result = parser.feed(head.data() + i, 1);
    if (i + 1 < head.size()) {
      ASSERT_EQ(result, HttpRequestParser::Result::NeedMore) << "byte " << i;
    }
  }
  ASSERT_EQ(result, HttpRequestParser::Result::Request);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().path, "/metrics");
  EXPECT_EQ(parser.request().query, "");
}

TEST(AdminHttp, QuerySplitsFromPathAndBareLfIsTolerated) {
  const std::string head = "GET /tracez?start HTTP/1.0\n\n";
  HttpRequestParser parser;
  ASSERT_EQ(parser.feed(head.data(), head.size()),
            HttpRequestParser::Result::Request);
  EXPECT_EQ(parser.request().path, "/tracez");
  EXPECT_EQ(parser.request().query, "start");
}

TEST(AdminHttp, OversizedHeadIs431) {
  HttpRequestParser parser(/*max_bytes=*/64);
  const std::string filler(200, 'a');
  const std::string head = "GET /" + filler + " HTTP/1.1\r\n\r\n";
  ASSERT_EQ(parser.feed(head.data(), head.size()),
            HttpRequestParser::Result::Error);
  EXPECT_EQ(parser.error_status(), 431);
  EXPECT_TRUE(parser.poisoned());
}

TEST(AdminHttp, MalformedRequestsAre400) {
  const char* cases[] = {
      "GARBAGE\r\n\r\n",                    // no METHOD SP TARGET SP VERSION
      "GET /x\r\n\r\n",                     // missing HTTP version
      "GET metrics HTTP/1.1\r\n\r\n",       // target must start with '/'
      "GET /x SMTP/1.1\r\n\r\n",            // not HTTP
      "\x01\x02 /x HTTP/1.1\r\n\r\n",       // control bytes
  };
  for (const char* head : cases) {
    HttpRequestParser parser;
    ASSERT_EQ(parser.feed(head, std::strlen(head)),
              HttpRequestParser::Result::Error)
        << head;
    EXPECT_EQ(parser.error_status(), 400) << head;
  }
}

TEST(AdminHttp, PoisonIsSticky) {
  HttpRequestParser parser;
  const std::string bad = "GARBAGE\r\n\r\n";
  ASSERT_EQ(parser.feed(bad.data(), bad.size()),
            HttpRequestParser::Result::Error);
  const std::string good = "GET / HTTP/1.1\r\n\r\n";
  EXPECT_EQ(parser.feed(good.data(), good.size()),
            HttpRequestParser::Result::Error);
}

// ---------------------------------------------------------------------
// Admin plane: the live HTTP server

// Minimal blocking HTTP exchange: write `request` bytes, half-close,
// read to EOF (the admin server always answers Connection: close; the
// half-close lets it reject byte streams that never finish a head).
std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& target) {
  return http_exchange(port, "GET " + target + " HTTP/1.1\r\n\r\n");
}

TEST(AdminPlane, ServesRegisteredPathsAndRejectsTheRest) {
  AdminServer admin(AdminConfig{});
  ASSERT_GT(admin.port(), 0);
  admin.handle("/ping", [](const AdminRequest&) {
    AdminResponse response;
    response.body = "pong\n";
    return response;
  });
  admin.handle("/boom", [](const AdminRequest&) -> AdminResponse {
    throw std::runtime_error("handler exploded");
  });

  EXPECT_NE(http_get(admin.port(), "/ping").find("200 OK"),
            std::string::npos);
  EXPECT_NE(http_get(admin.port(), "/ping").find("pong"),
            std::string::npos);
  EXPECT_NE(http_get(admin.port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(http_exchange(admin.port(), "POST /ping HTTP/1.1\r\n\r\n")
                .find("405"),
            std::string::npos);
  EXPECT_NE(http_exchange(admin.port(), "GARBAGE\r\n\r\n").find("400"),
            std::string::npos);
  EXPECT_NE(http_exchange(admin.port(),
                          "GET /" + std::string(20000, 'a') +
                              " HTTP/1.1\r\n\r\n")
                .find("431"),
            std::string::npos);
  // A handler that throws answers 500, and the server survives it.
  EXPECT_NE(http_get(admin.port(), "/boom").find("500"),
            std::string::npos);
  EXPECT_NE(http_get(admin.port(), "/ping").find("pong"),
            std::string::npos);
  admin.shutdown();  // idempotent with the destructor's shutdown
}

TEST(AdminPlane, HostileAdminTrafficNeverTouchesTheDataPort) {
  // The whole point of the separate admin thread: garbage on the admin
  // port must not poison, stall, or close data-plane connections.
  const int width = 64, window = 8;
  AdderService service(service_config(width, window, OverflowPolicy::Block));
  net::Server server(net::ServerConfig{}, service);
  net::Client client("127.0.0.1", server.port());
  AdminServer admin(AdminConfig{});

  const ResponseFrame before =
      client.call(BitVec::from_u64(64, 1), BitVec::from_u64(64, 2));
  ASSERT_EQ(before.status, Status::Ok);

  http_exchange(admin.port(), std::string(4096, '\xff'));
  http_exchange(admin.port(), "POST / HTTP/1.1\r\n\r\n");
  http_exchange(admin.port(), "GET /" + std::string(20000, 'b') + " \r\n");

  const ResponseFrame after =
      client.call(BitVec::from_u64(64, 3), BitVec::from_u64(64, 4));
  EXPECT_EQ(after.status, Status::Ok);
  EXPECT_EQ(after.sum, BitVec::from_u64(64, 7));
  const auto snap = service.registry().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "net.decode_errors") {
      EXPECT_EQ(value, 0) << "admin garbage leaked into the data plane";
    }
  }
}

TEST(AdminPlane, ReadyzFlipsTheMomentDrainBegins) {
  // The lame-duck contract: Server::draining() turns true at the START
  // of shutdown (before connections close), and a /readyz wired to it
  // answers 503 from then on.
  const int width = 64, window = 8;
  AdderService service(service_config(width, window, OverflowPolicy::Block));
  net::Server server(net::ServerConfig{}, service);
  AdminServer admin(AdminConfig{});
  admin.handle("/readyz", [&server](const AdminRequest&) {
    AdminResponse response;
    if (server.draining()) {
      response.status = 503;
      response.body = "draining\n";
    } else {
      response.body = "ready\n";
    }
    return response;
  });

  EXPECT_FALSE(server.draining());
  EXPECT_NE(http_get(admin.port(), "/readyz").find("200"),
            std::string::npos);
  server.shutdown();
  EXPECT_TRUE(server.draining());
  EXPECT_NE(http_get(admin.port(), "/readyz").find("503"),
            std::string::npos);
}

}  // namespace
}  // namespace vlsa
