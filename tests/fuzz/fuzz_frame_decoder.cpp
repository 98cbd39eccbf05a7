// Fuzz harness for net::FrameDecoder (src/net/protocol.hpp): hostile
// bytes, arbitrarily fragmented, must never crash the decoder, never
// grow its buffer past the limit-implied bound, and must poison it
// permanently on the first protocol violation.
//
// The input's first byte picks the fragmentation pattern (how the
// remaining bytes are split into feed() calls) so the fuzzer explores
// the incremental-parse state machine, not just whole-buffer decodes.
//
// Decoding reuses the frame's operand buffers (the server recycles one
// frame per request slot), so a second decoder fed the same bytes
// decodes every frame into a fresh frame, and both must agree on every
// result, field and operand.  Between frames the reused operands are
// overwritten with all-ones limbs, so any bit a decode fails to clear
// shows.

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "fuzz_driver.hpp"
#include "net/protocol.hpp"
#include "util/bitvec.hpp"

namespace {

void require(bool cond) {
  if (!cond) std::abort();  // invariant violation -> fuzzer finding
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  vlsa::net::DecoderLimits limits;
  limits.max_width = 256;  // keep the buffered-bytes bound tight
  vlsa::net::FrameDecoder decoder(limits);
  vlsa::net::FrameDecoder fresh_decoder(limits);
  vlsa::net::RequestFrame request;
  vlsa::net::ResponseFrame response;

  const std::size_t chunk =
      size == 0 ? 1 : static_cast<std::size_t>(data[0] % 37) + 1;
  std::size_t offset = size == 0 ? 0 : 1;
  bool errored = false;
  while (offset < size) {
    const std::size_t n = std::min(chunk, size - offset);
    decoder.feed(data + offset, n);
    fresh_decoder.feed(data + offset, n);
    offset += n;
    for (;;) {
      const auto result = decoder.next(request, response);
      vlsa::net::RequestFrame fresh_request;
      vlsa::net::ResponseFrame fresh_response;
      require(fresh_decoder.next(fresh_request, fresh_response) == result);
      if (result == vlsa::net::FrameDecoder::Result::NeedMore) break;
      if (result == vlsa::net::FrameDecoder::Result::Error) {
        errored = true;
        require(decoder.poisoned());
        require(!decoder.error().empty());
        break;
      }
      // A decoded frame obeys the limits the decoder enforces, and the
      // reused frame equals the fresh one.
      require(fresh_decoder.type() == decoder.type());
      if (decoder.type() == vlsa::net::FrameType::Request) {
        require(request.width >= 1 && request.width <= limits.max_width);
        require(request.a.width() == request.width);
        require(request.b.width() == request.width);
        require(request.id == fresh_request.id &&
                request.op == fresh_request.op &&
                request.flags == fresh_request.flags &&
                request.width == fresh_request.width &&
                request.window == fresh_request.window &&
                request.a == fresh_request.a && request.b == fresh_request.b);
        for (auto* v : {&request.a, &request.b}) {
          for (auto& limb : v->limbs()) limb = ~std::uint64_t{0};
        }
      } else {
        require(response.width >= 1 && response.width <= limits.max_width);
        require(response.id == fresh_response.id &&
                response.status == fresh_response.status &&
                response.flags == fresh_response.flags &&
                response.width == fresh_response.width &&
                response.window == fresh_response.window &&
                response.latency_ticks == fresh_response.latency_ticks &&
                response.sum == fresh_response.sum);
      }
    }
    if (errored) break;
  }
  if (errored) {
    // Poisoned is forever: more bytes never resurrect the stream.
    const std::uint8_t junk[4] = {0xDE, 0xAD, 0xBE, 0xEF};
    decoder.feed(junk, sizeof junk);
    require(decoder.next(request, response) ==
            vlsa::net::FrameDecoder::Result::Error);
  } else {
    // No error: buffered bytes are bounded by one max-size frame plus
    // one read burst (the decoder compacts consumed prefixes).
    const std::size_t bound =
        vlsa::net::kHeaderBytes +
        2 * vlsa::net::operand_bytes(limits.max_width) + size + 64;
    require(decoder.buffered() <= bound);
  }
  return 0;
}

const std::vector<std::vector<std::uint8_t>>& fuzz_seed_inputs() {
  static const auto* seeds = [] {
    auto* s = new std::vector<std::vector<std::uint8_t>>;
    // A valid request and a valid response, each prefixed with the
    // fragmentation-pattern byte the harness consumes.
    {
      vlsa::net::RequestFrame f;
      f.id = 7;
      f.width = 64;
      f.window = 8;
      f.a = vlsa::util::BitVec::from_u64(64, 0x0123456789ABCDEFull);
      f.b = vlsa::util::BitVec::from_u64(64, 0xFEDCBA9876543210ull);
      std::vector<std::uint8_t> bytes{5};  // chunk pattern
      encode_request(f, bytes);
      s->push_back(bytes);
    }
    {
      // Two requests of one width back to back: the second decodes into
      // the first one's buffers.
      vlsa::net::RequestFrame f;
      f.width = 100;
      f.a = vlsa::util::BitVec::ones(100);
      f.b = vlsa::util::BitVec::ones(100);
      std::vector<std::uint8_t> bytes{3};
      encode_request(f, bytes);
      f.id = 8;
      f.a = vlsa::util::BitVec::from_u64(100, 5);
      f.b = vlsa::util::BitVec(100);
      encode_request(f, bytes);
      s->push_back(bytes);
    }
    {
      vlsa::net::ResponseFrame f;
      f.id = 7;
      f.status = vlsa::net::Status::Ok;
      f.width = 64;
      f.window = 8;
      f.latency_ticks = 3;
      f.sum = vlsa::util::BitVec::from_u64(64, 0x1111111111111111ull);
      std::vector<std::uint8_t> bytes{9};
      encode_response(f, bytes);
      s->push_back(bytes);
    }
    return s;
  }();
  return *seeds;
}
