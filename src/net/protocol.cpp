#include "net/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace vlsa::net {

namespace {

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// Append a BitVec's value as ceil(width/8) little-endian bytes.  The
/// wire format is the little-endian limb layout, so a little-endian host
/// copies the limbs' bytes with one memcpy; other hosts store byte by
/// byte.  This runs four times per request (client encode, server
/// decode, server encode, client decode).
void put_operand(std::vector<std::uint8_t>& out, const util::BitVec& v) {
  const std::size_t bytes = operand_bytes(v.width());
  if (bytes == 0) return;
  const std::size_t start = out.size();
  out.resize(start + bytes);
  std::uint8_t* dst = out.data() + start;
  const auto& limbs = v.limbs();
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, limbs.data(), bytes);
  } else {
    for (std::size_t i = 0; i < bytes; ++i) {
      dst[i] = static_cast<std::uint8_t>(limbs[i / 8] >> (8 * (i % 8)));
    }
  }
}

/// Parse `bytes` little-endian bytes into a width-bit BitVec, reusing
/// `out`'s limbs when it already holds `width` bits (a connection's
/// recycled request buffers), else allocating.  Returns false when any
/// bit above `width` is set — hostile padding, a framing error by
/// contract (canonical BitVecs keep those bits zero, and a lenient mask
/// here would make two distinct wire encodings decode to equal values).
bool get_operand(const std::uint8_t* p, int width, util::BitVec& out) {
  const std::size_t bytes = operand_bytes(width);
  const std::size_t n_limbs = (bytes + 7) / 8;
  if (out.width() != width || out.limbs().size() != n_limbs) {
    out = util::BitVec(width);
  }
  auto& limbs = out.limbs();
  if constexpr (std::endian::native == std::endian::little) {
    // The payload may end inside the top limb: clear it first, so no
    // bit of the buffer's previous value survives above the last byte.
    limbs.back() = 0;
    std::memcpy(limbs.data(), p, bytes);
  } else {
    std::fill(limbs.begin(), limbs.end(), std::uint64_t{0});
    for (std::size_t i = 0; i < bytes; ++i) {
      limbs[i / 8] |= std::uint64_t{p[i]} << (8 * (i % 8));
    }
  }
  if (width % 64 != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << (width % 64)) - 1;
    if ((limbs.back() & ~mask) != 0) return false;
  }
  return true;
}

// Assemble the 32-byte header in a stack buffer and append it with one
// insert — two of these run per request (request and response encode),
// and the push_back-per-byte version showed up in profiles.
void put_header(std::vector<std::uint8_t>& out, FrameType type,
                std::uint8_t op_or_status, std::uint8_t flags,
                std::uint64_t id, int width, int window,
                std::uint32_t payload_bytes, std::uint64_t latency_ticks) {
  std::uint8_t h[kHeaderBytes];
  const auto store32 = [&](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  const auto store64 = [&](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  store32(0, kMagic);
  h[4] = kVersion;
  h[5] = static_cast<std::uint8_t>(type);
  h[6] = op_or_status;
  h[7] = flags;
  store64(8, id);
  h[16] = static_cast<std::uint8_t>(width);
  h[17] = static_cast<std::uint8_t>(width >> 8);
  h[18] = static_cast<std::uint8_t>(window);
  h[19] = static_cast<std::uint8_t>(window >> 8);
  store32(20, payload_bytes);
  store64(24, latency_ticks);
  out.insert(out.end(), h, h + kHeaderBytes);
}

}  // namespace

void encode_request(const RequestFrame& frame,
                    std::vector<std::uint8_t>& out) {
  encode_request(frame.id, frame.window, frame.a, frame.b, out, frame.flags);
}

void encode_request(std::uint64_t id, int window, const util::BitVec& a,
                    const util::BitVec& b, std::vector<std::uint8_t>& out,
                    std::uint8_t flags) {
  const int width = a.width();
  const auto payload = static_cast<std::uint32_t>(2 * operand_bytes(width));
  put_header(out, FrameType::Request, static_cast<std::uint8_t>(Op::Add),
             flags, id, width, window, payload,
             /*latency_ticks=*/0);
  put_operand(out, a);
  put_operand(out, b);
}

void encode_response(const ResponseFrame& frame,
                     std::vector<std::uint8_t>& out) {
  const auto payload = static_cast<std::uint32_t>(
      frame.status == Status::Ok ? operand_bytes(frame.width) : 0);
  // No reserve for the frame: `out` grows geometrically through insert
  // and resize, where an exact reserve would reallocate once per frame
  // whenever a connection's pending responses pass their high-water
  // mark.
  put_header(out, FrameType::Response,
             static_cast<std::uint8_t>(frame.status), frame.flags, frame.id,
             frame.width, frame.window, payload, frame.latency_ticks);
  if (frame.status == Status::Ok) put_operand(out, frame.sum);
}

FrameDecoder::FrameDecoder(DecoderLimits limits) : limits_(limits) {}

FrameDecoder::Result FrameDecoder::fail(const std::string& message) {
  error_ = message;
  buffer_.clear();
  consumed_ = 0;
  return Result::Error;
}

void FrameDecoder::compact() {
  // Reclaim the decoded prefix once it dominates the buffer, so a
  // long-lived connection never grows its buffer past one frame plus
  // one read chunk.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (poisoned()) return;
  compact();
  buffer_.insert(buffer_.end(), data, data + size);
}

FrameDecoder::Result FrameDecoder::next(RequestFrame& request,
                                        ResponseFrame& response) {
  if (poisoned()) return Result::Error;
  if (buffered() < kHeaderBytes) return Result::NeedMore;
  const std::uint8_t* h = buffer_.data() + consumed_;

  if (get_u32(h) != kMagic) return fail("bad magic");
  if (h[4] != kVersion) {
    return fail("unsupported version " + std::to_string(int{h[4]}));
  }
  const std::uint8_t raw_type = h[5];
  if (raw_type != static_cast<std::uint8_t>(FrameType::Request) &&
      raw_type != static_cast<std::uint8_t>(FrameType::Response)) {
    return fail("unknown frame type " + std::to_string(int{raw_type}));
  }
  const auto type = static_cast<FrameType>(raw_type);
  const std::uint8_t op_or_status = h[6];
  const std::uint8_t flags = h[7];
  const std::uint64_t id = get_u64(h + 8);
  const int width = get_u16(h + 16);
  const int window = get_u16(h + 18);
  const std::uint32_t payload = get_u32(h + 20);
  const std::uint64_t latency_ticks = get_u64(h + 24);

  if (width < 1 || width > limits_.max_width) {
    return fail("width " + std::to_string(width) + " out of range [1, " +
                std::to_string(limits_.max_width) + "]");
  }
  const std::size_t op_bytes = operand_bytes(width);

  if (type == FrameType::Request) {
    if (op_or_status != static_cast<std::uint8_t>(Op::Add)) {
      return fail("unknown op " + std::to_string(int{op_or_status}));
    }
    if ((flags & ~kFlagTraceSampled) != 0) {
      return fail("unknown request flags");
    }
    if (latency_ticks != 0) return fail("nonzero request latency field");
    if (payload != 2 * op_bytes) {
      return fail("request payload length " + std::to_string(payload) +
                  " != 2 * " + std::to_string(op_bytes));
    }
  } else {
    if (op_or_status > static_cast<std::uint8_t>(Status::Error)) {
      return fail("unknown status " + std::to_string(int{op_or_status}));
    }
    const auto status = static_cast<Status>(op_or_status);
    const std::size_t expected = status == Status::Ok ? op_bytes : 0;
    if (payload != expected) {
      return fail("response payload length " + std::to_string(payload) +
                  " != " + std::to_string(expected));
    }
    if ((flags & ~(kFlagRecovered | kFlagWrong | kFlagTraceSampled)) != 0) {
      return fail("unknown response flags");
    }
  }

  if (buffered() < kHeaderBytes + payload) return Result::NeedMore;
  const std::uint8_t* body = h + kHeaderBytes;

  if (type == FrameType::Request) {
    // Every field is assigned; the operands decode into the frame's own
    // buffers when they already have this width.
    request.id = id;
    request.op = static_cast<Op>(op_or_status);
    request.flags = flags;
    request.width = width;
    request.window = window;
    if (!get_operand(body, width, request.a) ||
        !get_operand(body + op_bytes, width, request.b)) {
      return fail("operand has bits above the declared width");
    }
  } else {
    response = ResponseFrame();
    response.id = id;
    response.status = static_cast<Status>(op_or_status);
    response.flags = flags;
    response.width = width;
    response.window = window;
    response.latency_ticks = latency_ticks;
    if (response.status == Status::Ok &&
        !get_operand(body, width, response.sum)) {
      return fail("sum has bits above the declared width");
    }
  }
  consumed_ += kHeaderBytes + payload;
  type_ = type;
  return Result::Frame;
}

}  // namespace vlsa::net
