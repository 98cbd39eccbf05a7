#pragma once
// Wire protocol of the VLSA network front-end — a compact
// length-prefixed binary framing, plus an incremental decoder built to
// survive partial reads and hostile bytes.
//
// Every frame is a fixed 32-byte little-endian header followed by a
// payload whose length the header declares:
//
//   offset  size  field
//   0       4     magic          0x41534C56 ("VLSA" as LE bytes)
//   4       1     version        kVersion (1)
//   5       1     type           1 = request, 2 = response
//   6       1     op / status    request: Op; response: Status
//   7       1     flags          response: bit0 ER/recovery, bit1 the
//                                speculative one-cycle sum was wrong;
//                                bit2 (both directions) trace-sampled
//   8       8     request id     client-chosen, echoed verbatim
//   16      2     width          operand width in bits
//   18      2     window         speculation window k (request; 0 means
//                                "server default"; response echoes the
//                                window actually used)
//   20      4     payload bytes  length of everything after the header
//   24      8     latency ticks  response: modeled service cycles
//                                (queue wait + dispatch + recovery);
//                                request: must be 0
//
// Request payload: operand a then operand b, each ceil(width/8) bytes,
// little-endian (BitVec limb order).  Response payload: the sum, same
// encoding, present only for Status::Ok.
//
// The decoder is a two-state machine (header -> payload) over an
// internal append buffer, so a frame arriving one byte at a time costs
// one state transition per boundary, never a re-parse.  Validation is
// strict and *fatal*: a bad magic, unknown version/type/op/status, an
// out-of-range width, a payload length that disagrees with the header,
// or nonzero bits above `width` in an operand all poison the decoder
// (framing is lost — the connection must be torn down).  Limits are
// explicit (DecoderLimits::max_width bounds the largest frame a peer
// can make us buffer), so hostile input can neither overflow nor
// balloon memory.  tests/test_net.cpp drives all of this, including
// under ASan.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvec.hpp"

namespace vlsa::net {

inline constexpr std::uint32_t kMagic = 0x41534C56;  // "VLSA" little-endian
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 32;

enum class FrameType : std::uint8_t { Request = 1, Response = 2 };

/// Operations a request can ask for.  One today; the byte exists so the
/// protocol does not need a version bump to grow.
enum class Op : std::uint8_t { Add = 0 };

enum class Status : std::uint8_t {
  Ok = 0,        ///< payload carries the exact sum
  Rejected = 1,  ///< service queue full under the Reject policy
  Error = 2,     ///< server-side failure (width mismatch, shutdown)
};

/// Response flag bits.
inline constexpr std::uint8_t kFlagRecovered = 1;  ///< ER fired
inline constexpr std::uint8_t kFlagWrong = 2;      ///< speculation was wrong

/// Valid on requests AND responses: the sender sampled this frame into
/// an active trace session.  The client's sampling decision propagates
/// to the server (which records its spans under the same request id),
/// and the server echoes the bit so the client knows its `client-recv`
/// span completes a distributed trace (docs/observability.md).
inline constexpr std::uint8_t kFlagTraceSampled = 4;

/// Bytes one operand of `width` bits occupies on the wire.
inline std::size_t operand_bytes(int width) {
  return static_cast<std::size_t>((width + 7) / 8);
}

struct RequestFrame {
  std::uint64_t id = 0;
  Op op = Op::Add;
  std::uint8_t flags = 0;  ///< kFlagTraceSampled is the only valid bit
  int width = 0;           ///< operand width in bits
  int window = 0;          ///< requested k; 0 = server default
  util::BitVec a, b;
};

struct ResponseFrame {
  std::uint64_t id = 0;
  Status status = Status::Ok;
  std::uint8_t flags = 0;
  int width = 0;
  int window = 0;                   ///< k the server actually used
  std::uint64_t latency_ticks = 0;  ///< modeled service cycles
  util::BitVec sum;                 ///< empty unless status == Ok
};

/// Serialize a frame, appending to `out` (append, not overwrite, so a
/// pipelined sender batches frames into one buffer / one write).
void encode_request(const RequestFrame& frame, std::vector<std::uint8_t>& out);
void encode_response(const ResponseFrame& frame,
                     std::vector<std::uint8_t>& out);

/// Request encode from parts — what Client::send uses on its hot path
/// so a per-request RequestFrame (two operand copies) never exists.
void encode_request(std::uint64_t id, int window, const util::BitVec& a,
                    const util::BitVec& b, std::vector<std::uint8_t>& out,
                    std::uint8_t flags = 0);

struct DecoderLimits {
  /// Largest operand width a peer may name; bounds the payload (and so
  /// the decoder's buffered bytes) at 2 * operand_bytes(max_width).
  int max_width = 4096;
};

/// Incremental frame decoder.  Feed it raw bytes as they arrive; pull
/// frames out until it reports NeedMore.  After Error the decoder is
/// poisoned — every later call returns Error and the connection owning
/// it must close (byte framing is unrecoverable).
class FrameDecoder {
 public:
  explicit FrameDecoder(DecoderLimits limits = {});

  enum class Result {
    NeedMore,  ///< no complete frame buffered yet
    Frame,     ///< one frame decoded (see type())
    Error,     ///< protocol violation; see error()
  };

  /// Append raw bytes (e.g. straight from read(2)).
  void feed(const std::uint8_t* data, std::size_t size);

  /// Try to decode the next frame.  On Frame, `type()` says which of
  /// `request` / `response` was filled in.  A request decodes into
  /// `request`'s own operand buffers when they already hold the frame's
  /// width, so a caller that reuses its frame allocates nothing per
  /// request; the result equals a decode into a fresh frame.
  Result next(RequestFrame& request, ResponseFrame& response);

  FrameType type() const { return type_; }
  const std::string& error() const { return error_; }
  bool poisoned() const { return !error_.empty(); }

  /// Bytes fed but not yet consumed by a decoded frame.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  Result fail(const std::string& message);
  void compact();

  DecoderLimits limits_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already decoded
  FrameType type_ = FrameType::Request;
  std::string error_;
};

}  // namespace vlsa::net
