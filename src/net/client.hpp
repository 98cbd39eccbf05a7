#pragma once
// C++ client for the VLSA network front-end (net/server.hpp) — a
// deliberately simple blocking-socket counterpart to the server's epoll
// machinery.  Two usage styles:
//
//   * Blocking RPC: `call(a, b)` sends one request and waits for its
//     response.  Other responses arriving first (a dispatcher completes
//     its batches in FIFO order, but requests served by different
//     dispatchers — other shards, a second worker — can overtake each
//     other) are stashed and handed out by later recv()/call()s.
//   * Pipelined: `send(a, b)` frames one request, writes it (at once,
//     or at the next flush point when corked — see cork()) and returns
//     the request id; `recv()` blocks for the next response in arrival
//     order.  Keeping a bounded number of requests outstanding
//     (workloads/load_gen.cpp uses this) overlaps client think-time,
//     network, and server batching.  In-process producers get the same
//     overlap from AdderService::submit_many, one queue transaction
//     per chunk.
//
// The client shares the server's FrameDecoder, so it applies the same
// strict validation to everything the server sends back; a protocol
// violation throws ProtocolError and poisons the connection.
//
// Thread model: NOT thread-safe.  One Client per thread (the load
// generator runs one per connection); wrap externally to share.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "util/bitvec.hpp"

namespace vlsa::net {

/// The server closed the connection (or was never reachable).
class ConnectionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The peer violated the wire protocol; the connection is unusable.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Client {
 public:
  /// Connect (blocking) to host:port.  IPv4 dotted quad, same as
  /// ServerConfig::host.  Throws ConnectionError on failure.
  Client(const std::string& host, std::uint16_t port,
         DecoderLimits limits = {});
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Pipelined submit: frames and writes one request, returns its id
  /// (monotone per client).  `window` 0 asks for the server default.
  /// Throws ConnectionError when the socket breaks.
  std::uint64_t send(const util::BitVec& a, const util::BitVec& b,
                     int window = 0);

  /// Send batching.  Uncorked (the default), every send() is one
  /// write(2).  Corked, frames accumulate in the send buffer and hit
  /// the socket only when the buffer passes ~64 KiB or at the next
  /// flush point — recv()/call() (before blocking for a response),
  /// finish_sending(), and close() all flush first, so a corked client
  /// can never deadlock waiting for a response to bytes it kept.  For
  /// pipelined callers this collapses the per-request syscall into one
  /// write per tens of frames (the load generator corks; on a loopback
  /// saturation run the syscall rate is the bottleneck).
  void cork(bool on);

  /// Write out any buffered frames now.  No-op when empty, which an
  /// uncorked client always is between calls.
  void flush();

  /// Next response in arrival order (stashed responses first).  Blocks.
  /// Throws ConnectionError on EOF with requests outstanding,
  /// ProtocolError on a framing violation.
  ResponseFrame recv();

  /// Blocking RPC: send then wait for THIS request's response; responses
  /// for other outstanding requests are stashed for later recv()/call().
  ResponseFrame call(const util::BitVec& a, const util::BitVec& b,
                     int window = 0);

  /// Requests sent but not yet received.
  std::size_t outstanding() const { return outstanding_; }

  /// Half-close: tell the server no more requests are coming (it will
  /// finish in-flight work, flush responses, then close).  recv() keeps
  /// working for outstanding responses.
  void finish_sending();

  /// Full close (also the destructor).  Idempotent.
  void close();

  bool connected() const { return fd_ >= 0; }

 private:
  ResponseFrame read_one();  ///< pull the next response off the wire

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::size_t outstanding_ = 0;
  bool corked_ = false;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> sendbuf_;  ///< frames not yet written;
                                       ///< cleared by every write
  std::vector<std::uint8_t> readbuf_;  ///< scratch, reused per read
  std::unordered_map<std::uint64_t, ResponseFrame> stashed_;
};

}  // namespace vlsa::net
