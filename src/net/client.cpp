#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "trace/trace.hpp"

namespace vlsa::net {

namespace {

// Corked-mode flush threshold: enough frames per write(2) that the
// syscall stops being the per-request cost, small enough that the
// kernel socket buffer absorbs it without blocking mid-burst.
constexpr std::size_t kCorkFlushBytes = std::size_t{64} * 1024;

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw ConnectionError(std::string("net: write failed: ") +
                          std::strerror(errno));
  }
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port,
               DecoderLimits limits)
    : decoder_(limits), readbuf_(64 * 1024) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw ConnectionError("net: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw ConnectionError("net: bad address '" + host +
                          "' (IPv4 dotted quad expected)");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw ConnectionError("net: connect(" + host + ":" +
                          std::to_string(port) +
                          ") failed: " + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(other.next_id_),
      outstanding_(other.outstanding_),
      corked_(other.corked_),
      decoder_(std::move(other.decoder_)),
      sendbuf_(std::move(other.sendbuf_)),
      readbuf_(std::move(other.readbuf_)),
      stashed_(std::move(other.stashed_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    next_id_ = other.next_id_;
    outstanding_ = other.outstanding_;
    corked_ = other.corked_;
    decoder_ = std::move(other.decoder_);
    sendbuf_ = std::move(other.sendbuf_);
    readbuf_ = std::move(other.readbuf_);
    stashed_ = std::move(other.stashed_);
  }
  return *this;
}

std::uint64_t Client::send(const util::BitVec& a, const util::BitVec& b,
                           int window) {
  if (fd_ < 0) throw ConnectionError("net: send on closed client");
  if (a.width() != b.width()) {
    throw std::invalid_argument("net: operand widths differ");
  }
  const std::uint64_t id = next_id_++;
  // The client owns the distributed-tracing sampling decision: a
  // sampled request carries kFlagTraceSampled on the wire, so the
  // server records its spans under the same request id and echoes the
  // bit back for the client-recv span (docs/observability.md).
  const bool sampled = trace::enabled() && trace::sample();
  const std::uint64_t t0 = sampled ? trace::now_ns() : 0;
  encode_request(id, window, a, b, sendbuf_,
                 sampled ? kFlagTraceSampled : std::uint8_t{0});
  ++outstanding_;
  if (!corked_ || sendbuf_.size() >= kCorkFlushBytes) flush();
  if (sampled) {
    trace::EventArgs args;
    args.req = id;
    args.has_req = true;
    trace::emit_complete(trace::EventName::kClientSend, t0, args);
  }
  return id;
}

void Client::cork(bool on) {
  if (corked_ && !on) flush();
  corked_ = on;
}

void Client::flush() {
  if (fd_ < 0 || sendbuf_.empty()) return;
  write_all(fd_, sendbuf_.data(), sendbuf_.size());
  sendbuf_.clear();
}

ResponseFrame Client::recv() {
  if (!stashed_.empty()) {
    auto it = stashed_.begin();
    ResponseFrame frame = std::move(it->second);
    stashed_.erase(it);
    return frame;
  }
  return read_one();
}

ResponseFrame Client::call(const util::BitVec& a, const util::BitVec& b,
                           int window) {
  const std::uint64_t id = send(a, b, window);
  const auto it = stashed_.find(id);  // cannot hit, but keeps the
  if (it != stashed_.end()) {         // invariant obvious
    ResponseFrame frame = std::move(it->second);
    stashed_.erase(it);
    return frame;
  }
  for (;;) {
    ResponseFrame frame = read_one();
    if (frame.id == id) return frame;
    stashed_.emplace(frame.id, std::move(frame));
  }
}

ResponseFrame Client::read_one() {
  if (fd_ < 0) throw ConnectionError("net: recv on closed client");
  flush();  // never block on responses to frames we kept buffered
  const bool tracing = trace::enabled();
  const std::uint64_t t0 = tracing ? trace::now_ns() : 0;
  RequestFrame request;
  ResponseFrame response;
  for (;;) {
    const auto result = decoder_.next(request, response);
    if (result == FrameDecoder::Result::Frame) {
      if (decoder_.type() != FrameType::Response) {
        throw ProtocolError("net: server sent a request frame");
      }
      if (outstanding_ > 0) --outstanding_;
      // The span covers blocking-read through decode of a response the
      // server marked trace-sampled; `req` joins it to the client-send
      // and server-side spans in a merged trace.
      if (tracing && (response.flags & kFlagTraceSampled) != 0) {
        trace::EventArgs args;
        args.req = response.id;
        args.has_req = true;
        args.er = (response.flags & kFlagRecovered) != 0 ? 1 : 0;
        trace::emit_complete(trace::EventName::kClientRecv, t0, args);
      }
      return response;
    }
    if (result == FrameDecoder::Result::Error) {
      throw ProtocolError("net: " + decoder_.error());
    }
    const ssize_t n = ::read(fd_, readbuf_.data(), readbuf_.size());
    if (n > 0) {
      decoder_.feed(readbuf_.data(), static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      throw ConnectionError("net: server closed the connection with " +
                            std::to_string(outstanding_) +
                            " request(s) outstanding");
    }
    if (errno == EINTR) continue;
    throw ConnectionError(std::string("net: read failed: ") +
                          std::strerror(errno));
  }
}

void Client::finish_sending() {
  if (fd_ < 0) return;
  flush();
  ::shutdown(fd_, SHUT_WR);
}

void Client::close() {
  if (fd_ >= 0) {
    try {
      flush();
    } catch (const ConnectionError&) {
      // Closing anyway; a peer that already went away is fine.
    }
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace vlsa::net
