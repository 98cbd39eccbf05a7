#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "net/notifier.hpp"
#include "telemetry/registry.hpp"
#include "trace/trace.hpp"

namespace vlsa::net {

namespace detail {

// ---------------------------------------------------------------------
// Shared metric handles (one resolve at server construction; recording
// is lock-free).  Held by shared_ptr so a completion callback that
// outlives the Server (a request still in the service queue during a
// forced teardown) never touches freed memory.
struct Metrics {
  explicit Metrics(telemetry::Registry& r)
      : connections_accepted(r.counter("net.connections_accepted")),
        connections_closed(r.counter("net.connections_closed")),
        connections_active(r.gauge("net.connections_active")),
        bytes_read(r.counter("net.bytes_read")),
        bytes_written(r.counter("net.bytes_written")),
        frames_in(r.counter("net.frames_in")),
        frames_out(r.counter("net.frames_out")),
        frames_rejected(r.counter("net.frames_rejected")),
        frames_errored(r.counter("net.frames_errored")),
        decode_errors(r.counter("net.decode_errors")),
        read_stalls(r.counter("net.read_stalls")),
        slow_client_closes(r.counter("net.slow_client_closes")),
        read_ns(r.histogram("net.read_ns")),
        decode_ns(r.histogram("net.decode_ns")),
        write_ns(r.histogram("net.write_ns")),
        server_ns(r.histogram("net.server_ns")) {}

  telemetry::Counter& connections_accepted;
  telemetry::Counter& connections_closed;
  telemetry::Gauge& connections_active;
  telemetry::Counter& bytes_read;
  telemetry::Counter& bytes_written;
  telemetry::Counter& frames_in;
  telemetry::Counter& frames_out;
  telemetry::Counter& frames_rejected;
  telemetry::Counter& frames_errored;
  telemetry::Counter& decode_errors;
  telemetry::Counter& read_stalls;
  telemetry::Counter& slow_client_closes;
  telemetry::Histogram& read_ns;    ///< per read burst (until EAGAIN)
  telemetry::Histogram& decode_ns;  ///< per decode pass over a burst
  telemetry::Histogram& write_ns;   ///< per write-buffer flush
  telemetry::Histogram& server_ns;  ///< dispatch -> response encoded
};

struct Connection;
using ConnNotifier = Notifier<Connection>;

// Per-connection state.  Everything except `pending`/`inflight` is
// owned by the loop thread; `pending` is the producer side of the
// response path (service threads append under the mutex) and
// `inflight` counts requests inside the service.
struct Connection : std::enable_shared_from_this<Connection> {
  int fd = -1;
  std::uint64_t id = 0;
  std::shared_ptr<ConnNotifier> notifier;
  FrameDecoder decoder{DecoderLimits{}};

  // Loop-thread state.
  bool in_epoll = false;
  bool read_done = false;        ///< EOF seen (or server draining)
  bool close_requested = false;  ///< fatal: drop writes, close asap
  std::optional<RequestFrame> stalled;  ///< Block policy: parked frame
  std::vector<std::uint8_t> outbuf;     ///< loop-owned write staging
  std::size_t out_off = 0;

  std::atomic<long long> inflight{0};

  util::Mutex pending_mutex;
  std::vector<std::uint8_t> pending GUARDED_BY(pending_mutex);

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  std::size_t pending_bytes() {
    util::LockGuard lock(pending_mutex);
    return pending.size();
  }
};

// A fake capability naming the event-loop thread itself.  State marked
// GUARDED_BY(loop_role_) has no mutex: it is single-threaded by
// construction, touched only from run() and its callees.  The
// annotation turns that ownership convention into something
// `clang++ -Wthread-safety` can prove — any future code path that
// reaches conns_/stalled_ from the acceptor or a completion callback
// fails the thread-safety preset instead of becoming a data race.
class CAPABILITY("role") LoopRole {};

// ---------------------------------------------------------------------
// One epoll event loop.  Connections are handed over by the acceptor
// through the notifier; everything else happens on the loop thread.
class EventLoop {
 public:
  EventLoop(const ServerConfig& config, service::AdderService& service,
            std::shared_ptr<Metrics> metrics)
      : config_(config),
        service_(service),
        metrics_(std::move(metrics)),
        notifier_(std::make_shared<ConnNotifier>()),
        width_(service.config().pipeline.width),
        window_(service.config().pipeline.window),
        reject_(service.config().overflow ==
                service::OverflowPolicy::Reject) {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) throw std::runtime_error("net: epoll_create1 failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = notifier_->wakefd();
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, notifier_->wakefd(), &ev) != 0) {
      ::close(epfd_);
      throw std::runtime_error("net: epoll_ctl(wakefd) failed");
    }
    thread_ = std::thread([this] { run(); });
  }

  ~EventLoop() {
    // Respect a drain already in progress (Server::shutdown started it
    // with the configured timeout); only a bare destruction forces an
    // immediate drain.
    if (!draining_.load(std::memory_order_acquire)) {
      begin_drain(std::chrono::milliseconds(0));
    }
    if (thread_.joinable()) thread_.join();
    ::close(epfd_);
  }

  /// Hand a freshly accepted connection to this loop (acceptor thread).
  void adopt(std::shared_ptr<Connection> conn) {
    conn->notifier = notifier_;
    notifier_->push(std::move(conn));
  }

  /// Ask the loop to stop reading, finish in-flight work, close every
  /// connection, and exit.  Returns immediately; join via destructor.
  void begin_drain(std::chrono::milliseconds timeout) {
    drain_deadline_ms_.store(
        now_ms() + static_cast<long long>(timeout.count()),
        std::memory_order_relaxed);
    draining_.store(true, std::memory_order_release);
    notifier_->push(nullptr);  // pure wakeup
  }

  long long active() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  static long long now_ms() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  static std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  /// The loop thread holds its role for its entire lifetime; this
  /// no-op tells the analysis so (there is no lock to acquire).
  void assume_loop_role() const ASSERT_CAPABILITY(loop_role_) {}

  void run() {
    assume_loop_role();
    std::vector<std::uint8_t> chunk(config_.read_chunk);
    std::array<epoll_event, 64> events;
    for (;;) {
      const bool draining = draining_.load(std::memory_order_acquire);
      // Stalled submissions and drain progress need a periodic tick;
      // otherwise sleep until socket or notifier activity.
      const int timeout_ms = (!stalled_.empty() || draining) ? 5 : 200;
      const int n = ::epoll_wait(epfd_, events.data(),
                                 static_cast<int>(events.size()),
                                 timeout_ms);
      if (n < 0 && errno != EINTR) break;
      bool notified = false;
      for (int i = 0; i < std::max(n, 0); ++i) {
        const epoll_event& ev = events[static_cast<std::size_t>(i)];
        if (ev.data.fd == notifier_->wakefd()) {
          std::uint64_t drained = 0;
          [[maybe_unused]] const auto r =
              ::read(notifier_->wakefd(), &drained, sizeof(drained));
          notified = true;
          continue;
        }
        const auto it = conns_.find(ev.data.fd);
        if (it == conns_.end()) continue;
        auto conn = it->second;  // keep alive across handlers
        if ((ev.events & EPOLLOUT) != 0) flush_writes(*conn);
        if ((ev.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) !=
            0) {
          handle_readable(*conn, chunk);
        }
        maybe_close(*conn);
      }
      if (notified) process_ready(chunk);
      retry_stalled(chunk);
      if (draining) drain_tick(chunk);
      if (draining_.load(std::memory_order_acquire) && conns_.empty()) {
        // Late completion callbacks may still push (a callback drops
        // `inflight` before it pushes, so the drain can finish between
        // the two).  Close the ready list so those pushes drop their
        // connection instead of parking it where nobody takes it, and
        // release whatever is parked: every connection has left conns_.
        notifier_->close_and_take();
        break;
      }
    }
  }

  void process_ready(std::vector<std::uint8_t>& chunk)
      REQUIRES(loop_role_) {
    for (auto& conn : notifier_->take()) {
      if (conn == nullptr) continue;  // pure wakeup
      if (!conn->in_epoll && conn->fd >= 0 && !conn->close_requested) {
        // Register even when a drain has already begun: the socket was
        // accepted before the listen socket closed, so it gets the
        // same lame-duck service as every other live connection (the
        // drain tick closes it once quiet).
        register_conn(conn);
        handle_readable(*conn, chunk);
        maybe_close(*conn);
        continue;
      }
      if (conn->fd < 0) continue;  // already destroyed
      flush_writes(*conn);
      maybe_close(*conn);
    }
  }

  void register_conn(const std::shared_ptr<Connection>& conn)
      REQUIRES(loop_role_) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      conn->close_requested = true;
      destroy(*conn);
      return;
    }
    conn->in_epoll = true;
    conns_.emplace(conn->fd, conn);
    active_.fetch_add(1, std::memory_order_relaxed);
    metrics_->connections_active.add(1);
    metrics_->connections_accepted.increment();
    if (trace::enabled()) {
      trace::EventArgs args;
      args.batch = conn->id;
      trace::emit_instant(trace::EventName::kNetAccept, args);
    }
  }

  // Drain the socket until EAGAIN (edge-triggered contract), feeding
  // the decoder and dispatching complete frames as they appear.  Under
  // Block-policy backpressure (a parked frame) the read stops — bytes
  // accumulate in the kernel buffer and TCP pushes back on the client.
  void handle_readable(Connection& conn, std::vector<std::uint8_t>& chunk)
      REQUIRES(loop_role_) {
    if (conn.fd < 0 || conn.read_done || conn.close_requested) return;
    if (conn.stalled.has_value()) {
      metrics_->read_stalls.increment();
      return;
    }
    const bool sampled = trace::enabled() && trace::sample();
    const auto t_read = std::chrono::steady_clock::now();
    std::size_t burst = 0;
    bool eof = false;
    for (;;) {
      const ssize_t n = ::read(conn.fd, chunk.data(), chunk.size());
      if (n > 0) {
        burst += static_cast<std::size_t>(n);
        conn.decoder.feed(chunk.data(), static_cast<std::size_t>(n));
        if (!process_buffered(conn)) break;  // poisoned -> closing
        if (conn.stalled.has_value()) break;  // backpressure
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn.close_requested = true;
      break;
    }
    if (burst > 0) {
      metrics_->bytes_read.increment(static_cast<long long>(burst));
      const std::uint64_t dur = ns_since(t_read);
      metrics_->read_ns.record(dur);
      if (sampled) {
        trace::EventArgs args;
        args.batch = conn.id;
        trace::emit_span(trace::EventName::kNetRead,
                         trace::to_session_ns(t_read), dur, args);
      }
    }
    if (eof) {
      conn.read_done = true;
      // A half-close may leave complete frames buffered; serve them.
      if (!conn.close_requested) process_buffered(conn);
    }
  }

  /// Decode and dispatch every complete frame currently buffered.
  /// Returns false when the connection is now fatally broken.
  bool process_buffered(Connection& conn) REQUIRES(loop_role_) {
    const bool sampled = trace::enabled() && trace::sample();
    const auto t_decode = std::chrono::steady_clock::now();
    RequestFrame request;
    ResponseFrame response;
    int frames = 0;
    bool ok = true;
    while (!conn.stalled.has_value()) {
      const auto result = conn.decoder.next(request, response);
      if (result == FrameDecoder::Result::NeedMore) break;
      if (result == FrameDecoder::Result::Error) {
        metrics_->decode_errors.increment();
        conn.close_requested = true;
        ok = false;
        break;
      }
      metrics_->frames_in.increment();
      ++frames;
      if (conn.decoder.type() != FrameType::Request) {
        // A response frame sent *to* the server is protocol misuse.
        metrics_->frames_errored.increment();
        conn.close_requested = true;
        ok = false;
        break;
      }
      dispatch_request(conn, std::move(request));
    }
    if (frames > 0) {
      const std::uint64_t dur = ns_since(t_decode);
      metrics_->decode_ns.record(dur);
      if (sampled) {
        trace::EventArgs args;
        args.batch = conn.id;
        args.lane = frames < 0x7fff ? frames : 0x7fff;
        trace::emit_span(trace::EventName::kNetDecode,
                         trace::to_session_ns(t_decode), dur, args);
      }
    }
    return ok;
  }

  void dispatch_request(Connection& conn, RequestFrame request)
      REQUIRES(loop_role_) {
    if (request.width != width_ ||
        (request.window != 0 && request.window != window_)) {
      ResponseFrame error;
      error.id = request.id;
      error.status = Status::Error;
      error.width = request.width;
      error.window = window_;
      metrics_->frames_errored.increment();
      enqueue_response(conn, error);
      return;
    }
    if (!try_submit(conn, request)) {
      if (reject_) {
        ResponseFrame rejected;
        rejected.id = request.id;
        rejected.status = Status::Rejected;
        rejected.width = request.width;
        rejected.window = window_;
        metrics_->frames_rejected.increment();
        enqueue_response(conn, rejected);
      } else {
        // Block policy: park the frame, stop reading this socket.
        conn.stalled = std::move(request);
        stalled_.insert(conn.fd);
      }
    }
  }

  /// One submission attempt.  The service's try path hands the
  /// operands back untouched when the queue is full, so the frame
  /// survives a failed attempt (the Block-policy retry path re-submits
  /// the SAME parked frame) and the success path never pays a copy.
  bool try_submit(Connection& conn, RequestFrame& request)
      REQUIRES(loop_role_) {
    auto shared = conn.shared_from_this();
    const std::uint64_t rid = request.id;
    const int width = width_;
    const int window = window_;
    // The client's sampling decision, carried on the wire: echo it in
    // the response and bracket dispatch -> response-encoded with a
    // net-serve span under the same request id, so trace::merge can
    // stitch the client's and server's views of this request together.
    const bool wire_sampled =
        (request.flags & kFlagTraceSampled) != 0 && trace::enabled();
    auto metrics = metrics_;
    const auto t0 = std::chrono::steady_clock::now();
    auto callback = [shared = std::move(shared), rid, width, window,
                     metrics = std::move(metrics), t0,
                     wire_sampled](service::Completion completion) {
      ResponseFrame response;
      response.id = rid;
      response.status = Status::Ok;
      response.flags = static_cast<std::uint8_t>(
          (completion.flagged ? kFlagRecovered : 0) |
          (completion.speculative_wrong ? kFlagWrong : 0) |
          (wire_sampled ? kFlagTraceSampled : 0));
      response.width = width;
      response.window = window;
      response.latency_ticks =
          static_cast<std::uint64_t>(completion.latency_cycles);
      response.sum = std::move(completion.sum);
      {
        util::LockGuard lock(shared->pending_mutex);
        encode_response(response, shared->pending);
      }
      metrics->frames_out.increment();
      const auto server_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      metrics->server_ns.record(server_ns);
      if (wire_sampled && trace::enabled()) {
        trace::EventArgs args;
        args.batch = shared->id;
        args.k = window;
        args.er = completion.flagged ? 1 : 0;
        args.req = rid;
        args.has_req = true;
        trace::emit_span(trace::EventName::kNetServe,
                         trace::to_session_ns(t0), server_ns, args);
      }
      shared->inflight.fetch_sub(1, std::memory_order_acq_rel);
      shared->notifier->push(shared);
    };
    conn.inflight.fetch_add(1, std::memory_order_acq_rel);
    bool accepted = false;
    try {
      accepted = service_.try_submit_callback(
          std::move(request.a), std::move(request.b), std::move(callback));
    } catch (const std::exception&) {
      // Service closed under us (teardown race): answer Error rather
      // than leaving the client hanging.
      conn.inflight.fetch_sub(1, std::memory_order_acq_rel);
      ResponseFrame error;
      error.id = rid;
      error.status = Status::Error;
      error.width = width_;
      error.window = window_;
      metrics_->frames_errored.increment();
      enqueue_response(conn, error);
      return true;  // consumed (never retried)
    }
    if (!accepted) {
      conn.inflight.fetch_sub(1, std::memory_order_acq_rel);
      return false;
    }
    if (wire_sampled || (trace::enabled() && trace::sample())) {
      trace::EventArgs args;
      args.batch = conn.id;
      args.k = window_;
      if (wire_sampled) {
        args.req = rid;
        args.has_req = true;
      }
      trace::emit_instant(trace::EventName::kNetDispatch, args);
    }
    return true;
  }

  /// Loop-thread response path (errors/rejections): same pending
  /// buffer as the completion callbacks, so byte ordering on the wire
  /// is a single append order.
  void enqueue_response(Connection& conn, const ResponseFrame& response)
      REQUIRES(loop_role_) {
    {
      util::LockGuard lock(conn.pending_mutex);
      encode_response(response, conn.pending);
    }
    metrics_->frames_out.increment();
    flush_writes(conn);
  }

  void flush_writes(Connection& conn) REQUIRES(loop_role_) {
    if (conn.fd < 0) return;
    {
      util::LockGuard lock(conn.pending_mutex);
      if (!conn.pending.empty()) {
        conn.outbuf.insert(conn.outbuf.end(), conn.pending.begin(),
                           conn.pending.end());
        conn.pending.clear();
      }
    }
    if (conn.close_requested) {
      conn.outbuf.clear();
      conn.out_off = 0;
      return;
    }
    if (conn.out_off >= conn.outbuf.size()) return;
    const bool sampled = trace::enabled() && trace::sample();
    const auto t_write = std::chrono::steady_clock::now();
    std::size_t wrote = 0;
    while (conn.out_off < conn.outbuf.size()) {
      const ssize_t n =
          ::write(conn.fd, conn.outbuf.data() + conn.out_off,
                  conn.outbuf.size() - conn.out_off);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        wrote += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      conn.close_requested = true;
      break;
    }
    if (wrote > 0) {
      metrics_->bytes_written.increment(static_cast<long long>(wrote));
      const std::uint64_t dur = ns_since(t_write);
      metrics_->write_ns.record(dur);
      if (sampled) {
        trace::EventArgs args;
        args.batch = conn.id;
        trace::emit_span(trace::EventName::kNetWrite,
                         trace::to_session_ns(t_write), dur, args);
      }
    }
    if (conn.out_off >= conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_off = 0;
    } else if (conn.outbuf.size() - conn.out_off >
               config_.max_write_buffer) {
      // The peer is not reading its responses; cut it loose before it
      // costs unbounded memory.
      metrics_->slow_client_closes.increment();
      conn.close_requested = true;
    }
  }

  void retry_stalled(std::vector<std::uint8_t>& chunk)
      REQUIRES(loop_role_) {
    if (stalled_.empty()) return;
    auto fds = std::vector<int>(stalled_.begin(), stalled_.end());
    for (const int fd : fds) {
      const auto it = conns_.find(fd);
      if (it == conns_.end()) {
        stalled_.erase(fd);
        continue;
      }
      auto conn = it->second;
      if (!conn->stalled.has_value() ||
          !try_submit(*conn, *conn->stalled)) {
        continue;
      }
      conn->stalled.reset();
      stalled_.erase(fd);
      // The parked frame blocked both the decoder and the socket;
      // catch both up now.
      if (process_buffered(*conn)) handle_readable(*conn, chunk);
      maybe_close(*conn);
    }
  }

  void drain_tick(std::vector<std::uint8_t>& chunk)
      REQUIRES(loop_role_) {
    // Lame-duck service: existing connections keep being read and
    // served — frames the client already put on the wire (including a
    // half-close) are honored — but each connection is closed as soon
    // as it goes QUIET: nothing in flight, nothing buffered in either
    // direction.  The deadline force-closes whatever never quiesces.
    const bool expired =
        now_ms() >= drain_deadline_ms_.load(std::memory_order_relaxed);
    auto snapshot = std::vector<std::shared_ptr<Connection>>();
    snapshot.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) snapshot.push_back(conn);
    for (const auto& conn : snapshot) {
      handle_readable(*conn, chunk);  // pick up straggler bytes / EOF
      if (expired) conn->close_requested = true;
      flush_writes(*conn);
      if (!conn->close_requested && !conn->read_done &&
          !conn->stalled.has_value() &&
          conn->inflight.load(std::memory_order_acquire) == 0 &&
          conn->decoder.buffered() == 0 &&
          conn->out_off >= conn->outbuf.size() &&
          conn->pending_bytes() == 0) {
        conn->read_done = true;  // quiet: treat as finished
      }
      maybe_close(*conn);
    }
  }

  void maybe_close(Connection& conn) REQUIRES(loop_role_) {
    if (conn.fd < 0) return;
    const bool no_inflight =
        conn.inflight.load(std::memory_order_acquire) == 0;
    if (conn.close_requested) {
      if (no_inflight) destroy(conn);
      return;
    }
    if (conn.read_done && !conn.stalled.has_value() && no_inflight &&
        conn.out_off >= conn.outbuf.size() && conn.pending_bytes() == 0) {
      destroy(conn);
    }
  }

  void destroy(Connection& conn) REQUIRES(loop_role_) {
    if (conn.fd < 0) return;
    if (conn.in_epoll) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn.fd, nullptr);
      active_.fetch_sub(1, std::memory_order_relaxed);
      metrics_->connections_active.add(-1);
      metrics_->connections_closed.increment();
      if (trace::enabled()) {
        trace::EventArgs args;
        args.batch = conn.id;
        trace::emit_instant(trace::EventName::kNetClose, args);
      }
    }
    ::close(conn.fd);
    const int fd = conn.fd;
    conn.fd = -1;
    conn.in_epoll = false;
    stalled_.erase(fd);
    conns_.erase(fd);  // may free `conn`'s last loop-side reference
  }

  const ServerConfig config_;
  service::AdderService& service_;
  std::shared_ptr<Metrics> metrics_;
  std::shared_ptr<ConnNotifier> notifier_;
  const int width_;
  const int window_;
  const bool reject_;
  int epfd_ = -1;
  std::thread thread_;
  std::atomic<bool> draining_{false};
  std::atomic<long long> drain_deadline_ms_{0};
  std::atomic<long long> active_{0};
  // Loop-thread-only state, guarded by the role capability above.
  LoopRole loop_role_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_
      GUARDED_BY(loop_role_);
  std::set<int> stalled_ GUARDED_BY(loop_role_);
};

}  // namespace detail

// ---------------------------------------------------------------------
// Server

namespace {

int make_listener(const ServerConfig& config, std::uint16_t& bound_port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) throw std::runtime_error("net: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.port);
  if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("net: bad listen address '" + config.host +
                             "' (IPv4 dotted quad expected)");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("net: bind(" + config.host + ":" +
                             std::to_string(config.port) +
                             ") failed: " + std::strerror(err));
  }
  if (::listen(fd, config.listen_backlog) != 0) {
    ::close(fd);
    throw std::runtime_error("net: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

Server::Server(const ServerConfig& config, service::AdderService& service)
    : config_(config), service_(service) {
  if (config_.event_threads < 1) {
    throw std::invalid_argument("net: event_threads must be >= 1");
  }
  if (service_.config().workers < 1) {
    throw std::invalid_argument(
        "net: the backing AdderService must run workers >= 1 (pump mode "
        "has no consumer; every connection would stall)");
  }
  metrics_ = std::make_shared<detail::Metrics>(service_.registry());
  listen_fd_ = make_listener(config_, port_);
  loops_.reserve(static_cast<std::size_t>(config_.event_threads));
  for (int i = 0; i < config_.event_threads; ++i) {
    loops_.push_back(
        std::make_unique<detail::EventLoop>(config_, service_, metrics_));
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

Server::~Server() { shutdown(); }

std::string Server::address() const {
  return config_.host + ":" + std::to_string(port_);
}

long long Server::active_connections() const {
  long long total = 0;
  for (const auto& loop : loops_) total += loop->active();
  return total;
}

void Server::acceptor_loop() {
  std::size_t next_loop = 0;
  const auto accept_one = [&]() -> bool {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<detail::Connection>();
    conn->fd = fd;
    conn->id = next_conn_.fetch_add(1, std::memory_order_relaxed);
    conn->decoder = FrameDecoder(config_.decoder);
    loops_[next_loop]->adopt(std::move(conn));
    next_loop = (next_loop + 1) % loops_.size();
    return true;
  };
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 100);
    if (r <= 0) continue;  // timeout/EINTR: re-check the stop flag
    accept_one();
  }
  // Sweep the backlog: sockets the kernel already established (the
  // peer's connect() returned) but we had not accepted yet would be
  // RESET when the listen fd closes — accept them now so they get the
  // same lame-duck drain as every live connection.
  while (accept_one()) {
  }
}

void Server::shutdown() {
  util::LockGuard lock(shutdown_mutex_);
  if (shutdown_done_) return;
  stopping_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& loop : loops_) loop->begin_drain(config_.drain_timeout);
  loops_.clear();  // destructors join the loop threads
  shutdown_done_ = true;
}

}  // namespace vlsa::net
