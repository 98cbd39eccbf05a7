#include "net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "net/listener.hpp"
#include "telemetry/registry.hpp"
#include "trace/trace.hpp"

namespace vlsa::net {

namespace detail {

// ---------------------------------------------------------------------
// Shared metric handles (one resolve at server construction; recording
// is lock-free).  The Server owns them and outlives its loops, and only
// loop threads record them.
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
class Doorbell;

// One request's buffers and reply metadata, recycled by its connection.
// The loop decodes a frame into a free slot's `frame` (in place, so the
// operand buffers are reused) and hands the operands to the service.
// The completion callback parks the result in `completion` and hands
// the slot back through `doorbell`; the loop encodes the response and
// puts the sum and the second operand back into `frame`.  So every
// buffer is allocated and freed by the loop thread, and a steady
// connection allocates nothing per frame.
struct Slot {
  Slot(Connection& owner, Doorbell& bell) : conn(owner), doorbell(bell) {}

  // Fixed when the slot is made; the callback needs nothing else.
  Connection& conn;
  Doorbell& doorbell;
  RequestFrame frame;  ///< id, trace flag, width and operand buffers
  std::chrono::steady_clock::time_point t0;  ///< dispatch time
  bool wire_sampled = false;  ///< the client sampled it and we trace
  service::Completion completion;  ///< the result, until it is encoded
};

// Per-connection state.  Only its loop thread touches it, its slots and
// its buffers.
struct Connection {
  int fd = -1;
  std::uint64_t id = 0;
  FrameDecoder decoder{DecoderLimits{}};
  bool read_done = false;        ///< EOF seen (or server draining)
  bool close_requested = false;  ///< fatal: drop writes, close asap
  bool flush_queued = false;     ///< listed for this wake-up's writes
  Slot* stalled = nullptr;       ///< Block policy: parked frame
  std::vector<std::uint8_t> outbuf;  ///< encoded responses, unsent
  std::size_t out_off = 0;
  long long inflight = 0;  ///< slots inside the service
  std::vector<std::unique_ptr<Slot>> slots;  ///< every slot made here
  std::vector<Slot*> free_slots;             ///< not in flight or parked

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// The slot the next frame decodes into: the newest free one, or a
  /// new one when all are in use.  It stays free until the caller pops
  /// it.
  Slot& next_slot(Doorbell& doorbell) {
    if (free_slots.empty()) {
      slots.push_back(std::make_unique<Slot>(*this, doorbell));
      free_slots.push_back(slots.back().get());
    }
    return *free_slots.back();
  }
};

// A loop's inbox from other threads: an eventfd plus the connections
// the acceptor adopts and the slots the dispatchers hand back, which
// the loop swaps out in take().
//
// The eventfd is written under the lock, and only when the doorbell is
// not already signalled, so a dispatcher's last access to loop memory
// is the unlock.  Once the loop has taken a connection's last slot it
// may destroy the connection, and once no connection is left the loop,
// this doorbell and its eventfd may go too: a write after the unlock
// could land on a closed descriptor, or on one reused by a new socket.
class Doorbell {
 public:
  Doorbell() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (fd_ < 0) throw std::runtime_error("net: eventfd failed");
  }
  ~Doorbell() { ::close(fd_); }

  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  void adopt(std::unique_ptr<Connection> conn) {
    util::LockGuard lock(mutex_);
    adopted_.push_back(std::move(conn));
    signal();
  }

  void hand_back(Slot& slot) {
    util::LockGuard lock(mutex_);
    returned_.push_back(&slot);
    signal();
  }

  void ring() {
    util::LockGuard lock(mutex_);
    signal();
  }

  /// Loop thread: everything posted since the last take, swapped with
  /// the caller's lists (emptied first), so both sides keep their
  /// capacity and a steady loop allocates nothing here.  The eventfd is
  /// drained before the lock: whatever is posted after the read is
  /// either in this take or signals again, and the lock is never held
  /// across the read.
  void take(std::vector<std::unique_ptr<Connection>>& adopted,
            std::vector<Slot*>& returned) {
    adopted.clear();
    returned.clear();
    std::uint64_t count = 0;
    [[maybe_unused]] const auto n = ::read(fd_, &count, sizeof(count));
    util::LockGuard lock(mutex_);
    signalled_ = false;
    adopted_.swap(adopted);
    returned_.swap(returned);
  }

  [[nodiscard]] int fd() const { return fd_; }

 private:
  void signal() REQUIRES(mutex_) {
    if (signalled_) return;
    signalled_ = true;
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(fd_, &one, sizeof(one));
  }

  const int fd_;
  util::Mutex mutex_;
  std::vector<std::unique_ptr<Connection>> adopted_ GUARDED_BY(mutex_);
  std::vector<Slot*> returned_ GUARDED_BY(mutex_);
  bool signalled_ GUARDED_BY(mutex_) = false;  ///< written since the take
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
// One epoll event loop.  Connections and finished requests arrive
// through the doorbell; everything else happens on the loop thread.
//
// Lifetime rule: a connection is destroyed only when none of its slots
// is inside the service (maybe_close), and the loop exits only when no
// connection is left.  So every slot a dispatcher hands back is taken
// before the loop, its doorbell, the connection or the metrics go.
class EventLoop {
 public:
  EventLoop(const ServerConfig& config, service::AdderService& service,
            Metrics& metrics)
      : config_(config),
        service_(service),
        metrics_(metrics),
        width_(service.config().pipeline.width),
        window_(service.config().pipeline.window),
        reject_(service.config().overflow ==
                service::OverflowPolicy::Reject) {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) throw std::runtime_error("net: epoll_create1 failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = doorbell_.fd();
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, doorbell_.fd(), &ev) != 0) {
      ::close(epfd_);
      throw std::runtime_error("net: epoll_ctl(doorbell) failed");
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
  void adopt(std::unique_ptr<Connection> conn) {
    doorbell_.adopt(std::move(conn));
  }

  /// Ask the loop to stop reading, finish in-flight work, close every
  /// connection, and exit.  Returns immediately; join via destructor.
  void begin_drain(std::chrono::milliseconds timeout) {
    drain_deadline_ms_.store(
        now_ms() + static_cast<long long>(timeout.count()),
        std::memory_order_relaxed);
    draining_.store(true, std::memory_order_release);
    doorbell_.ring();
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
      // otherwise sleep until socket or doorbell activity.
      const int timeout_ms = (!stalled_.empty() || draining) ? 5 : 200;
      const int n = ::epoll_wait(epfd_, events.data(),
                                 static_cast<int>(events.size()),
                                 timeout_ms);
      // A draining loop answers the doorbell on every tick, so nothing
      // posted before the drain began is left behind when it exits.
      bool rung = draining;
      for (int i = 0; i < std::max(n, 0); ++i) {
        const epoll_event& ev = events[static_cast<std::size_t>(i)];
        if (ev.data.fd == doorbell_.fd()) {
          rung = true;
          continue;
        }
        const auto it = conns_.find(ev.data.fd);
        if (it == conns_.end()) continue;
        Connection& conn = *it->second;
        if ((ev.events & EPOLLOUT) != 0) flush_writes(conn);
        if ((ev.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) !=
            0) {
          handle_readable(conn, chunk);
        }
        maybe_close(conn);
      }
      if (rung) answer_doorbell(chunk);
      retry_stalled(chunk);
      if (draining) {
        drain_tick(chunk);
        if (conns_.empty()) break;
      }
    }
  }

  /// Register the adopted connections, then encode every returned
  /// response and write each connection they touched once.
  void answer_doorbell(std::vector<std::uint8_t>& chunk)
      REQUIRES(loop_role_) {
    doorbell_.take(adopted_, returned_);
    for (auto& owned : adopted_) {
      // Register even when a drain has already begun: the socket was
      // accepted before the listen socket closed, so it gets the same
      // lame-duck service as every other live connection (the drain
      // tick closes it once quiet).
      Connection* const conn = owned.get();
      if (!register_conn(std::move(owned))) continue;
      handle_readable(*conn, chunk);
      maybe_close(*conn);
    }
    metrics_.frames_out.increment(static_cast<long long>(returned_.size()));
    for (Slot* const slot : returned_) {
      Connection& conn = slot->conn;
      encode_completion(*slot);
      conn.free_slots.push_back(slot);
      --conn.inflight;
      if (!conn.flush_queued) {
        conn.flush_queued = true;
        touched_.push_back(&conn);
      }
    }
    for (Connection* const conn : touched_) {
      conn->flush_queued = false;
      flush_writes(*conn);
      maybe_close(*conn);
    }
    touched_.clear();
  }

  /// Returns false (and drops the connection, closing its socket) when
  /// epoll refuses it.
  bool register_conn(std::unique_ptr<Connection> conn)
      REQUIRES(loop_role_) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->fd, &ev) != 0) return false;
    active_.fetch_add(1, std::memory_order_relaxed);
    metrics_.connections_active.add(1);
    metrics_.connections_accepted.increment();
    if (trace::enabled()) {
      trace::EventArgs args;
      args.batch = conn->id;
      trace::emit_instant(trace::EventName::kNetAccept, args);
    }
    const int fd = conn->fd;
    conns_.emplace(fd, std::move(conn));
    return true;
  }

  // Drain the socket until EAGAIN (edge-triggered contract), feeding
  // the decoder and dispatching complete frames as they appear.  Under
  // Block-policy backpressure (a parked frame) the read stops — bytes
  // accumulate in the kernel buffer and TCP pushes back on the client.
  void handle_readable(Connection& conn, std::vector<std::uint8_t>& chunk)
      REQUIRES(loop_role_) {
    if (conn.read_done || conn.close_requested) return;
    if (conn.stalled != nullptr) {
      metrics_.read_stalls.increment();
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
        if (conn.stalled != nullptr) break;  // backpressure
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
      metrics_.bytes_read.increment(static_cast<long long>(burst));
      const std::uint64_t dur = ns_since(t_read);
      metrics_.read_ns.record(dur);
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
    ResponseFrame response;
    int frames = 0;
    bool ok = true;
    while (conn.stalled == nullptr) {
      Slot& slot = conn.next_slot(doorbell_);
      const auto result = conn.decoder.next(slot.frame, response);
      if (result == FrameDecoder::Result::NeedMore) break;
      if (result == FrameDecoder::Result::Error) {
        metrics_.decode_errors.increment();
        conn.close_requested = true;
        ok = false;
        break;
      }
      metrics_.frames_in.increment();
      ++frames;
      if (conn.decoder.type() != FrameType::Request) {
        // A response frame sent *to* the server is protocol misuse.
        metrics_.frames_errored.increment();
        conn.close_requested = true;
        ok = false;
        break;
      }
      conn.free_slots.pop_back();  // the slot is this request's now
      dispatch_request(conn, slot);
    }
    if (frames > 0) {
      const std::uint64_t dur = ns_since(t_decode);
      metrics_.decode_ns.record(dur);
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

  /// Submit a decoded request, or answer it at once.  A request
  /// answered here (width mismatch, Reject) frees its slot; a Block
  /// stall parks the slot, operands intact, for retry_stalled.
  void dispatch_request(Connection& conn, Slot& slot) REQUIRES(loop_role_) {
    const RequestFrame& request = slot.frame;
    if (request.width != width_ ||
        (request.window != 0 && request.window != window_)) {
      // Echo the request's width so the client sees the mismatch.
      enqueue_status(conn, request.id, Status::Error, request.width);
      conn.free_slots.push_back(&slot);
      return;
    }
    if (!try_submit(conn, slot)) {
      if (reject_) {
        enqueue_status(conn, request.id, Status::Rejected, width_);
        conn.free_slots.push_back(&slot);
      } else {
        // Block policy: park the frame, stop reading this socket.
        conn.stalled = &slot;
        stalled_.insert(conn.fd);
      }
    }
  }

  /// One submission attempt.  The service's try path hands the
  /// operands back untouched when the queue is full (or closed), so the
  /// slot survives a failed attempt (the Block-policy retry path
  /// re-submits the SAME parked slot) and the success path never pays a
  /// copy.  A closed service is answered here and its slot returned.
  bool try_submit(Connection& conn, Slot& slot) REQUIRES(loop_role_) {
    const std::uint64_t rid = slot.frame.id;
    // The client's sampling decision, carried on the wire: echo it in
    // the response and bracket dispatch -> response-encoded with a
    // net-serve span under the same request id, so trace::merge can
    // stitch the client's and server's views of this request together.
    const bool wire_sampled =
        (slot.frame.flags & kFlagTraceSampled) != 0 && trace::enabled();
    slot.wire_sampled = wire_sampled;
    slot.t0 = std::chrono::steady_clock::now();
    Slot* const target = &slot;
    const auto callback = [target](service::Completion completion) {
      target->completion = std::move(completion);
      target->doorbell.hand_back(*target);
    };
    // One pointer: std::function keeps it in place, so no frame
    // allocates its callback here and frees it on a dispatcher.
    static_assert(sizeof(callback) == sizeof(Slot*) &&
                  std::is_trivially_copyable_v<decltype(callback)>);
    bool accepted = false;
    try {
      accepted = service_.try_submit_callback(
          std::move(slot.frame.a), std::move(slot.frame.b), callback);
    } catch (const std::exception&) {
      // Service closed under us (teardown race): answer Error rather
      // than leaving the client hanging.
      enqueue_status(conn, rid, Status::Error, width_);
      conn.free_slots.push_back(&slot);
      return true;  // consumed (never retried)
    }
    if (!accepted) return false;
    ++conn.inflight;
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

  /// Encode a returned slot's response into its connection's output
  /// buffer, and put the sum and the second operand back in its frame.
  void encode_completion(Slot& slot) REQUIRES(loop_role_) {
    service::Completion& done = slot.completion;
    ResponseFrame response;
    response.id = slot.frame.id;
    response.status = Status::Ok;
    response.flags = static_cast<std::uint8_t>(
        (done.flagged ? kFlagRecovered : 0) |
        (done.speculative_wrong ? kFlagWrong : 0) |
        (slot.wire_sampled ? kFlagTraceSampled : 0));
    response.width = slot.frame.width;
    response.window = window_;
    response.latency_ticks = static_cast<std::uint64_t>(done.latency_cycles);
    response.sum = std::move(done.sum);
    encode_response(response, slot.conn.outbuf);
    slot.frame.a = std::move(response.sum);
    slot.frame.b = std::move(done.b);
    const std::uint64_t server_ns = ns_since(slot.t0);
    metrics_.server_ns.record(server_ns);
    if (slot.wire_sampled && trace::enabled()) {
      trace::EventArgs args;
      args.batch = slot.conn.id;
      args.k = window_;
      args.er = done.flagged ? 1 : 0;
      args.req = slot.frame.id;
      args.has_req = true;
      trace::emit_span(trace::EventName::kNetServe,
                       trace::to_session_ns(slot.t0), server_ns, args);
    }
  }

  /// Loop-thread reply without a sum — Status::Error (counted in
  /// net.frames_errored) or Status::Rejected (net.frames_rejected).
  /// Same output buffer as the completions, so byte ordering on the
  /// wire is a single append order.
  void enqueue_status(Connection& conn, std::uint64_t id, Status status,
                      int width) REQUIRES(loop_role_) {
    ResponseFrame response;
    response.id = id;
    response.status = status;
    response.width = width;
    response.window = window_;
    (status == Status::Rejected ? metrics_.frames_rejected
                                : metrics_.frames_errored)
        .increment();
    encode_response(response, conn.outbuf);
    metrics_.frames_out.increment();
    flush_writes(conn);
  }

  void flush_writes(Connection& conn) REQUIRES(loop_role_) {
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
      // MSG_NOSIGNAL: a peer that hung up with responses owed is an
      // EPIPE that closes its connection, not a SIGPIPE that kills the
      // server.
      const ssize_t n =
          ::send(conn.fd, conn.outbuf.data() + conn.out_off,
                 conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
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
      metrics_.bytes_written.increment(static_cast<long long>(wrote));
      const std::uint64_t dur = ns_since(t_write);
      metrics_.write_ns.record(dur);
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
      metrics_.slow_client_closes.increment();
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
      Connection& conn = *it->second;
      if (conn.stalled == nullptr || !try_submit(conn, *conn.stalled)) {
        continue;
      }
      conn.stalled = nullptr;
      stalled_.erase(fd);
      // The parked frame blocked both the decoder and the socket;
      // catch both up now.
      if (process_buffered(conn)) handle_readable(conn, chunk);
      maybe_close(conn);
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
    auto snapshot = std::vector<Connection*>();
    snapshot.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) snapshot.push_back(conn.get());
    for (Connection* const conn : snapshot) {
      handle_readable(*conn, chunk);  // pick up straggler bytes / EOF
      if (expired) conn->close_requested = true;
      flush_writes(*conn);
      if (!conn->close_requested && !conn->read_done &&
          conn->stalled == nullptr && conn->inflight == 0 &&
          conn->decoder.buffered() == 0 &&
          conn->out_off >= conn->outbuf.size()) {
        conn->read_done = true;  // quiet: treat as finished
      }
      maybe_close(*conn);
    }
  }

  /// Destroys the connection once it is finished or broken, but never
  /// while one of its slots is inside the service: the slot must come
  /// back through the doorbell first.
  void maybe_close(Connection& conn) REQUIRES(loop_role_) {
    if (conn.inflight > 0) return;
    if (conn.close_requested ||
        (conn.read_done && conn.stalled == nullptr &&
         conn.out_off >= conn.outbuf.size())) {
      destroy(conn);
    }
  }

  void destroy(Connection& conn) REQUIRES(loop_role_) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    active_.fetch_sub(1, std::memory_order_relaxed);
    metrics_.connections_active.add(-1);
    metrics_.connections_closed.increment();
    if (trace::enabled()) {
      trace::EventArgs args;
      args.batch = conn.id;
      trace::emit_instant(trace::EventName::kNetClose, args);
    }
    const int fd = conn.fd;
    stalled_.erase(fd);
    conns_.erase(fd);  // frees `conn`, whose destructor closes the socket
  }

  const ServerConfig config_;
  service::AdderService& service_;
  Metrics& metrics_;
  Doorbell doorbell_;
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
  std::unordered_map<int, std::unique_ptr<Connection>> conns_
      GUARDED_BY(loop_role_);
  std::set<int> stalled_ GUARDED_BY(loop_role_);
  /// The doorbell's lists as of the last take, and the connections
  /// that wake-up gave responses to; reused, so they keep capacity.
  std::vector<std::unique_ptr<Connection>> adopted_ GUARDED_BY(loop_role_);
  std::vector<Slot*> returned_ GUARDED_BY(loop_role_);
  std::vector<Connection*> touched_ GUARDED_BY(loop_role_);
};

}  // namespace detail

// ---------------------------------------------------------------------
// Server

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
  metrics_ = std::make_unique<detail::Metrics>(service_.registry());
  listen_fd_ = detail::listen_tcp("net", config_.host, config_.port,
                                  config_.listen_backlog, port_);
  loops_.reserve(static_cast<std::size_t>(config_.event_threads));
  for (int i = 0; i < config_.event_threads; ++i) {
    loops_.push_back(
        std::make_unique<detail::EventLoop>(config_, service_, *metrics_));
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
    auto conn = std::make_unique<detail::Connection>();
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
