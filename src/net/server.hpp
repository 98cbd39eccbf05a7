#pragma once
// Network front-end of the arithmetic service — a non-blocking,
// edge-triggered epoll TCP server speaking the net/protocol.hpp binary
// framing, feeding decoded requests straight into an AdderService.
//
// Thread model: ONE acceptor thread (poll on the listen socket, so
// shutdown never hangs in accept) plus N event-loop threads.  Each
// accepted connection is pinned to one loop round-robin, and that loop
// is the only thread that touches it: socket I/O, decoding, request
// slots, response encoding and epoll bookkeeping.  Completions arrive
// on the service's dispatcher threads, flagged or not: the completion
// callback parks the result in the request's slot and hands the slot
// back to the owning loop's doorbell (a mutex-guarded list plus an
// eventfd).  The loop encodes every returned response, then writes
// each connection they touched once.  A connection is destroyed only
// when none of its requests is inside the service, so no callback ever
// outlives what it touches.  Nothing in the request path ever blocks an
// event loop: submission into the service uses try-semantics only
// (AdderService::try_submit_callback).
//
// Backpressure maps the service's overflow policy onto the socket:
//
//   Block  — a full queue parks the *decoded* request on the
//            connection and the loop stops reading that socket; bytes
//            back up in kernel buffers, TCP flow control reaches the
//            client, and the loop retries on its next tick.  No frame
//            is ever dropped.
//   Reject — a full queue answers immediately with a
//            Status::Rejected frame (counted in net.frames_rejected
//            and service.rejected); the client decides what to retry.
//
// A protocol violation (bad magic, hostile lengths — see
// net/protocol.hpp) poisons the connection's decoder and tears the
// connection down; `net.decode_errors` counts them and the CI
// net-smoke job asserts the count stays zero under a healthy client.
//
// Graceful shutdown (`shutdown()`, also the destructor): stop
// accepting, then lame-duck the existing connections — frames already
// on the wire (including a half-close burst) are still read and
// served, every in-flight request completes, every response flushes,
// and each connection is closed as soon as it goes quiet (nothing in
// flight or buffered in either direction) — bounded by
// `ServerConfig::drain_timeout`, after which stragglers are
// force-closed.  `vlsa_tool serve --listen` wires SIGINT/SIGTERM to
// exactly this.
//
// Observability: net.* counters/gauges/histograms land in the same
// telemetry::Registry as the service's metrics (so one Prometheus
// scrape covers the whole socket path), and the request path emits
// net-accept/net-read/net-decode/net-dispatch/net-write/net-close
// trace events whenever a trace::TraceSession is active.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "service/service.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace vlsa::net {

struct ServerConfig {
  /// Listen address.  Port 0 binds an ephemeral port — read the real
  /// one back from Server::port() (the CI smoke test and the loopback
  /// tests depend on this).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Event-loop threads (>= 1); the acceptor is its own thread.
  int event_threads = 2;
  int listen_backlog = 128;
  /// Frame limits for every connection's decoder.
  DecoderLimits decoder;
  /// Bytes per read(2) call when draining a socket.
  std::size_t read_chunk = std::size_t{64} * 1024;
  /// A connection whose un-flushed response bytes exceed this is a
  /// slow (or hostile) reader and is closed — the cap that keeps a
  /// misbehaving client from ballooning server memory.
  std::size_t max_write_buffer = std::size_t{4} << 20;
  /// How long shutdown() waits for in-flight requests and un-flushed
  /// responses before force-closing the stragglers.
  std::chrono::milliseconds drain_timeout{5000};
};

namespace detail {
class EventLoop;
struct Metrics;
}  // namespace detail

class Server {
 public:
  /// Binds and starts serving immediately.  `service` must outlive the
  /// server and must run with workers >= 1 (pump mode has no consumer
  /// to drain the queue, so every socket would stall forever).  Metrics
  /// are registered in `service.registry()`.  Throws std::runtime_error
  /// when the socket cannot be bound.
  Server(const ServerConfig& config, service::AdderService& service);

  /// Calls shutdown().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves port 0 to the kernel's pick).
  std::uint16_t port() const { return port_; }

  /// "host:port" of the listening socket.
  std::string address() const;

  /// Graceful stop: close the listen socket, drain in-flight requests
  /// and write buffers (up to drain_timeout), close every connection,
  /// join all threads.  Idempotent and thread-safe; safe to call from
  /// a signal-watcher thread.
  void shutdown();

  /// Connections currently registered across all loops (approximate
  /// while running; exact once quiesced).
  long long active_connections() const;

  /// True once graceful drain has begun (shutdown() entered) — the
  /// admin plane's /readyz flips not-ready on exactly this edge, before
  /// a single connection is closed, so load balancers stop sending new
  /// work while the lame duck finishes the old.
  bool draining() const { return stopping_.load(std::memory_order_acquire); }

 private:
  void acceptor_loop();

  ServerConfig config_;
  service::AdderService& service_;
  /// Declared before loops_, so it outlives them: only loops record.
  std::unique_ptr<detail::Metrics> metrics_;
  std::vector<std::unique_ptr<detail::EventLoop>> loops_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_conn_{0};
  util::Mutex shutdown_mutex_;
  bool shutdown_done_ GUARDED_BY(shutdown_mutex_) = false;
};

}  // namespace vlsa::net
