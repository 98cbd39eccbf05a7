#include "net/admin.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

#include "net/listener.hpp"

namespace vlsa::net {

// -------------------------------------------------------------------
// HttpRequestParser

HttpRequestParser::HttpRequestParser(std::size_t max_bytes)
    : max_bytes_(max_bytes) {}

HttpRequestParser::Result HttpRequestParser::fail(int status,
                                                  const std::string& message) {
  error_status_ = status;
  error_ = message;
  buffer_.clear();
  return Result::Error;
}

HttpRequestParser::Result HttpRequestParser::feed(const char* data,
                                                  std::size_t size) {
  if (poisoned()) return Result::Error;
  buffer_.append(data, size);
  if (buffer_.size() > max_bytes_) {
    return fail(431, "request head exceeds " + std::to_string(max_bytes_) +
                         " bytes");
  }
  // The head ends at CRLFCRLF (bare LFLF tolerated — curl never sends
  // it, humans with netcat do).
  std::size_t head_end = buffer_.find("\r\n\r\n");
  std::size_t term = 4;
  if (head_end == std::string::npos) {
    head_end = buffer_.find("\n\n");
    term = 2;
  }
  if (head_end == std::string::npos) return Result::NeedMore;
  const std::string head = buffer_.substr(0, head_end + term);

  // Request line: METHOD SP TARGET SP HTTP/1.x
  const std::size_t line_end = head.find_first_of("\r\n");
  std::string line = head.substr(0, line_end);
  for (const char c : line) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) {
      return fail(400, "control byte in request line");
    }
  }
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    return fail(400, "malformed request line");
  }
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);
  if (method.empty() || target.empty() ||
      target.find(' ') != std::string::npos) {
    return fail(400, "malformed request line");
  }
  if (version.rfind("HTTP/1.", 0) != 0) {
    return fail(400, "unsupported protocol version");
  }
  if (target[0] != '/') return fail(400, "request target must be absolute");

  request_ = AdminRequest();
  request_.method = method;
  const std::size_t q = target.find('?');
  request_.path = target.substr(0, q);
  if (q != std::string::npos) request_.query = target.substr(q + 1);
  buffer_.erase(0, head_end + term);
  return Result::Request;
}

// -------------------------------------------------------------------
// AdminServer

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
  }
  return "Unknown";
}

std::string render_response(const AdminResponse& r) {
  std::string out;
  out.reserve(r.body.size() + 128);
  out += "HTTP/1.1 " + std::to_string(r.status) + " " +
         status_text(r.status) + "\r\n";
  out += "Content-Type: " + r.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += r.body;
  return out;
}

}  // namespace

struct AdminServer::Connection {
  int fd = -1;
  HttpRequestParser parser;
  std::string outbuf;
  std::size_t out_off = 0;
  bool responding = false;  ///< response queued; stop reading

  explicit Connection(int f, std::size_t max_bytes)
      : fd(f), parser(max_bytes) {}
};

AdminServer::AdminServer(const AdminConfig& config) : config_(config) {
  listen_fd_ = detail::listen_tcp("admin", config_.host, config_.port,
                                  config_.listen_backlog, port_);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("admin: eventfd() failed");
  }
  thread_ = std::thread([this] { loop(); });
}

AdminServer::~AdminServer() { shutdown(); }

std::string AdminServer::address() const {
  return config_.host + ":" + std::to_string(port_);
}

void AdminServer::handle(const std::string& path, Handler handler) {
  util::LockGuard lock(mutex_);
  handlers_[path] = std::move(handler);
}

void AdminServer::shutdown() {
  {
    util::LockGuard lock(mutex_);
    if (shutdown_done_) return;
    shutdown_done_ = true;
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

AdminResponse AdminServer::dispatch(const AdminRequest& request) {
  if (request.method != "GET") {
    return AdminResponse{405, "text/plain; charset=utf-8",
                         "only GET is supported\n"};
  }
  Handler handler;
  {
    util::LockGuard lock(mutex_);
    const auto it = handlers_.find(request.path);
    if (it != handlers_.end()) handler = it->second;
  }
  if (!handler) {
    return AdminResponse{404, "text/plain; charset=utf-8",
                         "no such endpoint: " + request.path + "\n"};
  }
  try {
    return handler(request);
  } catch (const std::exception& e) {
    return AdminResponse{500, "text/plain; charset=utf-8",
                         std::string("handler failed: ") + e.what() + "\n"};
  }
}

void AdminServer::serve_connection(Connection& conn) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n > 0) {
      const auto result =
          conn.parser.feed(chunk, static_cast<std::size_t>(n));
      if (result == HttpRequestParser::Result::NeedMore) continue;
      AdminResponse response;
      if (result == HttpRequestParser::Result::Request) {
        response = dispatch(conn.parser.request());
      } else {
        response.status = conn.parser.error_status();
        response.body = conn.parser.error() + "\n";
      }
      conn.outbuf = render_response(response);
      conn.out_off = 0;
      conn.responding = true;
      return;
    }
    if (n == 0) {  // EOF before a complete request: just close
      conn.outbuf.clear();
      conn.out_off = 0;
      conn.responding = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    conn.outbuf.clear();
    conn.out_off = 0;
    conn.responding = true;  // tear down on next pass
    return;
  }
}

void AdminServer::loop() {
  std::vector<std::unique_ptr<Connection>> conns;
  for (;;) {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{wake_fd_, POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& conn : conns) {
      short events = 0;
      if (!conn->responding) events |= POLLIN;
      if (conn->responding && conn->out_off < conn->outbuf.size()) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{conn->fd, events, 0});
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      // shutdown() poked the eventfd: close everything and exit.
      for (const auto& conn : conns) ::close(conn->fd);
      return;
    }
    // Connections accepted below were not part of this poll round;
    // only the first `polled` entries have a pollfd at fds[i + 2].
    const std::size_t polled = conns.size();
    if ((fds[1].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;
        if (conns.size() >= config_.max_connections) {
          ::close(fd);  // admin plane, not a data plane
          continue;
        }
        conns.push_back(std::make_unique<Connection>(
            fd, config_.max_request_bytes));
      }
    }
    for (std::size_t i = 0; i < polled; ++i) {
      Connection& conn = *conns[i];
      const short revents = fds[i + 2].revents;
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          !conn.responding) {
        conn.responding = true;  // drop it below
      }
      if ((revents & POLLIN) != 0 && !conn.responding) {
        serve_connection(conn);
      }
      if (conn.responding && conn.out_off < conn.outbuf.size() &&
          (revents & (POLLOUT | POLLIN)) != 0) {
        // One response per connection (Connection: close): write until
        // done or EAGAIN, then the poll above watches POLLOUT.
        while (conn.out_off < conn.outbuf.size()) {
          // MSG_NOSIGNAL: a scraper that hung up must not SIGPIPE the
          // process.
          const ssize_t n =
              ::send(conn.fd, conn.outbuf.data() + conn.out_off,
                     conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
          if (n > 0) {
            conn.out_off += static_cast<std::size_t>(n);
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          conn.out_off = conn.outbuf.size();  // peer gone; give up
          break;
        }
      }
      if (conn.responding && conn.out_off >= conn.outbuf.size()) {
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Connection>& c) {
                                 return c->fd < 0;
                               }),
                conns.end());
  }
}

}  // namespace vlsa::net
