#pragma once
// The listen socket shared by both TCP front-ends: net::Server's data
// port (server.cpp) and AdminServer's HTTP port (admin.cpp).

#include <cstdint>
#include <string>

namespace vlsa::net::detail {

/// Opens a non-blocking, close-on-exec IPv4 TCP socket with
/// SO_REUSEADDR, binds it to `host:port` and listens with `backlog`.
/// Returns the socket and stores the port actually bound in
/// `bound_port` (port 0 binds an ephemeral one).  Throws
/// std::runtime_error whose message starts with `prefix` ("net",
/// "admin"), so a failure names the server that hit it.
int listen_tcp(const char* prefix, const std::string& host,
               std::uint16_t port, int backlog, std::uint16_t& bound_port);

}  // namespace vlsa::net::detail
