#include "engine/obs_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace blowfish {

namespace {

constexpr size_t kMaxRequestBytes = 4096;

void SetRecvTimeout(int fd, int seconds) {
  struct timeval tv;
  tv.tv_sec = seconds;
  tv.tv_usec = 0;
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool WriteAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void WriteResponse(int fd, int status, const char* reason,
                   const char* content_type, const std::string& body) {
  std::string head = "HTTP/1.0 ";
  head.append(std::to_string(status)).append(" ").append(reason);
  head.append("\r\nContent-Type: ").append(content_type);
  head.append("\r\nContent-Length: ").append(std::to_string(body.size()));
  head.append("\r\nConnection: close\r\n\r\n");
  if (WriteAll(fd, head.data(), head.size())) {
    (void)WriteAll(fd, body.data(), body.size());
  }
}

}  // namespace

Result<std::unique_ptr<ObsServer>> ObsServer::Start(int port,
                                                    ObsHandlers handlers) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("obs port out of range: " +
                                   std::to_string(port));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(StatusCode::kUnavailable,
                  std::string("obs server: socket(): ") +
                      std::strerror(errno));
  }
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // ops plane: local only
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status(StatusCode::kUnavailable,
                  "obs server: bind(127.0.0.1:" + std::to_string(port) +
                      "): " + err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status(StatusCode::kUnavailable,
                  std::string("obs server: listen(): ") + err);
  }
  // Resolve the bound port (port 0 asked the OS to pick one).
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status(StatusCode::kUnavailable,
                  std::string("obs server: getsockname(): ") + err);
  }
  const int bound_port = static_cast<int>(ntohs(addr.sin_port));
  return std::unique_ptr<ObsServer>(
      new ObsServer(fd, bound_port, std::move(handlers)));
}

ObsServer::ObsServer(int fd, int port, ObsHandlers handlers)
    : listen_fd_(fd), port_(port), handlers_(std::move(handlers)) {
  thread_ = std::thread([this] { Serve(); });
}

ObsServer::~ObsServer() { Stop(); }

void ObsServer::Stop() {
  if (stopping_.exchange(true)) return;
  // Unblock the accept loop: shutdown makes the pending accept fail
  // on every platform this targets; close releases the port.
  (void)::shutdown(listen_fd_, SHUT_RDWR);
  (void)::close(listen_fd_);
  if (thread_.joinable()) thread_.join();
}

void ObsServer::Serve() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop (or fatally broken)
    }
    HandleConnection(conn);
    (void)::close(conn);
  }
}

void ObsServer::HandleConnection(int fd) {
  SetRecvTimeout(fd, 2);
  // Read until the header terminator; request bodies are ignored
  // (every endpoint is a GET).
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  // "GET <path> HTTP/1.x" — the only line that matters.
  const size_t eol = request.find("\r\n");
  const std::string line =
      request.substr(0, eol == std::string::npos ? request.size() : eol);
  if (line.compare(0, 4, "GET ") != 0) {
    WriteResponse(fd, 405, "Method Not Allowed", "text/plain",
                  "only GET is served\n");
    return;
  }
  const size_t path_end = line.find(' ', 4);
  const std::string path =
      line.substr(4, path_end == std::string::npos ? std::string::npos
                                                   : path_end - 4);
  if (path == "/metrics" && handlers_.metrics_text) {
    WriteResponse(fd, 200, "OK", "text/plain; version=0.0.4",
                  handlers_.metrics_text());
  } else if (path == "/varz" && handlers_.varz_json) {
    WriteResponse(fd, 200, "OK", "application/json", handlers_.varz_json());
  } else if (path == "/healthz" && handlers_.healthz) {
    const HealthReport report = handlers_.healthz();
    WriteResponse(fd, report.ok ? 200 : 503,
                  report.ok ? "OK" : "Service Unavailable",
                  "application/json", report.body);
  } else if (const auto it = handlers_.jsonl.find(path);
             it != handlers_.jsonl.end()) {
    WriteResponse(fd, 200, "OK", "application/x-ndjson", it->second());
  } else if (path == "/" || path == "/index.html") {
    WriteResponse(fd, 200, "OK", "text/plain",
                  "blowfish engine obs server\n"
                  "  /metrics   Prometheus text exposition\n"
                  "  /varz      metrics snapshot (JSON)\n"
                  "  /healthz   composed health report (200/503)\n"
                  "  /flightz   flight-recorder dump (JSONL)\n"
                  "  /auditz    epsilon-audit ring (JSONL)\n"
                  "  /burnz     burn-alert ring (JSONL)\n");
  } else {
    WriteResponse(fd, 404, "Not Found", "text/plain",
                  "unknown path: " + path + "\n");
  }
}

Result<HttpResponse> ObsHttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(StatusCode::kUnavailable,
                  std::string("obs client: socket(): ") +
                      std::strerror(errno));
  }
  SetRecvTimeout(fd, 5);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status(StatusCode::kUnavailable,
                  "obs client: connect(127.0.0.1:" + std::to_string(port) +
                      "): " + err);
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (!WriteAll(fd, request.data(), request.size())) {
    ::close(fd);
    return Status(StatusCode::kUnavailable, "obs client: send failed");
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  HttpResponse response;
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status(StatusCode::kUnavailable,
                  "obs client: malformed response (no header terminator)");
  }
  response.headers = raw.substr(0, header_end);
  response.body = raw.substr(header_end + 4);
  // "HTTP/1.0 200 OK"
  const size_t space = response.headers.find(' ');
  if (space != std::string::npos) {
    response.status = std::atoi(response.headers.c_str() + space + 1);
  }
  return response;
}

}  // namespace blowfish
