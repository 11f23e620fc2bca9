// Loopback HTTP/1.1 client and the serving daemon as a child process.
#pragma once

#include <string>
#include <vector>

namespace pb {

struct HttpReply {
  int status = 0;  // 0 = transport failure
  std::string body;
};

/// One keep-alive connection to 127.0.0.1:port. Reconnects on demand.
class HttpConn {
 public:
  explicit HttpConn(int port) : port_(port) {}
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Sends one request (binary body, if any) and reads the reply.
  HttpReply request(const std::string& method, const std::string& target,
                    const std::string& body = {});

 private:
  bool connect_once();
  void close_fd();

  int port_;
  int fd_ = -1;
  std::string buf_;
};

/// `deepsz_tool serve` on an ephemeral port. The destructor stops it
/// (SIGTERM, then SIGKILL after a grace period) and reaps it.
class Daemon {
 public:
  /// Spawns the daemon and waits until it reports its port (every --model
  /// loaded). Throws std::runtime_error when it exits or stalls first.
  Daemon(const std::string& tool, const std::vector<std::string>& args,
         const std::string& log_prefix);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// Peak resident set of the daemon process, MiB.
  double rss_mb() const;
  /// Stops the daemon; returns its exit status (0 = clean drain).
  int stop();

 private:
  int pid_ = -1;
  int port_ = 0;
};

/// Sum of every sample of a Prometheus family whose label set contains
/// `label_filter` (empty = all samples).
double prom_sum(const std::string& text, const std::string& family,
                const std::string& label_filter = {});

}  // namespace pb
