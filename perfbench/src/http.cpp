#include "http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.h"

extern char** environ;

namespace pb {

HttpConn::~HttpConn() { close_fd(); }

void HttpConn::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpConn::connect_once() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{30, 0};  // a hung daemon fails the request, not the run
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close_fd();
    return false;
  }
  return true;
}

HttpReply HttpConn::request(const std::string& method,
                            const std::string& target, const std::string& body) {
  std::string msg = method + " " + target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n";
  if (!body.empty() || method == "POST") {
    msg += "Content-Type: application/octet-stream\r\nContent-Length: " + std::to_string(body.size()) + "\r\n";
  }
  msg += "\r\n";
  msg += body;
  // A keep-alive connection the daemon closed fails on first use; retry
  // once on a fresh connection before reporting a transport failure.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0 && !connect_once()) continue;
    const char* p = msg.data();
    std::size_t left = msg.size();
    bool sent = true;
    while (left > 0) {
      const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n <= 0) {
        sent = false;
        break;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    if (!sent) {
      close_fd();
      continue;
    }
    HttpReply reply;
    std::size_t header_end = std::string::npos;
    char chunk[65536];
    bool broken = false;
    while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) {
        broken = true;
        break;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
    if (broken) {
      const bool nothing_read = buf_.empty();
      close_fd();
      if (nothing_read && attempt == 0) continue;
      return reply;
    }
    const std::string head = buf_.substr(0, header_end);
    reply.status = std::atoi(head.c_str() + head.find(' ') + 1);
    std::size_t length = 0;
    for (const char* key : {"Content-Length:", "content-length:"}) {
      const auto pos = head.find(key);
      if (pos != std::string::npos) {
        length = std::strtoull(head.c_str() + pos + std::strlen(key), nullptr, 10);
      }
    }
    const std::size_t need = header_end + 4 + length;
    while (buf_.size() < need) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) {
        close_fd();
        reply.status = 0;
        return reply;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
    reply.body = buf_.substr(header_end + 4, length);
    buf_.erase(0, need);
    if (head.find("Connection: close") != std::string::npos) close_fd();
    return reply;
  }
  return {};
}

Daemon::Daemon(const std::string& tool, const std::vector<std::string>& args,
               const std::string& log_prefix) {
  const std::string out_path = log_prefix + ".out";
  const std::string err_path = log_prefix + ".err";
  std::vector<std::string> argv_s = {tool, "serve"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, tool.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + tool + ": " + std::strerror(rc));
  }
  pid_ = pid;

  // The daemon prints "... on port N ..." once every --model is loaded.
  const double deadline = now_s() + 60.0;
  while (now_s() < deadline) {
    std::ifstream in(out_path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const auto pos = text.find(" on port ");
    if (pos != std::string::npos && text.find('\n', pos) != std::string::npos) {
      port_ = std::atoi(text.c_str() + pos + 9);
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon exited during start-up; see " + err_path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop();
  throw std::runtime_error("daemon did not report its port; see " + err_path);
}

Daemon::~Daemon() { stop(); }

double Daemon::rss_mb() const { return pid_ > 0 ? vm_hwm_mb(pid_) : 0.0; }

int Daemon::stop() {
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const double deadline = now_s() + 20.0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

double prom_sum(const std::string& text, const std::string& family,
                const std::string& label_filter) {
  double sum = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, family.size(), family) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    if (!label_filter.empty() && line.find(label_filter) == std::string::npos) {
      continue;
    }
    sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return sum;
}

}  // namespace pb
