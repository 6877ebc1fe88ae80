#include "harness.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans

namespace {
thread_local std::vector<int> t_open_spans;
}  // namespace

SpanLog& spans() {
  static SpanLog log;
  return log;
}

SpanLog::Open SpanLog::begin(const std::string& name) {
  if (!enabled()) return {};
  Span s;
  s.name = name;
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  t_open_spans.push_back(index);
  spans_.back().start_ns = now_ns();
  return {index};
}

void SpanLog::end(Open open) {
  if (open.index < 0) return;
  const std::int64_t t = now_ns();
  t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(open.index)].end_ns = t;
}

void SpanLog::record(const std::string& name, double ms) {
  if (!enabled()) return;
  const std::int64_t t = now_ns();
  Span s;
  s.name = name;
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  s.start_ns = t - static_cast<std::int64_t>(ms * 1e6);
  s.end_ns = t;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

void SpanLog::count(const std::string& name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  counts_[name].push_back(value);
}

std::map<std::string, std::vector<double>> SpanLog::durations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<double>> out;
  for (const auto& s : spans_) {
    out[s.name].push_back(ms_between(s.start_ns, s.end_ns));
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanLog::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::string SpanLog::chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d},\"name\":",
                  i ? "," : "", static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    out += buf + json_escape(s.name) + "}";
  }
  return out + "]}";
}

// ---------------------------------------------------------------- HTTP

namespace {

void send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, data, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    data += k;
    n -= static_cast<std::size_t>(k);
  }
}

std::size_t recv_some(int fd, std::string& buf) {
  char chunk[65536];
  for (;;) {
    const ssize_t k = ::recv(fd, chunk, sizeof(chunk), 0);
    if (k < 0 && errno == EINTR) continue;
    if (k < 0) {
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    if (k == 0) throw std::runtime_error("connection closed by server");
    buf.append(chunk, static_cast<std::size_t>(k));
    return static_cast<std::size_t>(k);
  }
}

}  // namespace

HttpClient::HttpClient(int port) : port_(port) { connect_now(); }

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

void HttpClient::connect_now() {
  if (fd_ >= 0) ::close(fd_);
  pending_.clear();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }
}

HttpReply HttpClient::request(const std::string& method,
                              const std::string& target,
                              std::span<const std::uint8_t> body,
                              const std::string& content_type) {
  send(method, target, body, content_type);
  return receive();
}

void HttpClient::send(const std::string& method, const std::string& target,
                      std::span<const std::uint8_t> body,
                      const std::string& content_type) {
  std::string head = method + " " + target +
                     " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: " +
                     content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\n\r\n";
  if (body.size() < 16384) {
    head.append(reinterpret_cast<const char*>(body.data()), body.size());
    send_all(fd_, head.data(), head.size());
  } else {
    send_all(fd_, head.data(), head.size());
    send_all(fd_, reinterpret_cast<const char*>(body.data()), body.size());
  }
}

HttpReply HttpClient::receive() {
  std::string& buf = pending_;
  std::size_t header_end;
  while ((header_end = buf.find("\r\n\r\n")) == std::string::npos) {
    recv_some(fd_, buf);
  }
  HttpReply reply;
  if (std::sscanf(buf.c_str(), "HTTP/1.1 %d", &reply.status) != 1) {
    throw std::runtime_error("malformed status line");
  }
  std::size_t content_length = 0;
  bool close_after = false;
  {
    std::istringstream lines(buf.substr(0, header_end));
    std::string line;
    while (std::getline(lines, line)) {
      std::string lower = line;
      for (auto& c : lower) c = static_cast<char>(std::tolower(c));
      if (lower.rfind("content-length:", 0) == 0) {
        content_length = std::stoull(lower.substr(15));
      } else if (lower.rfind("connection:", 0) == 0 &&
                 lower.find("close") != std::string::npos) {
        close_after = true;
      }
    }
  }
  const std::size_t body_start = header_end + 4;
  while (buf.size() < body_start + content_length) recv_some(fd_, buf);
  reply.body.assign(buf.begin() + static_cast<std::ptrdiff_t>(body_start),
                    buf.begin() + static_cast<std::ptrdiff_t>(
                                      body_start + content_length));
  buf.erase(0, body_start + content_length);
  if (close_after) connect_now();
  return reply;
}

std::vector<std::uint8_t> encode_rows(std::span<const float> values,
                                      std::uint32_t rows, std::uint32_t cols) {
  std::vector<std::uint8_t> out(8 + values.size() * sizeof(float));
  std::memcpy(out.data(), &rows, 4);
  std::memcpy(out.data() + 4, &cols, 4);
  std::memcpy(out.data() + 8, values.data(), values.size() * sizeof(float));
  return out;
}

bool decode_rows(std::span<const std::uint8_t> body, std::uint32_t* rows,
                 std::uint32_t* cols, std::vector<float>* values) {
  if (body.size() < 8) return false;
  std::memcpy(rows, body.data(), 4);
  std::memcpy(cols, body.data() + 4, 4);
  const std::uint64_t n = std::uint64_t{*rows} * *cols;
  if (body.size() != 8 + n * sizeof(float)) return false;
  values->resize(static_cast<std::size_t>(n));
  std::memcpy(values->data(), body.data() + 8, n * sizeof(float));
  return true;
}

// ---------------------------------------------------------------- daemon

Daemon::Daemon(const std::string& tool, const std::vector<std::string>& args,
               const std::string& log_path) {
  // Close-on-exec, so a later daemon does not inherit this one's pipe.
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe2() failed");
  std::vector<std::string> argv_s = {tool};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork() failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    // Only async-signal-safe calls between fork and exec; dup2 clears
    // close-on-exec on the descriptors it creates.
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  out_fd_ = out_pipe[0];

  // The daemon prints "... on port <N> ..." once it is listening.
  std::string line;
  const std::int64_t deadline = now_ns() + 120'000'000'000LL;
  while (line.find('\n') == std::string::npos) {
    pollfd p{out_pipe[0], POLLIN, 0};
    const int left_ms =
        static_cast<int>(std::max<std::int64_t>(0, deadline - now_ns()) / 1000000);
    if (::poll(&p, 1, left_ms) <= 0) break;
    char c[256];
    const ssize_t k = ::read(out_pipe[0], c, sizeof(c));
    if (k <= 0) break;
    line.append(c, static_cast<std::size_t>(k));
  }
  const std::size_t at = line.find("on port ");
  if (at == std::string::npos) {
    stop();
    throw std::runtime_error("daemon did not report a port: \"" + line + "\"");
  }
  port_ = std::atoi(line.c_str() + at + 8);
}

Daemon::~Daemon() { stop(); }

namespace {
/// VmHWM (kB) from a /proc/<pid>/status file, in MB; 0 when unreadable.
double vm_hwm_mb(const std::string& status_path) {
  std::ifstream f(status_path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}
}  // namespace

double Daemon::peak_rss_mb() const {
  return vm_hwm_mb("/proc/" + std::to_string(pid_) + "/status");
}

std::map<int, double> Daemon::thread_cpu() const {
  // Per-thread run time in ns (first field of schedstat): finer than the
  // 10 ms ticks of /proc/<pid>/stat, which is the fallback (as thread 0).
  // Both exclude time the hypervisor stole.
  const std::string proc = "/proc/" + std::to_string(pid_);
  std::map<int, double> cpu;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(proc + "/task", ec)) {
    std::ifstream f(task.path() / "schedstat");
    double run_ns = 0.0;
    if (f >> run_ns) cpu[std::atoi(task.path().filename().c_str())] = run_ns / 1e9;
  }
  if (!cpu.empty()) return cpu;
  std::ifstream f(proc + "/stat");
  std::string stat((std::istreambuf_iterator<char>(f)), {});
  // Fields after the parenthesised command name; utime and stime are the
  // 12th and 13th of them (fields 14 and 15 of proc(5)).
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::atof(field.c_str());
  }
  cpu[0] = ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  return cpu;
}

double cpu_between(const std::map<int, double>& before,
                   const std::map<int, double>& after) {
  double s = 0.0;
  for (const auto& [tid, cpu] : after) {
    const auto it = before.find(tid);
    s += cpu - (it == before.end() ? 0.0 : it->second);
  }
  return s;
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double self_peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

int Daemon::stop() {
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const std::int64_t deadline = now_ns() + 30'000'000'000LL;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) break;
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

// ---------------------------------------------------------------- JSON

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {
std::string num_text(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += json_escape(k) + ":";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ += num_text(v);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_escape(v);
  return *this;
}

Json& Json::arr(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) body_ += ",";
    body_ += num_text(v[i]);
  }
  body_ += "]";
  return *this;
}

Json& Json::arr(const std::string& k, const std::vector<std::int64_t>& v) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) body_ += ",";
    body_ += std::to_string(v[i]);
  }
  body_ += "]";
  return *this;
}

Json& Json::obj(const std::string& k, const Json& v) {
  key(k);
  body_ += v.dump();
  return *this;
}

// ---------------------------------------------------------------- misc

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f), {});
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!f) throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp);
  }
}

void write_text(const std::string& path, const std::string& text) {
  write_file(path, {reinterpret_cast<const std::uint8_t*>(text.data()),
                    text.size()});
}

}  // namespace perfbench
