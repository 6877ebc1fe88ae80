// Plumbing for the benchmark binary: monotonic clock, the benchmark's own
// in-memory spans, a minimal keep-alive HTTP/1.1 client, a supervised
// `deepsz_tool serve` child process, and the raw-results JSON writer.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock.
std::int64_t now_ns();
inline double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

// ---------------------------------------------------------------- spans

/// Spans the benchmark records around its calls into each layer's public
/// functions. Kept in memory; summarised (per-name durations) when the run
/// ends. Recording is a no-op unless enabled, so the untraced run pays
/// nothing but one branch per call.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index of the enclosing span on the same thread
  };

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Runs `fn` inside a span called `name`; returns fn's result.
  template <class Fn>
  auto time(const std::string& name, Fn&& fn) {
    const Open open = begin(name);
    struct Closer {
      SpanLog* log;
      Open open;
      ~Closer() { log->end(open); }
    } closer{this, open};
    return fn();
  }

  /// Records an externally measured duration as a span (for timings a layer
  /// reports itself, e.g. StageReport seconds or InferResult::queue_ms).
  void record(const std::string& name, double ms);
  /// Adds to a named count (bytes, rows, lookups).
  void count(const std::string& name, double value);

  /// Duration samples in milliseconds per span name.
  std::map<std::string, std::vector<double>> durations() const;
  std::map<std::string, std::vector<double>> counts() const;
  /// Every span as Chrome trace-event JSON (loads in Perfetto); the span
  /// that caused each one is in args.parent.
  std::string chrome_json() const;

 private:
  struct Open {
    int index = -1;
  };
  Open begin(const std::string& name);
  void end(Open open);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> counts_;
};

SpanLog& spans();

// ---------------------------------------------------------------- HTTP

struct HttpReply {
  int status = 0;
  std::vector<std::uint8_t> body;
};

/// One keep-alive connection to 127.0.0.1:port. Throws std::runtime_error
/// on a socket error or a malformed response.
class HttpClient {
 public:
  explicit HttpClient(int port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  HttpReply request(const std::string& method, const std::string& target,
                    std::span<const std::uint8_t> body = {},
                    const std::string& content_type =
                        "application/octet-stream");

  /// The two halves of request(), for keeping several requests in flight
  /// on one connection (HTTP/1.1 pipelining; replies come back in order).
  void send(const std::string& method, const std::string& target,
            std::span<const std::uint8_t> body,
            const std::string& content_type = "application/octet-stream");
  HttpReply receive();

 private:
  void connect_now();
  int port_;
  int fd_ = -1;
  std::string pending_;  // bytes read past the previous response
};

/// The infer route's binary body: [u32 rows][u32 cols][rows*cols f32 LE].
std::vector<std::uint8_t> encode_rows(std::span<const float> values,
                                      std::uint32_t rows, std::uint32_t cols);
/// Parses a binary infer reply; false when the framing is malformed.
bool decode_rows(std::span<const std::uint8_t> body, std::uint32_t* rows,
                 std::uint32_t* cols, std::vector<float>* values);

// ---------------------------------------------------------------- daemon

/// `deepsz_tool serve` as a child process on an ephemeral port. The child
/// dies with this process (PR_SET_PDEATHSIG); stop() sends SIGTERM and
/// waits for it, escalating to SIGKILL after a grace period.
class Daemon {
 public:
  Daemon(const std::string& tool, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// VmHWM of the child in MB (peak resident set so far).
  double peak_rss_mb() const;
  /// CPU seconds each live thread of the child has run so far, by thread id.
  std::map<int, double> thread_cpu() const;
  /// Returns the child's exit status (or -signal).
  int stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int out_fd_ = -1;  // read end of the child's stdout, open until stop()
};

/// CPU seconds run between two thread_cpu() samples by the threads alive
/// at the second one (a thread started in between counts from zero), so a
/// thread that exits in between takes only its own share with it.
double cpu_between(const std::map<int, double>& before,
                   const std::map<int, double>& after);

/// VmHWM of this process in MB.
double self_peak_rss_mb();
/// CPU time (user + system, all threads) this process has used so far.
double process_cpu_seconds();

// ---------------------------------------------------------------- JSON

/// Tiny JSON object writer for the raw results file.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& str(const std::string& key, const std::string& v);
  Json& arr(const std::string& key, const std::vector<double>& v);
  Json& arr(const std::string& key, const std::vector<std::int64_t>& v);
  Json& obj(const std::string& key, const Json& v);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_escape(const std::string& s);

// ---------------------------------------------------------------- misc

std::vector<std::uint8_t> read_file(const std::string& path);
void write_file(const std::string& path, std::span<const std::uint8_t> bytes);
void write_text(const std::string& path, const std::string& text);

}  // namespace perfbench
