// Shared pieces of the benchmark harness: options, clocks, order
// statistics, the result line, and the in-memory span log of traced runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tool;  // path of the deepsz_tool binary (serving daemon)
  std::string work;  // scratch directory for containers, logs and traces
};

double now_s();
std::uint64_t now_ns();

/// Independent stream `stream` of the workload seed (SplitMix64 finalizer),
/// so every generated input is a pure function of (seed, stream).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
double vm_hwm_mb(int pid = 0);

/// Metric values by name, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": u}, ...} with full precision.
  std::string json() const;
  /// One "name value unit" line per metric, for the human log.
  void print(const char* title) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Operations a run attempted and how many failed an output check. Any
/// failure makes the run incorrect.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  void ok() { ++attempted; }
  void fail(const std::string& what);
  bool check(bool cond, const std::string& what) {
    cond ? ok() : fail(what);
    return cond;
  }
};

// ---------------------------------------------------------------------------
// Spans of the traced run
// ---------------------------------------------------------------------------

/// The layers (repository modules) spans are attributed to.
inline constexpr const char* kLayers[] = {"server", "serve", "compress",
                                          "core",   "sz",    "lossless"};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // request the span serves; 0 = none
  std::string name;
  std::string layer;  // one of kLayers, or "bench" for the harness itself
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t tid = 0;
};

/// Spans recorded by the harness around each call into a layer. Kept in
/// memory, written once at the end. Disabled logs record nothing.
class SpanLog {
 public:
  static SpanLog& instance();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  std::uint64_t next_id() { return ++next_id_; }
  void record(Span span);

  /// Chrome trace-event JSON ("X" events, microsecond ts/dur), the format
  /// obs/export.h writes; span/parent/request ids go under "args".
  std::string chrome_json() const;
  /// Milliseconds per layer of span time not covered by child spans.
  std::map<std::string, double> self_ms_by_layer() const;
  std::size_t size() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) when the log is enabled.
class Scope {
 public:
  Scope(const char* name, const char* layer, std::uint64_t parent = 0,
        std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return span_.id; }
  /// Elapsed milliseconds so far (valid whether or not the log records).
  double ms() const;

 private:
  Span span_;
  bool live_ = false;
};

/// Times `fn` under a span and returns its duration in milliseconds.
template <typename Fn>
double timed_ms(const char* name, const char* layer, std::uint64_t parent,
                Fn&& fn) {
  Scope s(name, layer, parent);
  fn();
  return s.ms();
}

}  // namespace pb
