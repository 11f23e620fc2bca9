#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace pb {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double vm_hwm_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Metrics::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << (std::isfinite(vu.first) ? vu.first : 0.0) << ", \"unit\": \""
       << vu.second << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

void Metrics::print(const char* title) const {
  std::printf("%s\n", title);
  for (const auto& [name, vu] : values_) {
    std::printf("  %-36s %14.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
}

void Tally::fail(const std::string& what) {
  ++attempted;
  // Report the first few failures; the count says the rest.
  if (failed.fetch_add(1) < 5) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string SpanLog::chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (const Span& s : spans_) {
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%llu.%03llu,"
        "\"dur\":%llu.%03llu,\"pid\":2,\"tid\":%llu,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"request\":%llu}}",
        first ? "" : ",", s.name.c_str(), s.layer.c_str(),
        static_cast<unsigned long long>(s.start_ns / 1000),
        static_cast<unsigned long long>(s.start_ns % 1000),
        static_cast<unsigned long long>(s.dur_ns / 1000),
        static_cast<unsigned long long>(s.dur_ns % 1000),
        static_cast<unsigned long long>(s.tid),
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request));
    out += buf;
    first = false;
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"source\":\"perfbench\"}}";
  return out;
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children's intervals per parent, merged so overlapping children (spans
  // from worker threads) are not subtracted twice.
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      children[s.parent].push_back({s.start_ns, s.start_ns + s.dur_ns});
    }
  }
  std::map<std::string, double> self;
  for (const char* layer : kLayers) self[layer] = 0.0;
  for (const Span& s : spans_) {
    std::uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      const std::uint64_t lo = s.start_ns, hi = s.start_ns + s.dur_ns;
      std::uint64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (a >= b) continue;
        if (open && a <= cur_hi) {
          cur_hi = std::max(cur_hi, b);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = a;
          cur_hi = b;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self[s.layer] += static_cast<double>(s.dur_ns - std::min(covered, s.dur_ns)) / 1e6;
  }
  return self;
}

Scope::Scope(const char* name, const char* layer, std::uint64_t parent,
             std::uint64_t request) {
  span_.start_ns = now_ns();
  auto& log = SpanLog::instance();
  if (!log.enabled()) return;
  live_ = true;
  span_.id = log.next_id();
  span_.parent = parent;
  span_.request = request;
  span_.name = name;
  span_.layer = layer;
  span_.tid = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

Scope::~Scope() {
  if (!live_) return;
  span_.dur_ns = now_ns() - span_.start_ns;
  SpanLog::instance().record(std::move(span_));
}

double Scope::ms() const {
  return static_cast<double>(now_ns() - span_.start_ns) / 1e6;
}

}  // namespace pb
