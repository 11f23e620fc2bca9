// perfbench: the repository benchmark harness.
//
//   perfbench --workload serve-warm|serve-churn|compress --seed N
//             --seconds S --trace 0|1 --tool path/to/deepsz_tool --work DIR
//   perfbench --prepare --work DIR     (trains/prunes the zoo LeNet-300 once)
//
// Prints a human log, a `provenance {...}` line and, last, one JSON line
// {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds
// this binary and is the entry point; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "compress.h"
#include "obs/trace.h"
#include "serve.h"
#include "traced.h"
#include "util/cpu.h"
#include "util/threadpool.h"

namespace {

std::string cpu_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::string out;
    for (const char* f : {"avx2", "fma", "avx512f", "avx512bw"}) {
      if (line.find(std::string(" ") + f + " ") != std::string::npos) {
        out += out.empty() ? f : std::string("+") + f;
      }
    }
    return out.empty() ? "none" : out;
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return "clang-" + std::to_string(__clang_major__) + "." + std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc-" + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
               "--tool TOOL --work DIR\n       perfbench --prepare --work DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = next();
      else if (a == "--seed") opt.seed = std::stoull(next());
      else if (a == "--seconds") opt.seconds = std::stod(next());
      else if (a == "--trace") opt.trace = next() != "0";
      else if (a == "--tool") opt.tool = next();
      else if (a == "--work") opt.work = next();
      else if (a == "--prepare") prepare = true;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (opt.work.empty()) return usage();
  std::filesystem::create_directories(opt.work);

  try {
    if (prepare) {
      pb::load_pruned_lenet();
      std::printf("prepared the pruned LeNet-300\n");
      return 0;
    }
    if (opt.workload != "serve-warm" && opt.workload != "serve-churn" &&
        opt.workload != "compress") {
      return usage();
    }
    // Library spans stay off in process unless a traced run turns them on.
    deepsz::obs::Tracer::set_enabled(false);

    pb::Metrics metrics;
    pb::Tally tally;
    std::vector<std::string> notes;
    const double t0 = pb::now_s();
    if (opt.trace) {
      pb::run_traced(opt, metrics, tally, notes);
    } else if (opt.workload == "compress") {
      pb::run_compress(opt, metrics, tally);
    } else {
      pb::run_serve(opt, metrics, tally, notes);
    }
    if (!opt.trace) {
      // Share of attempted operations whose output checks passed.
      const double attempted = static_cast<double>(tally.attempted.load());
      metrics.set("ok_frac",
                  attempted > 0 ? 1.0 - static_cast<double>(tally.failed.load()) / attempted
                                : 0.0,
                  "frac");
    }
    metrics.print(opt.trace ? "per-layer metrics:" : "end-to-end metrics:");

    std::string note_json;
    for (const auto& n : notes) note_json += (note_json.empty() ? "\"" : ", \"") + n + "\"";
    std::printf(
        "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"cpu_flags\": \"%s\", \"avx2_kernels\": %s, "
        "\"nproc\": %u, \"pool_threads\": %zu, \"DEEPSZ_THREADS\": \"%s\", "
        "\"compiler\": \"%s\", \"wall_s\": %.3f, \"notes\": [%s]}\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.seconds, opt.trace ? 1 : 0, cpu_flags().c_str(),
        deepsz::util::have_avx2_fma() ? "true" : "false",
        std::thread::hardware_concurrency(),
        deepsz::util::ThreadPool::global().size(),
        std::getenv("DEEPSZ_THREADS") ? std::getenv("DEEPSZ_THREADS") : "",
        compiler().c_str(), pb::now_s() - t0, note_json.c_str());
    const auto failed = tally.failed.load();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                failed == 0 && tally.attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted.load()),
                static_cast<unsigned long long>(failed), metrics.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
