// The serving workloads: the shipped daemon under open-loop load.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "models.h"
#include "serve/model_store.h"

namespace pb {

/// Fixed, per-workload load shape. Nothing here adapts to the measured
/// system: the parent and a change see the same traffic.
struct ServeConfig {
  int models = 2;
  int sz_every = 2;            // m{i} is sz-coded when i % sz_every == 0
  bool churn = false;          // Zipf reads + periodic :load swaps
  double budget_frac = 0.0;    // cache budget / decoded working set; 0 = fits all
  double lat_rate = 0.0;       // requests/s of the latency phase
  double slo_p99_ms = 0.0;     // p99 limit of the max_rps ladder
  double zipf_s = 1.0;
};
ServeConfig serve_config(const std::string& workload);

/// One scheduled operation of an open-loop phase.
struct Event {
  enum Kind : std::uint8_t { kInfer, kLoad } kind = kInfer;
  double t = 0.0;  // seconds after the phase start
  int model = 0;
  int rows = 0;
  int row0 = 0;
};

/// Seeded traffic generator: Poisson reads, Zipf (churn) or uniform model
/// choice, and for churn one :load per `swap_interval_s`, round-robin over
/// the models.
class Traffic {
 public:
  Traffic(const ServeConfig& cfg, std::uint64_t seed, double swap_interval_s);
  std::vector<Event> phase(double rate, double seconds);

 private:
  ServeConfig cfg_;
  std::uint64_t seed_;
  std::uint64_t phases_ = 0;
  double swap_interval_;
  std::vector<double> zipf_cdf_;  // over popularity ranks
};

/// Which version each model serves. A :load of a model serving A ships the
/// delta A -> B; one serving B ships A's full container. Flipped only when
/// a load succeeds, so a delta always goes against the version it was cut
/// from.
struct SwapState {
  std::mutex mu;
  std::vector<char> on_b;
};

struct PhaseStats {
  std::vector<double> lat_ms;       // infer, from due time less own lateness
  std::vector<double> swap_ms;      // :load round trips
  std::vector<double> gen_late_ms;  // generator's own lateness
  std::uint64_t failed = 0;
  std::uint64_t rows_checked = 0, top1_match = 0;
  bool abandoned = false;  // fell further behind schedule than allowed
};

/// Plays `events` against the daemon over `conns` keep-alive connections
/// (one thread each), checking every response. With `abandon_lag_s` > 0,
/// the phase stops issuing once a send is that far behind its schedule (an
/// overloaded ladder rung would otherwise take far longer than planned).
PhaseStats run_phase(int port, const std::vector<Event>& events,
                     const std::vector<ServedSpec>& models, SwapState& swaps,
                     Tally& tally, double abandon_lag_s = 0.0, int conns = 4);

/// Seconds between churn :loads: a cycle over every model takes 2.5% of
/// the run.
double swap_interval_s(const Options& opt, const ServeConfig& cfg);

/// Daemon flags for a workload's models and cache budget.
std::vector<std::string> daemon_args(const std::vector<ServedSpec>& models,
                                     std::size_t budget_bytes, bool trace);

/// The serving forms the daemon's repository gives every store: CSR views
/// built at decode, dc layers kept as codebook-CSR.
deepsz::serve::ModelStoreOptions daemon_store_options();

/// The daemon's cache budget: budget_frac of the models' decoded working
/// set, or room for all of it when budget_frac is 0.
std::size_t cache_budget(const ServeConfig& cfg, const std::vector<ServedSpec>& models);

/// The untraced serving run: fills the end-to-end metrics.
void run_serve(const Options& opt, Metrics& out, Tally& tally,
               std::vector<std::string>& notes);

}  // namespace pb
