#include "serve.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "http.h"
#include "serve/model_store.h"
#include "util/rng.h"

namespace pb {

ServeConfig serve_config(const std::string& workload) {
  ServeConfig c;
  if (workload == "serve-warm") {
    c.models = 2;
    c.lat_rate = 250.0;
    c.slo_p99_ms = 25.0;
  } else if (workload == "serve-churn") {
    c.models = 12;
    c.sz_every = 3;
    c.churn = true;
    c.budget_frac = 0.5;
    c.lat_rate = 150.0;
    c.slo_p99_ms = 200.0;
    c.zipf_s = 1.4;
  } else {
    throw std::invalid_argument("not a serving workload: " + workload);
  }
  return c;
}

Traffic::Traffic(const ServeConfig& cfg, std::uint64_t seed, double swap_interval_s)
    : cfg_(cfg), seed_(seed), swap_interval_(swap_interval_s) {
  // Popularity rank r is model m{r}: the sz/dc mix of the hot set is the
  // same for every seed, only weights, inputs and arrival times vary.
  double acc = 0.0;
  for (int r = 0; r < cfg.models; ++r) {
    acc += cfg.churn ? 1.0 / std::pow(r + 1.0, cfg.zipf_s) : 1.0;
    zipf_cdf_.push_back(acc);
  }
  for (auto& p : zipf_cdf_) p /= acc;
}

std::vector<Event> Traffic::phase(double rate, double seconds) {
  deepsz::util::Pcg32 rng(sub_seed(seed_, 100 + phases_++));
  std::vector<Event> ev;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;  // Poisson arrivals
    if (t >= seconds) break;
    Event e;
    e.t = t;
    const double u = rng.uniform();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
    e.model = static_cast<int>(std::min(rank, zipf_cdf_.size() - 1));
    e.rows = kRowChoices[rng.next_u32() % 5];
    e.row0 = static_cast<int>(rng.next_u32() % static_cast<std::uint32_t>(kPoolRows - e.rows + 1));
    ev.push_back(e);
  }
  if (cfg_.churn) {
    // One :load every `swap_interval_` seconds, round-robin from m0 at every
    // phase start. Phases last whole cycles (every model once), so each
    // window and ladder probe sees the same swaps.
    std::size_t next = 0;
    for (double s = swap_interval_ / 2; s < seconds; s += swap_interval_) {
      Event e;
      e.t = s;
      e.model = static_cast<int>(next++ % static_cast<std::size_t>(cfg_.models));
      e.kind = Event::kLoad;
      ev.push_back(e);
    }
    std::stable_sort(ev.begin(), ev.end(),
                     [](const Event& x, const Event& y) { return x.t < y.t; });
  }
  return ev;
}

namespace {

std::string as_string(const std::vector<std::uint8_t>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

}  // namespace

PhaseStats run_phase(int port, const std::vector<Event>& events,
                     const std::vector<ServedSpec>& models, SwapState& swaps,
                     Tally& tally, double abandon_lag_s, int conns) {
  const bool accept_b = !swaps.on_b.empty();
  PhaseStats st;
  std::atomic<bool> abandon{false};
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const auto t0 = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
  const double t0_s = now_s() + 0.002;
  auto worker = [&] {
    HttpConn conn(port);
    PhaseStats mine;
    double ready = t0_s;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= events.size()) break;
      const Event& e = events[i];
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(e.t)));
      const double due = t0_s + e.t;
      const double start = now_s();
      if (abandon_lag_s > 0 && start - due > abandon_lag_s) abandon = true;
      if (abandon) break;
      // The generator's own lateness: a free connection's thread woke after
      // the request was due. Latency counts from the due time, except for
      // this part, which is the load generator's error, not the server's
      // (waiting for a busy connection still counts).
      const double own_late = std::max(0.0, start - std::max(due, ready));
      mine.gen_late_ms.push_back(own_late * 1e3);
      const ServedSpec& m = models[static_cast<std::size_t>(e.model)];
      Scope span(e.kind == Event::kInfer ? "http.infer" : "http.load", "server",
                 0, SpanLog::instance().next_id());
      if (e.kind == Event::kInfer) {
        const auto reply = conn.request("POST", "/v1/models/" + m.name + ":infer",
                                        infer_body(m, e.row0, e.rows));
        mine.lat_ms.push_back((now_s() - due - own_late) * 1e3);
        std::string why = "status " + std::to_string(reply.status) + ": " +
                          reply.body.substr(0, 200);
        int match = 0;
        if (reply.status == 200 &&
            check_logits(reply.body, m, e.row0, e.rows, accept_b, &why, &match)) {
          tally.ok();
          mine.rows_checked += static_cast<std::uint64_t>(e.rows);
          mine.top1_match += static_cast<std::uint64_t>(match);
        } else {
          tally.fail(m.name + " infer: " + why);
          ++mine.failed;
        }
      } else {
        const auto mi = static_cast<std::size_t>(e.model);
        bool delta = false;
        {
          std::lock_guard<std::mutex> lock(swaps.mu);
          delta = !swaps.on_b[mi];
        }
        const auto reply = conn.request(
            "POST", "/v1/models/" + m.name + ":load" + (delta ? "?base=" + m.name : ""),
            as_string(delta ? m.delta : m.a.container));
        mine.swap_ms.push_back((now_s() - start) * 1e3);
        if (tally.check(reply.status == 200,
                        m.name + (delta ? " delta" : " full") + " load: status " +
                            std::to_string(reply.status) + " " +
                            reply.body.substr(0, 200))) {
          std::lock_guard<std::mutex> lock(swaps.mu);
          swaps.on_b[mi] = delta;
        }
      }
      ready = now_s();
    }
    std::lock_guard<std::mutex> lock(mu);
    st.lat_ms.insert(st.lat_ms.end(), mine.lat_ms.begin(), mine.lat_ms.end());
    st.swap_ms.insert(st.swap_ms.end(), mine.swap_ms.begin(), mine.swap_ms.end());
    st.gen_late_ms.insert(st.gen_late_ms.end(), mine.gen_late_ms.begin(),
                          mine.gen_late_ms.end());
    st.failed += mine.failed;
    st.rows_checked += mine.rows_checked;
    st.top1_match += mine.top1_match;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  st.abandoned = abandon;
  return st;
}

double swap_interval_s(const Options& opt, const ServeConfig& cfg) {
  return 0.025 * opt.seconds / cfg.models;
}

std::vector<std::string> daemon_args(const std::vector<ServedSpec>& models,
                                     std::size_t budget_bytes, bool trace) {
  std::vector<std::string> args = {"--port", "0", "--cache-bytes",
                                   std::to_string(budget_bytes)};
  if (!trace) args.push_back("--no-trace");
  for (const auto& m : models) {
    args.push_back("--model");
    args.push_back(m.name + "=" + m.path);
  }
  return args;
}

deepsz::serve::ModelStoreOptions daemon_store_options() {
  deepsz::serve::ModelStoreOptions o;
  o.build_csr = true;
  o.native_form = true;
  return o;
}

namespace {

/// Bytes the models occupy fully decoded in the daemon's serving forms.
std::size_t working_set_bytes(const std::vector<ServedSpec>& models) {
  std::size_t total = 0;
  for (const auto& m : models) {
    deepsz::serve::ModelStore store(m.a.container, daemon_store_options());
    store.warmup();
    total += store.stats().cached_bytes;
  }
  return total;
}

}  // namespace

std::size_t cache_budget(const ServeConfig& cfg,
                         const std::vector<ServedSpec>& models) {
  const std::size_t working_set = working_set_bytes(models);
  const std::size_t budget =
      cfg.budget_frac > 0 ? static_cast<std::size_t>(working_set * cfg.budget_frac)
                          : 2 * working_set + (16u << 20);
  std::printf("%zu models, decoded working set %.2f MiB, cache budget %.2f MiB\n",
              models.size(), working_set / 1048576.0, budget / 1048576.0);
  return budget;
}


namespace {

constexpr double kRungLo = 50.0, kRungStep = 1.05, kRungHi = 20000.0;

/// One infer of every model with 16 rows: decodes every layer once.
void warm_models(int port, const std::vector<ServedSpec>& models, Tally& tally) {
  HttpConn conn(port);
  for (const auto& m : models) {
    const auto reply = conn.request("POST", "/v1/models/" + m.name + ":infer",
                                    infer_body(m, 0, 16));
    std::string why = "status " + std::to_string(reply.status);
    int match = 0;
    if (reply.status == 200 && check_logits(reply.body, m, 0, 16, false, &why, &match)) {
      tally.ok();
    } else {
      tally.fail(m.name + " warm-up: " + why);
    }
  }
}

}  // namespace

void run_serve(const Options& opt, Metrics& out, Tally& tally,
               std::vector<std::string>& notes) {
  const ServeConfig cfg = serve_config(opt.workload);
  auto models = make_served(opt.seed, cfg.models, cfg.sz_every, cfg.churn, opt.work);
  const std::size_t budget = cache_budget(cfg, models);

  // Set-up, three times: spawn -> every model loaded (-> cache warm).
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < 3; ++rep) {
    if (daemon) tally.check(daemon->stop() == 0, "daemon exit status after set-up");
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(opt.tool, daemon_args(models, budget, false),
                                      opt.work + "/daemon");
    if (!cfg.churn) warm_models(daemon->port(), models, tally);
    setup.push_back(now_s() - t0);
  }
  const int port = daemon->port();
  // Latency windows and ladder probes each last 5% of the run: two churn
  // swap cycles (every model loaded once per cycle), so each sees the
  // same swaps.
  const double window_s = 0.05 * opt.seconds;
  Traffic traffic(cfg, opt.seed, swap_interval_s(opt, cfg));
  SwapState swap_state;
  if (cfg.churn) swap_state.on_b.assign(models.size(), 0);

  // Prime (untimed): steady cache state and warm connections.
  run_phase(port, traffic.phase(cfg.lat_rate, window_s), models, swap_state, tally);

  // Latency at the fixed rate in ten windows, interleaved with the
  // max_rps ladder so a slow spell of the host touches few of them; p99 is
  // the median of the windows' p99s. Producer costs are sampled before each
  // window, spread over the run likewise.
  ProducerSamples producer;
  std::vector<double> lat_ms, gen_late_ms, window_p99, swaps;
  std::uint64_t rows_checked = 0, top1_match = 0;
  auto keep = [&](const PhaseStats& ps) {
    swaps.insert(swaps.end(), ps.swap_ms.begin(), ps.swap_ms.end());
    rows_checked += ps.rows_checked;
    top1_match += ps.top1_match;
  };
  auto latency_window = [&] {
    producer_samples(opt.seed, models, 0.2, producer);
    const auto ps = run_phase(port, traffic.phase(cfg.lat_rate, window_s), models,
                              swap_state, tally);
    window_p99.push_back(quantile(ps.lat_ms, 0.99));
    lat_ms.insert(lat_ms.end(), ps.lat_ms.begin(), ps.lat_ms.end());
    gen_late_ms.insert(gen_late_ms.end(), ps.gen_late_ms.begin(), ps.gen_late_ms.end());
    keep(ps);
  };

  // max_rps: binary search over a fixed ladder (adjacent rungs 5% apart).
  // A rung meets the SLO when one of two probes does, so one transient
  // stall of the host does not end the search early.
  std::vector<double> rungs;
  for (double r = kRungLo; r <= kRungHi; r *= kRungStep) rungs.push_back(r);
  auto probe = [&](double rate) {
    const auto ps = run_phase(port, traffic.phase(rate, window_s), models,
                              swap_state, tally, /*abandon_lag_s=*/0.25);
    keep(ps);
    const double p99 = quantile(ps.lat_ms, 0.99);
    const bool pass = !ps.abandoned && ps.failed == 0 && p99 <= cfg.slo_p99_ms;
    std::printf("  ladder %8.1f req/s: p99 %8.3f ms over %zu -> %s\n", rate, p99,
                ps.lat_ms.size(), pass ? "meets SLO" : "misses SLO");
    return pass;
  };
  constexpr int kWindows = 10;
  latency_window();
  std::size_t lo = 0, hi = rungs.size();
  for (int step = 1; hi - lo > 1; ++step) {
    const std::size_t mid = (lo + hi) / 2;
    (probe(rungs[mid]) || probe(rungs[mid]) ? lo : hi) = mid;
    if (window_p99.size() < kWindows) latency_window();
  }
  while (window_p99.size() < kWindows) latency_window();
  const double rss = daemon->rss_mb();
  {
    HttpConn conn(port);
    const auto m = conn.request("GET", "/metrics").body;
    const double hits = prom_sum(m, "deepsz_model_cache_hits");
    const double misses = prom_sum(m, "deepsz_model_cache_misses");
    std::printf("daemon layer cache: %.0f hits, %.0f misses (hit rate %.3f)\n",
                hits, misses, hits / std::max(1.0, hits + misses));
  }

  if (!cfg.churn) {
    // serve-warm swaps: full-container reloads, after all timed traffic.
    HttpConn conn(port);
    for (int i = 0; i < 12; ++i) {
      const auto& m = models[static_cast<std::size_t>(i % 2)];
      const double t0 = now_s();
      const auto reply = conn.request("POST", "/v1/models/" + m.name + ":load",
                                      as_string(m.a.container));
      swaps.push_back((now_s() - t0) * 1e3);
      tally.check(reply.status == 200, m.name + " reload: status " +
                                           std::to_string(reply.status));
    }
  }
  tally.check(daemon->stop() == 0, "daemon exit status after the run");

  const double late_p99 = quantile(gen_late_ms, 0.99);
  notes.push_back("generator_late_p99_ms=" + std::to_string(late_p99));
  if (late_p99 > 1.0) notes.push_back("INVALID: load generator fell behind");

  out.set("setup_s", median(setup), "s");
  out.set("p50_ms", quantile(lat_ms, 0.5), "ms");
  out.set("p99_ms", median(window_p99), "ms");
  out.set("max_rps", rungs[lo], "req/s");
  out.set("rss_mb", rss, "MiB");
  out.set("swap_p50_ms", median(swaps), "ms");
  std::vector<double> produce;
  for (std::size_t i = 0; i < producer.encode_s.size(); ++i) {
    produce.push_back(producer.synth_s[i] + producer.encode_s[i]);
  }
  out.set("compress_s", median(produce), "s");
  out.set("encode_s", median(producer.encode_s), "s");
  out.set("decode_ms", median(producer.decode_ms), "ms");
  out.set("ratio", container_ratio(models), "x");
  out.set("top1_pct",
          rows_checked ? 100.0 * static_cast<double>(top1_match) /
                             static_cast<double>(rows_checked)
                       : 0.0,
          "%");
  std::printf("latency windows: %zu requests at %.0f req/s, p99s (ms):",
              lat_ms.size(), cfg.lat_rate);
  for (double p : window_p99) std::printf(" %.2f", p);
  std::printf("; %zu swaps in total\n", swaps.size());
  std::printf("latency deciles (ms):");
  for (int d = 1; d <= 9; ++d) std::printf(" %.2f", quantile(lat_ms, d / 10.0));
  std::printf("\n");
}

}  // namespace pb
