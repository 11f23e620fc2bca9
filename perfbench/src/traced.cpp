#include "traced.h"

#include <algorithm>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "compress.h"
#include "compress/registry.h"
#include "compress/session.h"
#include "core/accuracy.h"
#include "core/model_codec.h"
#include "http.h"
#include "lossless/codec.h"
#include "models.h"
#include "obs/trace.h"
#include "serve.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "serve/sparse_forward.h"
#include "server/model_repository.h"
#include "sz/sz.h"
#include "util/rng.h"

namespace pb {

namespace dz = deepsz;

namespace {

dz::nn::Tensor random_batch(int rows, std::int64_t cols, std::uint64_t seed) {
  dz::nn::Tensor x({rows, cols});
  dz::util::Pcg32 rng(seed);
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  return x;
}

/// Median milliseconds of `reps` spanned calls of `fn`.
template <typename Fn>
double median_ms(int reps, const char* name, const char* layer,
                 std::uint64_t parent, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(timed_ms(name, layer, parent, fn));
  return median(ms);
}

/// One "X" event of a Chrome trace document.
struct TraceEv {
  std::string name, detail;
  double ts = 0, dur = 0;  // microseconds
  std::uint64_t tid = 0;
};

std::vector<TraceEv> parse_chrome(const std::string& doc) {
  std::vector<TraceEv> out;
  auto field = [&](std::size_t from, std::size_t to, const char* key) {
    const std::string k = std::string("\"") + key + "\":";
    const auto p = doc.find(k, from);
    return p == std::string::npos || p >= to ? std::string::npos : p + k.size();
  };
  std::size_t pos = 0;
  while ((pos = doc.find("{\"name\":\"", pos)) != std::string::npos) {
    const std::size_t end = doc.find('}', doc.find("\"args\":{", pos) + 8);
    TraceEv e;
    const auto n0 = pos + 9;
    e.name = doc.substr(n0, doc.find('"', n0) - n0);
    if (auto p = field(pos, end, "ts"); p != std::string::npos) e.ts = std::stod(doc.substr(p, 32));
    if (auto p = field(pos, end, "dur"); p != std::string::npos) e.dur = std::stod(doc.substr(p, 32));
    if (auto p = field(pos, end, "tid"); p != std::string::npos) e.tid = std::stoull(doc.substr(p, 32));
    if (auto p = field(pos, end, "detail"); p != std::string::npos) {
      e.detail = doc.substr(p + 1, doc.find('"', p + 1) - p - 1);
    }
    out.push_back(std::move(e));
    pos = end;
  }
  return out;
}

/// Server::handle minus its scheduler wait, per infer request: an
/// http_dispatch span less the gap between its http_parse child's end and
/// its serialize child's start (the connection thread blocked on the
/// scheduler), all on one thread.
std::vector<double> handle_self_ms(const std::vector<TraceEv>& ev) {
  std::vector<double> out;
  for (const auto& d : ev) {
    if (d.name != "http_dispatch" || d.detail.find(":infer") == std::string::npos) continue;
    const TraceEv* parse = nullptr;
    const TraceEv* ser = nullptr;
    for (const auto& c : ev) {
      if (c.tid != d.tid || c.ts < d.ts || c.ts + c.dur > d.ts + d.dur + 1e-3) continue;
      if (c.name == "http_parse") parse = &c;
      if (c.name == "serialize") ser = &c;
    }
    if (parse == nullptr || ser == nullptr) continue;
    const double wait = ser->ts - (parse->ts + parse->dur);
    out.push_back((d.dur - std::max(0.0, wait)) / 1e3);
  }
  return out;
}

std::string http_get(int port, const std::string& target) {
  HttpConn conn(port);
  const auto r = conn.request("GET", target);
  if (r.status != 200) throw std::runtime_error("GET " + target + " failed");
  return r.body;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

// --------------------------------------------------------------- server
/// The daemon with tracing on: scheduler counters from /metrics, the
/// handle self time from /v1/trace, and the tracing overhead against the
/// same traffic on a --no-trace daemon.
void daemon_probe(const Options& opt, const ServeConfig& cfg,
                  const std::vector<ServedSpec>& models, std::size_t budget,
                  Metrics& out, Tally& tally) {
  const double replay_s = std::max(1.0, 0.1 * opt.seconds);
  std::vector<double> p50[2];
  std::string metrics_text, trace_json;
  for (int round = 0; round < 4; ++round) {
    const bool trace = round % 2 == 1;
    Daemon d(opt.tool, daemon_args(models, budget, trace), opt.work + "/daemon");
    Traffic traffic(cfg, opt.seed, swap_interval_s(opt, cfg));
    SwapState swaps;
    if (cfg.churn) swaps.on_b.assign(models.size(), 0);
    run_phase(d.port(), traffic.phase(cfg.lat_rate, 0.3), models, swaps, tally);
    Scope span(trace ? "replay.traced_daemon" : "replay.untraced_daemon", "bench");
    auto ps = run_phase(d.port(), traffic.phase(cfg.lat_rate, replay_s), models,
                        swaps, tally);
    p50[trace ? 1 : 0].push_back(quantile(ps.lat_ms, 0.5));
    if (round == 3) {
      metrics_text = http_get(d.port(), "/metrics");
      trace_json = http_get(d.port(), "/v1/trace");
    }
    tally.check(d.stop() == 0, "daemon exit status");
  }
  write_file(opt.work + "/daemon_trace.json", trace_json);
  const double off = median(p50[0]), on = median(p50[1]);
  out.set("trace.overhead_pct", 100.0 * (on - off) / off, "%");
  std::printf("tracing overhead: daemon p50 %.4f ms traced vs %.4f ms untraced\n",
              on, off);

  const auto self = handle_self_ms(parse_chrome(trace_json));
  out.set("server.handle_self_ms.p50", quantile(self, 0.5), "ms");
  out.set("server.handle_self_ms.p99", quantile(self, 0.99), "ms");
  auto q = [&](const char* fam, const char* labels) {
    return prom_sum(metrics_text, fam, labels);
  };
  out.set("scheduler.queue_wait_ms.p50", q("deepsz_queue_wait_ms", "outcome=\"ok\",quantile=\"0.5\""), "ms");
  out.set("scheduler.queue_wait_ms.p99", q("deepsz_queue_wait_ms", "outcome=\"ok\",quantile=\"0.99\""), "ms");
  out.set("scheduler.execute_ms.p50", q("deepsz_execute_ms", "quantile=\"0.5\""), "ms");
  out.set("scheduler.execute_ms.p99", q("deepsz_execute_ms", "quantile=\"0.99\""), "ms");
  out.set("scheduler.batch_rows.mean", q("deepsz_mean_batch_rows", ""), "rows");
  const double all = q("deepsz_requests_total", "");
  out.set("scheduler.shed_frac",
          all > 0 ? q("deepsz_requests_total", "status=\"overloaded\"") / all : 0.0,
          "frac");
  const double hits = q("deepsz_model_cache_hits", "");
  const double misses = q("deepsz_model_cache_misses", "");
  const double coalesced = q("deepsz_model_cache_coalesced", "");
  out.set("store.hit_rate", (hits + coalesced) / std::max(1.0, hits + misses + coalesced), "frac");
  out.set("store.evictions", q("deepsz_model_cache_evictions", ""), "count");
  out.set("store.coalesced", coalesced, "count");
  out.set("store.form_bytes.dense_f32", q("deepsz_model_cache_resident_bytes_form", "form=\"dense-f32\""), "B");
  out.set("store.form_bytes.sparse_csr", q("deepsz_model_cache_resident_bytes_form", "form=\"sparse-csr\""), "B");
  out.set("store.form_bytes.codebook_csr", q("deepsz_model_cache_resident_bytes_form", "form=\"codebook-csr\""), "B");
  out.set("budget.resident_bytes", q("deepsz_cache_used_bytes", ""), "B");
}

/// ModelRepository::load of a full container and of the B delta, each to
/// serve-ready (every layer decoded).
void repository_probe(const std::vector<ServedSpec>& models, std::size_t budget,
                      Metrics& out, Tally& tally) {
  Scope root("repository_probe", "bench");
  dz::server::ModelRepository repo(budget);
  std::vector<double> full, delta;
  double shipped = 0;
  const ServedSpec& m = models.front();
  for (int i = 0; i < 8; ++i) {
    full.push_back(timed_ms("repository.load.full", "server", root.id(), [&] {
      repo.load(m.name, m.a.container);
      repo.get(m.name)->store->warmup();
    }));
    delta.push_back(timed_ms("repository.load.delta", "server", root.id(), [&] {
      repo.load(m.name, m.delta, "", m.name);
      repo.get(m.name)->store->warmup();
    }));
    shipped = static_cast<double>(repo.get(m.name)->shipped_bytes);
    tally.check(shipped == static_cast<double>(m.delta.size()),
                "delta load ships exactly the delta container");
  }
  out.set("repository.load_ms.full.p50", median(full), "ms");
  out.set("repository.load_ms.delta.p50", median(delta), "ms");
  out.set("repository.shipped_bytes.delta", shipped, "B");
}

// ---------------------------------------------------------------- serve
/// Cold ModelStore::get per layer of the sz model, and the decode phases.
void store_probe(const ServedSpec& m, Metrics& out) {
  Scope root("store_probe", "bench");
  std::map<std::string, std::vector<double>> cold;
  std::vector<double> lossless, eb, recon;
  for (int trial = 0; trial < 10; ++trial) {
    dz::serve::ModelStore store(m.a.container, daemon_store_options());
    for (const char* layer : {"fc6", "fc7", "fc8"}) {
      cold[layer].push_back(
          timed_ms("store.get.cold", "serve", root.id(), [&] { store.get(layer); }));
    }
    const auto s = store.stats();
    lossless.push_back(s.lossless_ms);
    eb.push_back(s.eb_decode_ms);
    recon.push_back(s.reconstruct_ms);
  }
  for (auto& [layer, v] : cold) out.set("store.cold_get_ms." + layer, median(v), "ms");
  out.set("store.phase_ms.lossless", median(lossless), "ms");
  out.set("store.phase_ms.eb_decode", median(eb), "ms");
  out.set("store.phase_ms.reconstruct", median(recon), "ms");
}

/// The workload's request stream replayed in process through the
/// repository, store and forward, one parent span per request.
void replay_probe(const Options& opt, const ServeConfig& cfg,
                  const std::vector<ServedSpec>& models, std::size_t budget,
                  Tally& tally) {
  dz::server::ModelRepository repo(budget);
  for (const auto& m : models) repo.load(m.name, m.a.container);
  std::vector<char> on_b(models.size(), 0);
  Traffic traffic(cfg, opt.seed, swap_interval_s(opt, cfg));
  const auto events = traffic.phase(cfg.lat_rate, std::max(1.0, 0.1 * opt.seconds));
  std::uint64_t request = 0;
  for (const auto& e : events) {
    const ServedSpec& m = models[static_cast<std::size_t>(e.model)];
    Scope req("request", "bench", 0, ++request);
    if (e.kind == Event::kLoad) {
      auto& b = on_b[static_cast<std::size_t>(e.model)];
      Scope load(b ? "repository.load.full" : "repository.load.delta", "server",
                 req.id(), request);
      if (b) {
        repo.load(m.name, m.a.container);
      } else {
        repo.load(m.name, m.delta, "", m.name);
      }
      b = !b;
      continue;
    }
    auto served = repo.get(m.name);
    std::vector<std::shared_ptr<const dz::serve::ServedLayer>> pinned;
    for (const char* layer : {"fc6", "fc7", "fc8"}) {
      Scope get("store.get", "serve", req.id(), request);
      pinned.push_back(served->store->get(layer));
    }
    dz::nn::Tensor x({e.rows, m.in});
    std::copy_n(m.pool.data() + static_cast<std::size_t>(e.row0) * m.in,
                static_cast<std::size_t>(e.rows) * m.in, x.data());
    auto net = served->make_network();
    dz::serve::InferenceSession session(*served->store, net);
    session.enable_sparse_forward(true);
    dz::nn::Tensor y;
    {
      Scope fwd("forward", "serve", req.id(), request);
      y = session.infer(x);
    }
    std::string body(8, '\0');
    const std::uint32_t dims[2] = {static_cast<std::uint32_t>(e.rows),
                                   static_cast<std::uint32_t>(m.out)};
    std::memcpy(body.data(), dims, 8);
    body.append(reinterpret_cast<const char*>(y.data()),
                static_cast<std::size_t>(y.numel()) * sizeof(float));
    std::string why;
    int match = 0;
    tally.check(check_logits(body, m, e.row0, e.rows, cfg.churn, &why, &match),
                "in-process replay: " + why);
  }
}

/// Forward kernels on warm stores: the three serving forms at batch 1, 4
/// and 16 over the whole stack, and each layer alone at batch 16.
void forward_probe(const std::vector<ServedSpec>& models, Metrics& out,
                   std::uint64_t seed) {
  Scope root("forward_probe", "bench");
  const ServedSpec& sz = models[0];
  const ServedSpec& dc = models[1];
  dz::serve::ModelStore sz_store(sz.a.container, daemon_store_options());
  dz::serve::ModelStore dc_store(dc.a.container, daemon_store_options());
  sz_store.warmup();
  dc_store.warmup();
  auto layers = [](dz::serve::ModelStore& s) {
    std::vector<std::shared_ptr<const dz::serve::ServedLayer>> v;
    for (const char* l : {"fc6", "fc7", "fc8"}) v.push_back(s.get(l));
    return v;
  };
  const auto sz_layers = layers(sz_store);
  const auto dc_layers = layers(dc_store);
  auto dense_net = dz::serve::make_fc_network(sz_store.reader());
  for (int b : {1, 4, 16}) {
    const int reps = b == 16 ? 60 : 150;
    const auto x = random_batch(b, sz.in, sub_seed(seed, 500 + b));
    const std::string suffix = ".b" + std::to_string(b);
    out.set("forward_ms.sparse_csr" + suffix,
            median_ms(reps, "forward.sparse_csr", "serve", root.id(),
                      [&] { dz::serve::sparse_fc_forward(sz_layers, x); }),
            "ms");
    out.set("forward_ms.codebook_csr" + suffix,
            median_ms(reps, "forward.codebook_csr", "serve", root.id(),
                      [&] { dz::serve::sparse_fc_forward(dc_layers, x); }),
            "ms");
    dz::serve::InferenceSession session(sz_store, dense_net);
    session.enable_sparse_forward(false);
    out.set("forward_ms.dense" + suffix,
            median_ms(reps, "forward.dense", "serve", root.id(),
                      [&] { session.infer(x); }),
            "ms");
  }
  for (std::size_t i = 0; i < sz_layers.size(); ++i) {
    const auto x = random_batch(16, sz_layers[i]->cols, sub_seed(seed, 600 + i));
    out.set("forward_ms." + sz_layers[i]->name + ".b16",
            median_ms(60, "forward.layer", "serve", root.id(),
                      [&] { dz::serve::sparse_fc_forward({sz_layers[i]}, x); }),
            "ms");
  }
}

// --------------------------------------------------- core, sz, lossless
/// Per-layer container, SZ and lossless-index codec costs.
void codec_probe(const std::vector<dz::sparse::PrunedLayer>& layers,
                 const std::map<std::string, double>& ebs, int reps,
                 Metrics& out) {
  Scope root("codec_probe", "bench");
  double index_bytes = 0;
  for (const auto& l : layers) {
    const double eb = ebs.at(l.name);
    std::vector<std::uint8_t> container;
    out.set("codec.encode_ms." + l.name,
            median_ms(reps, "encode_model", "core", root.id(), [&] {
              container = dz::core::encode_model({l}, {{l.name, eb}}).bytes;
            }),
            "ms");
    dz::core::ContainerReader reader(container);
    out.set("codec.decode_ms." + l.name,
            median_ms(reps, "decode_layer", "core", root.id(),
                      [&] { reader.decode_layer(std::size_t{0}); }),
            "ms");

    dz::sz::SzParams params;
    params.error_bound = eb;
    std::vector<std::uint8_t> stream;
    const double mb = static_cast<double>(l.data.size() * sizeof(float)) / 1e6;
    const double enc = median_ms(reps, "sz.compress", "sz", root.id(),
                                 [&] { stream = dz::sz::compress(l.data, params); });
    const double dec = median_ms(reps, "sz.decompress", "sz", root.id(),
                                 [&] { dz::sz::decompress(stream); });
    out.set("sz.encode_mbps." + l.name, mb / (enc / 1e3), "MB/s");
    out.set("sz.decode_mbps." + l.name, mb / (dec / 1e3), "MB/s");

    std::vector<std::uint8_t> frame;
    out.set("lossless.encode_ms." + l.name + ".index",
            median_ms(reps, "lossless.compress", "lossless", root.id(), [&] {
              frame = dz::lossless::compress(dz::lossless::CodecId::kZstdLike, l.index);
            }),
            "ms");
    out.set("lossless.decode_ms." + l.name + ".index",
            median_ms(reps, "lossless.decompress", "lossless", root.id(),
                      [&] { dz::lossless::decompress(frame); }),
            "ms");
    index_bytes += static_cast<double>(frame.size());
  }
  out.set("lossless.index_bytes_out", index_bytes, "B");
}

// ------------------------------------------------------------- compress
/// CompressionSession stages on the pruned LeNet-300, and one accuracy
/// oracle evaluation.
void session_probe(Metrics& out, Tally& tally) {
  Scope root("session_probe", "bench");
  const auto lenet = load_pruned_lenet();
  auto net = pruned_lenet_net(lenet);
  dz::compress::CompressSpec spec;
  spec.expected_acc_loss = kLenetBudget;
  dz::compress::CompressionSession session(
      dz::compress::CompressorRegistry::instance().make("deepsz"), net,
      lenet.train.images, lenet.train.labels, lenet.test.images,
      lenet.test.labels, spec);
  session.adopt_pruned();
  out.set("session.assess_s",
          timed_ms("session.assess", "compress", root.id(), [&] { session.run_assess(); }) / 1e3,
          "s");
  out.set("session.optimize_ms",
          timed_ms("session.optimize", "compress", root.id(), [&] { session.run_optimize(); }),
          "ms");
  out.set("session.encode_s",
          timed_ms("session.encode", "compress", root.id(), [&] { session.run_encode(); }) / 1e3,
          "s");
  double tests = 0;
  for (const auto& a : session.state().assessments) tests += static_cast<double>(a.points.size());
  out.set("assess.tests", tests, "count");
  const auto report = session.report();
  tally.check(report.acc_pruned.top1 - report.acc_decoded.top1 <= kLenetBudget + 1e-12,
              "LeNet-300 top-1 drop within the 0.2% budget");

  auto fresh = pruned_lenet_net(lenet);
  dz::core::CachedHeadOracle oracle(fresh, lenet.test.images, lenet.test.labels);
  out.set("oracle.eval_ms",
          median_ms(5, "oracle.top1", "core", root.id(), [&] { oracle.top1(); }), "ms");
}

/// Library tracing cost on the cold decode path (ModelStore::get emits
/// decode spans): a warm-up of the AlexNet container with obs tracing on
/// and off, alternated.
void compress_overhead(const std::vector<dz::sparse::PrunedLayer>& layers,
                       Metrics& out) {
  const auto model = dz::core::encode_model(layers, alexnet_bounds());
  std::vector<double> ms[2];
  for (int round = -1; round < 6; ++round) {  // round -1 pays first touches
    const bool on = round % 2 == 1;
    dz::obs::Tracer::set_enabled(on);
    dz::serve::ModelStore store(model.bytes, daemon_store_options());
    const double t = timed_ms("warmup", "serve", 0, [&] { store.warmup(); });
    if (round >= 0) ms[on].push_back(t);
  }
  dz::obs::Tracer::set_enabled(false);
  const double off = median(ms[0]), on = median(ms[1]);
  out.set("trace.overhead_pct", 100.0 * (on - off) / off, "%");
  std::printf("tracing overhead: AlexNet warm-up %.2f ms traced vs %.2f ms untraced\n",
              on, off);
}

}  // namespace

void run_traced(const Options& opt, Metrics& out, Tally& tally,
                std::vector<std::string>& notes) {
  auto& log = SpanLog::instance();
  log.enable(true);
  const bool compress = opt.workload == "compress";
  // The serving layers are measured on the workload's own traffic; the
  // compress workload, which serves nothing, uses serve-warm's shape.
  const ServeConfig cfg = serve_config(compress ? "serve-warm" : opt.workload);
  const auto models = make_served(opt.seed, cfg.models, cfg.sz_every, true, opt.work);
  const std::size_t budget = cache_budget(cfg, models);

  // Daemon first: its overhead comparison wants an otherwise idle process.
  daemon_probe(opt, cfg, models, budget, out, tally);
  repository_probe(models, budget, out, tally);
  store_probe(models[0], out);
  replay_probe(opt, cfg, models, budget, tally);
  forward_probe(models, out, opt.seed);
  if (compress) {
    const auto alex = alexnet_layers(opt.seed);
    codec_probe(alex, alexnet_bounds(), 1, out);
    log.enable(false);
    compress_overhead(alex, out);
    log.enable(true);
  } else {
    codec_probe(make_stack_layers(sub_seed(opt.seed, 1000)), stack_bounds(), 5, out);
  }
  session_probe(out, tally);

  const auto self = log.self_ms_by_layer();
  std::printf("\nper-layer self time (ms) over %zu spans:\n", log.size());
  for (const char* layer : kLayers) {
    std::printf("  %-10s %12.3f\n", layer, self.at(layer));
    out.set(std::string("self_ms.") + layer, self.at(layer), "ms");
  }
  write_file(opt.work + "/bench_trace.json", log.chrome_json());
  notes.push_back("bench_trace=" + opt.work + "/bench_trace.json");
  notes.push_back("daemon_trace=" + opt.work + "/daemon_trace.json");
}

}  // namespace pb
