#include "compress.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "compress/registry.h"
#include "compress/session.h"
#include "core/model_codec.h"
#include "core/pruner.h"
#include "data/weight_synthesis.h"
#include "modelzoo/paper_specs.h"
#include "modelzoo/pretrained.h"
#include "modelzoo/zoo.h"
#include "nn/layers.h"
#include "server/model_repository.h"
#include "sparse/pruning.h"

namespace pb {

namespace dz = deepsz;

namespace {

void install_masks(dz::nn::Network& net) {
  for (auto* d : net.dense_layers()) {
    std::vector<float> w(d->weight().flat().begin(), d->weight().flat().end());
    d->set_mask(dz::sparse::nonzero_mask(w));
  }
}

std::map<std::string, double> lenet_keep() {
  std::map<std::string, double> keep;
  for (const auto& fc : dz::modelzoo::paper_spec("lenet300").fc) {
    keep[fc.layer] = fc.keep_ratio;
  }
  return keep;
}

/// Output checks of one LeNet-300 session: top-1 drop within the budget,
/// every decoded layer within its chosen bound with its mask intact.
void check_lenet(const dz::compress::CompressionSession& session, Tally& tally,
                 std::vector<double>& top1) {
  const auto report = session.report();
  top1.push_back(100.0 * report.acc_decoded.top1);
  const double drop = report.acc_pruned.top1 - report.acc_decoded.top1;
  tally.check(drop <= kLenetBudget + 1e-12,
              "LeNet-300 top-1 drop " + std::to_string(100 * drop) +
                  "% exceeds the 0.2% budget");
  std::map<std::string, double> chosen;
  for (const auto& c : report.chosen.choices) chosen[c.layer] = c.eb;
  auto decoded = dz::core::decode_model(report.model.bytes, false);
  const auto& pruned = session.state().layers;
  tally.check(decoded.layers.size() == pruned.size() && chosen.size() == pruned.size(),
              "LeNet-300 container layer count");
  for (std::size_t i = 0; i < pruned.size() && i < decoded.layers.size(); ++i) {
    std::string why;
    tally.check(chosen.count(pruned[i].name) > 0 &&
                    within_bound(pruned[i], decoded.layers[i], chosen[pruned[i].name], &why),
                "LeNet-300 " + pruned[i].name + " " + why);
  }
}

}  // namespace

PrunedLenet load_pruned_lenet() {
  auto m = dz::modelzoo::pretrained("lenet300");
  PrunedLenet out;
  out.weights = dz::modelzoo::cache_dir() + "/perfbench_lenet300_pruned.weights";
  if (!std::filesystem::exists(out.weights)) {
    dz::core::PruneConfig cfg;
    cfg.keep_ratio = lenet_keep();
    cfg.retrain_epochs = 2;
    dz::core::prune_and_retrain(m.net, m.train.images, m.train.labels, cfg);
    m.net.save(out.weights);
  }
  out.train = std::move(m.train);
  out.test = std::move(m.test);
  return out;
}

dz::nn::Network pruned_lenet_net(const PrunedLenet& lenet) {
  auto net = dz::modelzoo::make_lenet300();
  net.load(lenet.weights);
  install_masks(net);
  return net;
}

std::vector<dz::sparse::PrunedLayer> alexnet_layers(std::uint64_t seed) {
  std::vector<dz::sparse::PrunedLayer> layers;
  std::uint64_t stream = 60;
  for (const auto& fc : dz::modelzoo::paper_spec("alexnet").fc) {
    layers.push_back(dz::data::synthesize_pruned_layer(
        fc.layer, fc.rows, fc.cols, fc.keep_ratio, sub_seed(seed, stream++)));
  }
  return layers;
}

std::map<std::string, double> alexnet_bounds() {
  std::map<std::string, double> ebs;
  for (const auto& fc : dz::modelzoo::paper_spec("alexnet").fc) {
    ebs[fc.layer] = fc.chosen_eb;
  }
  return ebs;
}

bool within_bound(const dz::sparse::PrunedLayer& original,
                  const dz::sparse::PrunedLayer& decoded, double eb,
                  std::string* why) {
  if (decoded.index != original.index) {
    *why = original.name + ": pruning mask (index array) not preserved";
    return false;
  }
  if (decoded.data.size() != original.data.size()) {
    *why = original.name + ": stored value count changed";
    return false;
  }
  // SZ's bound is exact in real arithmetic; allow float rounding of eb.
  const double limit = eb * (1.0 + 1e-6);
  for (std::size_t i = 0; i < original.data.size(); ++i) {
    const double err = std::fabs(static_cast<double>(decoded.data[i]) -
                                 static_cast<double>(original.data[i]));
    if (!(err <= limit)) {
      *why = original.name + ": |decoded - pruned| = " + std::to_string(err) +
             " > eb " + std::to_string(eb) + " at value " + std::to_string(i);
      return false;
    }
  }
  return true;
}

void run_compress(const Options& opt, Metrics& out, Tally& tally) {
  // Set-up, three times: zoo net + dataset loaded, AlexNet layers made.
  std::vector<double> setup;
  PrunedLenet lenet;
  std::vector<dz::sparse::PrunedLayer> alex;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    lenet = load_pruned_lenet();
    alex = alexnet_layers(opt.seed);
    setup.push_back(now_s() - t0);
  }
  const auto ebs = alexnet_bounds();
  std::size_t alex_dense = 0;
  for (const auto& l : alex) alex_dense += l.dense_bytes();

  std::vector<double> compress_s, encode_s, decode_ms, fetch_ms, swap_ms, top1;
  double ratio = 0.0;
  auto strategy = dz::compress::CompressorRegistry::instance().make("deepsz");
  const double start = now_s();
  double last_iter = 0.0;
  // One paper-scale encode per iteration (seconds); the cheaper operations
  // repeat inside it so every metric has several samples per run.
  do {
    const double it0 = now_s();
    for (int rep = 0; rep < 2; ++rep) {  // LeNet-300 at the 0.2% budget
      auto net = pruned_lenet_net(lenet);
      dz::compress::CompressSpec spec;
      spec.prune.keep_ratio = lenet_keep();
      spec.expected_acc_loss = kLenetBudget;
      dz::compress::CompressionSession session(
          strategy, net, lenet.train.images, lenet.train.labels,
          lenet.test.images, lenet.test.labels, spec);
      session.adopt_pruned();
      const double t0 = now_s();
      session.run_assess();
      session.run_optimize();
      session.run_encode();
      compress_s.push_back(now_s() - t0);
      check_lenet(session, tally, top1);
    }
    double t0 = now_s();
    const auto model = dz::core::encode_model(alex, ebs);
    encode_s.push_back(now_s() - t0);
    ratio = static_cast<double>(alex_dense) / static_cast<double>(model.bytes.size());
    for (int rep = 0; rep < 3; ++rep) {
      t0 = now_s();
      auto decoded = dz::core::decode_model(model.bytes, true);
      decode_ms.push_back((now_s() - t0) * 1e3);
      for (std::size_t i = 0; rep == 0 && i < alex.size(); ++i) {
        std::string why;
        tally.check(within_bound(alex[i], decoded.layers[i], ebs.at(alex[i].name), &why),
                    "AlexNet " + why);
      }
    }
    dz::core::ContainerReader reader(model.bytes);
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t i = 0; i < reader.num_layers(); ++i) {
        t0 = now_s();
        auto layer = reader.decode_layer(i);
        fetch_ms.push_back((now_s() - t0) * 1e3);
        tally.check(layer.index == alex[i].index, "AlexNet cold fetch of " + alex[i].name);
      }
    }
    {  // Swap-in: the container hot-loaded into a repository, serve-ready.
      dz::server::ModelRepository repo;
      t0 = now_s();
      repo.load("alexnet", model.bytes);
      repo.get("alexnet")->store->warmup();
      swap_ms.push_back((now_s() - t0) * 1e3);
    }
    last_iter = now_s() - it0;
  } while (now_s() - start + last_iter / 2 <= opt.seconds);

  double fetch_total = 0.0;
  for (double f : fetch_ms) fetch_total += f;
  out.set("setup_s", median(setup), "s");
  out.set("p50_ms", quantile(fetch_ms, 0.5), "ms");
  out.set("p99_ms", quantile(fetch_ms, 0.99), "ms");
  out.set("max_rps", 1e3 * static_cast<double>(fetch_ms.size()) / fetch_total, "req/s");
  out.set("rss_mb", vm_hwm_mb(), "MiB");
  out.set("swap_p50_ms", median(swap_ms), "ms");
  out.set("compress_s", median(compress_s), "s");
  out.set("encode_s", median(encode_s), "s");
  out.set("decode_ms", median(decode_ms), "ms");
  out.set("ratio", ratio, "x");
  out.set("top1_pct", median(top1), "%");
  std::printf("compress: %zu iterations in %.1f s\n", encode_s.size(), now_s() - start);
  auto samples = [](const char* what, const std::vector<double>& v) {
    std::printf("%s samples:", what);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  samples("encode_s", encode_s);
  samples("compress_s", compress_s);
  samples("decode_ms", decode_ms);
  samples("fetch_ms", fetch_ms);
  samples("swap_ms", swap_ms);
}

}  // namespace pb
