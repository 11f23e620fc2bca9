#include "models.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common.h"
#include "core/delta_codec.h"
#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "util/rng.h"

namespace pb {

RefNet::RefNet(const std::vector<sparse::PrunedLayer>& layers,
               const std::map<std::string, std::vector<float>>& biases) {
  for (const auto& pl : layers) {
    Layer l;
    l.rows = static_cast<int>(pl.rows);
    l.cols = static_cast<int>(pl.cols);
    const auto dense = pl.to_dense();
    l.rowptr.push_back(0);
    for (int r = 0; r < l.rows; ++r) {
      for (int c = 0; c < l.cols; ++c) {
        const float w = dense[static_cast<std::size_t>(r) * l.cols + c];
        if (w != 0.0f) {
          l.col.push_back(static_cast<std::uint32_t>(c));
          l.val.push_back(w);
        }
      }
      l.rowptr.push_back(static_cast<std::uint32_t>(l.col.size()));
    }
    auto it = biases.find(pl.name);
    l.bias = it != biases.end() ? it->second
                                : std::vector<float>(static_cast<std::size_t>(l.rows), 0.0f);
    layers_.push_back(std::move(l));
  }
}

std::vector<double> RefNet::forward(const float* x, int rows) const {
  std::vector<double> cur(x, x + static_cast<std::size_t>(rows) * in_features());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& l = layers_[li];
    std::vector<double> next(static_cast<std::size_t>(rows) * l.rows);
    for (int b = 0; b < rows; ++b) {
      const double* in = cur.data() + static_cast<std::size_t>(b) * l.cols;
      for (int r = 0; r < l.rows; ++r) {
        double acc = l.bias[static_cast<std::size_t>(r)];
        for (std::uint32_t k = l.rowptr[r]; k < l.rowptr[r + 1]; ++k) {
          acc += static_cast<double>(l.val[k]) * in[l.col[k]];
        }
        if (li + 1 < layers_.size() && acc < 0.0) acc = 0.0;
        next[static_cast<std::size_t>(b) * l.rows + r] = acc;
      }
    }
    cur.swap(next);
  }
  return cur;
}

std::vector<sparse::PrunedLayer> make_stack_layers(std::uint64_t seed) {
  std::vector<sparse::PrunedLayer> layers;
  layers.push_back(deepsz::data::synthesize_pruned_layer("fc6", 512, 1152, 0.09,
                                                 sub_seed(seed, 6)));
  layers.push_back(deepsz::data::synthesize_pruned_layer("fc7", 512, 512, 0.09,
                                                 sub_seed(seed, 7)));
  layers.push_back(deepsz::data::synthesize_pruned_layer("fc8", 125, 512, 0.25,
                                                 sub_seed(seed, 8)));
  return layers;
}

std::map<std::string, std::vector<float>> make_biases(
    const std::vector<sparse::PrunedLayer>& layers, std::uint64_t seed) {
  std::map<std::string, std::vector<float>> biases;
  deepsz::util::Pcg32 rng(sub_seed(seed, 99));
  for (const auto& l : layers) {
    auto& b = biases[l.name];
    b.resize(static_cast<std::size_t>(l.rows));
    for (auto& v : b) v = static_cast<float>(0.01 * rng.normal());
  }
  return biases;
}

std::map<std::string, double> stack_bounds() {
  return {{"fc6", 7e-3}, {"fc7", 7e-3}, {"fc8", 5e-3}};
}

namespace {

std::vector<std::uint8_t> encode_stack(
    const std::vector<sparse::PrunedLayer>& layers,
    const std::map<std::string, std::vector<float>>& biases,
    const std::string& codec, bool parallel = true) {
  deepsz::core::ContainerOptions opts;
  opts.parallel = parallel;
  if (codec == "dc") {
    opts.data_codec = "dc:bits=5,iters=8";
    opts.index_codec = "huffman";
  }
  return deepsz::core::encode_model(layers, stack_bounds(), opts, biases).bytes;
}

Version make_version(const std::vector<sparse::PrunedLayer>& layers,
                     const std::map<std::string, std::vector<float>>& biases,
                     std::vector<std::uint8_t> container,
                     const std::vector<float>& pool) {
  Version v;
  v.container = std::move(container);
  const auto decoded = deepsz::core::decode_model(v.container, false);
  RefNet ref(decoded.layers, decoded.biases);
  v.ref = ref.forward(pool.data(), kPoolRows);
  RefNet orig(layers, biases);
  const auto logits = orig.forward(pool.data(), kPoolRows);
  const int out = orig.out_features();
  for (int r = 0; r < kPoolRows; ++r) {
    const double* row = logits.data() + static_cast<std::size_t>(r) * out;
    int best = 0;
    for (int j = 1; j < out; ++j) best = row[j] > row[best] ? j : best;
    v.top1_orig.push_back(best);
  }
  return v;
}

}  // namespace

std::vector<ServedSpec> make_served(std::uint64_t seed, int n, int sz_every,
                                    bool with_b, const std::string& dir) {
  std::vector<ServedSpec> models;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t ms = sub_seed(seed, 1000 + static_cast<std::uint64_t>(i));
    ServedSpec m;
    m.name = "m" + std::to_string(i);
    m.codec = i % sz_every == 0 ? "sz" : "dc";

    auto layers = make_stack_layers(ms);
    auto biases = make_biases(layers, ms);
    auto a_bytes = encode_stack(layers, biases, m.codec);
    m.in = static_cast<int>(layers.front().cols);
    m.out = static_cast<int>(layers.back().rows);
    deepsz::util::Pcg32 rng(sub_seed(ms, 5));
    m.pool.resize(static_cast<std::size_t>(kPoolRows) * m.in);
    for (auto& v : m.pool) v = static_cast<float>(rng.normal());
    for (const auto& l : layers) m.dense_bytes += l.dense_bytes();
    m.a = make_version(layers, biases, std::move(a_bytes), m.pool);

    if (with_b) {
      // Head-only fine-tune: every surviving fc8 weight moves by ~1%, the
      // mask (and fc6/fc7) stay as they are.
      auto tuned = layers;
      deepsz::util::Pcg32 trng(sub_seed(ms, 11));
      for (auto& w : tuned.back().data) {
        if (w != 0.0f) w *= static_cast<float>(1.0 + 0.01 * trng.normal());
      }
      auto b_bytes = encode_stack(tuned, biases, m.codec);
      deepsz::core::DeltaOptions dopts;
      dopts.base_id = m.name;
      m.delta = deepsz::core::encode_delta_model(m.a.container, b_bytes, dopts).bytes;
      m.b = make_version(tuned, biases, std::move(b_bytes), m.pool);
    }

    m.path = dir + "/" + m.name + ".dszc";
    std::ofstream f(m.path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(m.a.container.data()),
            static_cast<std::streamsize>(m.a.container.size()));
    if (!f) throw std::runtime_error("cannot write " + m.path);
    models.push_back(std::move(m));
  }
  return models;
}

void producer_samples(std::uint64_t seed, const std::vector<ServedSpec>& models,
                      double min_seconds, ProducerSamples& out) {
  const double start = now_s();
  do {
    double s = 0, e = 0;
    for (std::size_t i = 0; i < models.size(); ++i) {
      const std::uint64_t ms = sub_seed(seed, 1000 + i);
      double t0 = now_s();
      auto layers = make_stack_layers(ms);
      auto biases = make_biases(layers, ms);
      s += now_s() - t0;
      t0 = now_s();
      encode_stack(layers, biases, models[i].codec, /*parallel=*/false);
      e += now_s() - t0;
    }
    out.synth_s.push_back(s);
    out.encode_s.push_back(e);
    constexpr int kDecodeReps = 3;  // a longer sample averages out jitter
    const double t0 = now_s();
    for (int rep = 0; rep < kDecodeReps; ++rep) {
      for (const auto& m : models) {
        deepsz::core::decode_model(m.a.container, false, /*parallel=*/false);
      }
    }
    out.decode_ms.push_back((now_s() - t0) * 1e3 /
                            static_cast<double>(kDecodeReps * models.size()));
  } while (now_s() - start < min_seconds);
}

double container_ratio(const std::vector<ServedSpec>& models) {
  std::size_t dense = 0, bytes = 0;
  for (const auto& m : models) {
    dense += m.dense_bytes;
    bytes += m.a.container.size();
  }
  return static_cast<double>(dense) / static_cast<double>(bytes);
}

std::string infer_body(const ServedSpec& m, int row0, int rows) {
  std::string body(8 + static_cast<std::size_t>(rows) * m.in * sizeof(float), '\0');
  const std::uint32_t r = static_cast<std::uint32_t>(rows);
  const std::uint32_t c = static_cast<std::uint32_t>(m.in);
  std::memcpy(body.data(), &r, 4);
  std::memcpy(body.data() + 4, &c, 4);
  std::memcpy(body.data() + 8, m.pool.data() + static_cast<std::size_t>(row0) * m.in,
              static_cast<std::size_t>(rows) * m.in * sizeof(float));
  return body;
}

bool check_logits(const std::string& body, const ServedSpec& m, int row0,
                  int rows, bool accept_b, std::string* why,
                  int* top1_match) {
  const std::size_t want = 8 + static_cast<std::size_t>(rows) * m.out * sizeof(float);
  if (body.size() != want) {
    *why = "body of " + std::to_string(body.size()) + " bytes, want " +
           std::to_string(want);
    return false;
  }
  std::uint32_t r = 0, c = 0;
  std::memcpy(&r, body.data(), 4);
  std::memcpy(&c, body.data() + 4, 4);
  if (static_cast<int>(r) != rows || static_cast<int>(c) != m.out) {
    *why = "shape " + std::to_string(r) + "x" + std::to_string(c);
    return false;
  }
  std::vector<float> got(static_cast<std::size_t>(rows) * m.out);
  std::memcpy(got.data(), body.data() + 8, got.size() * sizeof(float));
  *top1_match = 0;
  for (int i = 0; i < rows; ++i) {
    const float* g = got.data() + static_cast<std::size_t>(i) * m.out;
    bool matched = false;
    for (const Version* v : {&m.a, &m.b}) {
      if (v == &m.b && !accept_b) continue;
      const double* ref = v->ref.data() + static_cast<std::size_t>(row0 + i) * m.out;
      double scale = 1e-3;
      for (int j = 0; j < m.out; ++j) scale = std::max(scale, std::fabs(ref[j]));
      bool ok = true;
      for (int j = 0; j < m.out && ok; ++j) {
        ok = std::isfinite(g[j]) && std::fabs(g[j] - ref[j]) <= 1e-5 * scale;
      }
      if (!ok) continue;
      matched = true;
      int best = 0;
      for (int j = 1; j < m.out; ++j) best = g[j] > g[best] ? j : best;
      *top1_match += best == v->top1_orig[static_cast<std::size_t>(row0 + i)];
      break;
    }
    if (!matched) {
      *why = m.name + " row " + std::to_string(row0 + i) +
             " differs from the reference forward by more than 1e-5 relative";
      return false;
    }
  }
  return true;
}

}  // namespace pb
