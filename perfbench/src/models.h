// Seeded inputs of the serving workloads: 1/8-scale AlexNet fc stacks
// (fc6 512x1152, fc7 512x512, fc8 125x512), their containers, request rows,
// and the reference forwards every response is checked against.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sparse/pruned_layer.h"

namespace pb {

namespace sparse = deepsz::sparse;

inline constexpr int kPoolRows = 256;  // distinct input rows per model
inline constexpr int kRowChoices[] = {1, 2, 4, 8, 16};

/// A reference forward in double precision over CSR copies of the weights:
/// ReLU between layers, none after the last, bias added per layer.
class RefNet {
 public:
  RefNet(const std::vector<sparse::PrunedLayer>& layers,
         const std::map<std::string, std::vector<float>>& biases);
  /// rows x out_features logits for rows x in_features inputs.
  std::vector<double> forward(const float* x, int rows) const;
  int in_features() const { return layers_.front().cols; }
  int out_features() const { return layers_.back().rows; }

 private:
  struct Layer {
    int rows = 0, cols = 0;
    std::vector<std::uint32_t> rowptr, col;
    std::vector<float> val, bias;
  };
  std::vector<Layer> layers_;
};

/// One version of a served model.
struct Version {
  std::vector<std::uint8_t> container;  // full DSZC container
  std::vector<double> ref;              // kPoolRows x out, decoded weights
  std::vector<int> top1_orig;           // per pool row, uncompressed weights
};

/// One served model: version A is what the daemon starts with; B is a
/// head-only fine-tune of A (fc8 changed), shipped as `delta` against A.
struct ServedSpec {
  std::string name;
  std::string codec;  // "sz" (dense + sparse-CSR) or "dc" (codebook-CSR)
  int in = 0, out = 0;
  std::vector<float> pool;  // kPoolRows x in request rows
  Version a, b;
  std::vector<std::uint8_t> delta;  // DSZC v4 delta, B against A
  std::string path;                 // A's container on disk
  std::size_t dense_bytes = 0;      // f32 bytes of the pruned layers
};

/// Producer-side costs of a workload's base (A) containers, one sample
/// per pass over every model.
struct ProducerSamples {
  std::vector<double> synth_s;    // synthesize every model's layers
  std::vector<double> encode_s;   // encode_model of every model
  std::vector<double> decode_ms;  // decode_model of one container, averaged
};

/// The three pruned layers of one stack, synthesized from `seed`.
std::vector<sparse::PrunedLayer> make_stack_layers(std::uint64_t seed);
std::map<std::string, std::vector<float>> make_biases(
    const std::vector<sparse::PrunedLayer>& layers, std::uint64_t seed);
/// Error bounds of the sz stacks: the paper's AlexNet fc choices.
std::map<std::string, double> stack_bounds();

/// Builds `n` models named m0..m{n-1}; m{i} is sz-coded when i is a
/// multiple of `sz_every`, dc-coded otherwise. With `with_b`, also the
/// fine-tuned B version and its delta. Containers are written under `dir`.
std::vector<ServedSpec> make_served(std::uint64_t seed, int n, int sz_every,
                                    bool with_b, const std::string& dir);

/// Re-synthesizes, re-encodes and decodes the models' A containers in
/// passes until `min_seconds` have run (at least one pass). Codec work runs
/// on one thread: on small layers the pool's fan-out timing varies more
/// between processes than the codec work itself.
void producer_samples(std::uint64_t seed, const std::vector<ServedSpec>& models,
                      double min_seconds, ProducerSamples& out);

/// f32 bytes of the pruned layers / bytes of the A containers.
double container_ratio(const std::vector<ServedSpec>& models);

/// Checks one infer response body (binary [u32 rows][u32 cols][f32...])
/// against the references of the accepted versions; counts rows whose
/// top-1 class matches the uncompressed model.
bool check_logits(const std::string& body, const ServedSpec& m, int row0,
                  int rows, bool accept_b, std::string* why,
                  int* top1_match);

/// Binary infer body for pool rows [row0, row0 + rows).
std::string infer_body(const ServedSpec& m, int row0, int rows);

}  // namespace pb
