// The producer workload, in process: a CompressionSession on the zoo's
// pruned LeNet-300 and encode/decode of paper-scale AlexNet fc6-fc8.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "data/dataset.h"
#include "nn/network.h"
#include "sparse/pruned_layer.h"

namespace pb {

inline constexpr double kLenetBudget = 0.002;  // the paper's 0.2% top-1 loss

/// The zoo's LeNet-300-100, pruned at the paper's ratios (pruned weights
/// cached next to the zoo's trained weights).
struct PrunedLenet {
  deepsz::data::Dataset train, test;
  std::string weights;  // pruned weights file
};
PrunedLenet load_pruned_lenet();
/// A fresh network holding the pruned weights with masks installed.
deepsz::nn::Network pruned_lenet_net(const PrunedLenet& lenet);

/// Paper-scale AlexNet fc6-fc8 synthesized from `seed` at the paper's keep
/// ratios, and the paper's chosen error bounds (Table 2).
std::vector<deepsz::sparse::PrunedLayer> alexnet_layers(std::uint64_t seed);
std::map<std::string, double> alexnet_bounds();

/// Checks a decoded layer against its pruned original: identical index
/// (pruning mask) and |decoded - original| <= eb at every stored value.
bool within_bound(const deepsz::sparse::PrunedLayer& original,
                  const deepsz::sparse::PrunedLayer& decoded, double eb,
                  std::string* why);

void run_compress(const Options& opt, Metrics& out, Tally& tally);

}  // namespace pb
