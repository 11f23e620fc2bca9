// The traced run: per-layer metrics from spans the harness records around
// calls into each layer, plus the daemon's own /v1/trace and /metrics.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace pb {

void run_traced(const Options& opt, Metrics& out, Tally& tally,
                std::vector<std::string>& notes);

}  // namespace pb
