// The four workloads of the end-to-end benchmark (see METRICS.md for why
// each exists and which layer metric should move which end-to-end one).
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Cold Deployment::Compile + emitted source + EstimateFps over a fixed
/// 12-config zoo (compile cost a user pays per design).
Report RunCompileZoo(const RunConfig& cfg);
/// ExploreFoldedTilings(MobileNet) on all three boards at jobs = nproc.
Report RunDseSweep(const RunConfig& cfg);
/// Open-loop timing-only serving through a 2-board LeNet ReplicaSet.
Report RunServeOpenLoop(const RunConfig& cfg);
/// Closed-loop functional MobileNet inference checked against the CPU
/// reference.
Report RunInferVerified(const RunConfig& cfg);

}  // namespace perfbench
