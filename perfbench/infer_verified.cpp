// infer_verified: closed loop, one caller. One op is a functional Run of
// folded MobileNet on S10SX, checked AllClose against a graph::Execute
// reference made in set-up. The cpu reference operators do most of the
// work here and none of serve_open_loop's, so a change to the functional
// path (a plan executor in place of per-node reference calls) shows here.
#include <optional>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "core/recipes.hpp"
#include "fpga/board.hpp"
#include "graph/graph.hpp"
#include "nets/nets.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace clflow;

// The tolerance Deployment::EstimateFps(verify_against_reference) uses.
constexpr float kRtol = 1e-3f;
constexpr float kAtol = 1e-4f;

}  // namespace

Report RunInferVerified(const RunConfig& cfg) {
  Report report;
  graph::Graph mobilenet;
  Tensor image, reference_out;
  std::optional<core::Deployment> d;
  // Set-up: net and input from the seed, the compiled design, and the
  // reference output on one thread.
  const double setup_s = MedianSetupSeconds(3, [&] {
    Rng rng(cfg.seed);
    mobilenet = nets::BuildMobileNetV1(rng);
    image = nets::SyntheticImagenetImage(rng);
    core::DeployOptions o;
    o.mode = core::ExecutionMode::kFolded;
    o.recipe = core::FoldedMobileNet("s10sx");
    o.board = fpga::Stratix10SX();
    o.functional_threads = cfg.functional_threads;
    d.reset();
    d.emplace(core::Deployment::Compile(mobilenet, o));
    reference_out = graph::Execute(mobilenet, image, 1);
  });

  double max_abs_err = 0.0;
  SimTime sim_latency;
  auto run = [&](Trace* trace) {
    core::RunResult r;
    {
      ScopedSpan span(trace, "Run");
      r = d->Run(image, /*functional=*/true);
    }
    const Tensor got = r.output.Reshaped(reference_out.shape());
    max_abs_err = Tensor::MaxAbsDiff(got, reference_out);
    sim_latency = r.latency;
    const bool ok = Tensor::AllClose(got, reference_out, kRtol, kAtol);
    if (!ok) {
      report.Fail("functional output is not AllClose to the reference "
                  "(max abs diff " + std::to_string(max_abs_err) + ")");
    }
    report.Attempt(ok);
  };

  if (!cfg.trace) {
    const std::vector<double> op_ms =
        TimedLoop(cfg.seconds, 3, [&] { run(nullptr); });
    ReportOpTimes(report, op_ms);
    report.Set("sim_fps_geomean", 1.0 / sim_latency.seconds(), "fps");
  } else {
    // Cycles of (untraced Run, reference on 1 thread, traced Run,
    // reference on all hardware threads), compared within one process.
    // The functional overhead is taken per cycle from the adjacent
    // untraced Run and 1-thread reference, so slow drift cancels.
    Trace trace;
    std::vector<double> untraced_ms, traced_ms, ref1_ms, refn_ms, overhead_ms;
    auto reference = [&](int threads) {
      Tensor out;
      const double t0 = NowUs();
      {
        ScopedSpan span(&trace, "graph::Execute");
        out = graph::Execute(mobilenet, image, threads);
      }
      const double ms = (NowUs() - t0) * 1e-3;
      if (!Tensor::AllClose(out, reference_out, kRtol, kAtol)) {
        report.Fail("reference on " + std::to_string(threads) +
                    " threads disagrees with the set-up reference");
      }
      return ms;
    };
    const double start = NowUs();
    while (traced_ms.size() < 2 || NowUs() - start < cfg.seconds * 1e6) {
      double t0 = NowUs();
      run(nullptr);
      untraced_ms.push_back((NowUs() - t0) * 1e-3);
      ref1_ms.push_back(reference(1));
      overhead_ms.push_back(untraced_ms.back() - ref1_ms.back());
      t0 = NowUs();
      run(&trace);
      traced_ms.push_back((NowUs() - t0) * 1e-3);
      refn_ms.push_back(reference(cfg.hardware_threads));
    }
    const double ref_ms = Median(ref1_ms);
    report.Set("cpu.reference_ms", ref_ms, "ms");
    report.Set("cpu.reference_gflops",
               graph::GraphCost(mobilenet).flops / (ref_ms * 1e6), "GFLOP/s");
    report.Set("cpu.thread_scaling", ref_ms / Median(refn_ms), "ratio");
    report.Set("ocl.functional_overhead_ms", Median(overhead_ms), "ms");
    report.Set("infer.max_abs_err", max_abs_err, "abs_diff");
    report.Set("trace.overhead",
               TraceOverhead(Median(traced_ms), Median(untraced_ms)),
               "ratio");
  }
  report.setup_s = setup_s;
  report.Note("infer: folded MobileNet on s10sx, functional_threads=" +
              std::to_string(cfg.functional_threads) +
              ", AllClose rtol 1e-3 atol 1e-4 against graph::Execute");
  return report;
}

}  // namespace perfbench
