// Shared plumbing of the end-to-end benchmark: the host clock, the
// benchmark's own span trace, the timed loop, set-up timing, and the
// report every workload fills.
//
// Two clocks never mix: every `*_ms`/`*_s` figure here is host wall time
// (std::chrono::steady_clock); simulated FPGA time only ever appears
// under names starting with `sim_` (or a layer's `sim` figures), read
// from the simulator's own SimTime values.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "stats.hpp"

namespace perfbench {

/// Microseconds on the host's monotonic clock since process start.
double NowUs();

/// Command-line settings every workload receives.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int jobs = 1;               ///< worker threads of the parallel paths
  int hardware_threads = 1;
  int functional_threads = 1; ///< host threads of functional inference
};

/// The benchmark's own trace: spans opened around calls into clflow's
/// public functions, plus child spans imported from a deployment's
/// obs::Tracer. Self time is a span's duration minus the part of it its
/// children cover (stats.hpp SelfUs).
class Trace {
 public:
  struct Span {
    std::string name;
    Interval at;       ///< host microseconds (NowUs clock)
    int parent = -1;   ///< index into spans(), -1 for a root
    std::vector<std::pair<std::string, std::string>> args;
  };

  /// Opens a span now; returns its index.
  int Open(std::string name, int parent = -1);
  void Close(int index);
  /// Imports `tracer`'s spans as descendants of `parent`: tracer depth 0
  /// becomes a child of `parent`, deeper spans nest under the closest
  /// enclosing shallower span. `tracer_now_us`/`host_now_us` are the two
  /// clocks read back to back, which maps tracer time onto NowUs. Tracer
  /// records before index `first` are skipped (already imported).
  void Import(const clflow::obs::Tracer& tracer, int parent,
              std::int64_t tracer_now_us, double host_now_us,
              std::size_t first = 0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::vector<int> Children(int index) const;
  [[nodiscard]] double DurUs(int index) const;
  [[nodiscard]] double SelfUs(int index) const;
  void Clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
};

/// RAII span in a Trace; a null trace makes it a no-op, so one code path
/// serves the untraced and the traced run.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name, int parent = -1);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();
  [[nodiscard]] int index() const { return index_; }

 private:
  Trace* trace_ = nullptr;
  int index_ = -1;
};

/// What one workload run reports.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Median set-up wall time (MedianSetupSeconds), seconds.
  double setup_s = 0.0;
  /// Human-readable lines printed before the result (settings, pinned
  /// values, what each check covered).
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one attempted operation; `ok` false marks it failed.
  void Attempt(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
  /// Records a failed correctness check; the first kMaxFailNotes reasons
  /// are kept as notes.
  void Fail(const std::string& why);
  static constexpr int kMaxFailNotes = 20;
  int failed_checks = 0;
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Runs `setup` `reps` times and returns the median wall seconds. The
/// state the last repetition built is what the workload then uses.
double MedianSetupSeconds(int reps, const std::function<void()>& setup);

/// Calls `op` until `seconds` of host time have passed and at least
/// `min_ops` calls were made; returns each call's wall time in ms.
std::vector<double> TimedLoop(double seconds, int min_ops,
                              const std::function<void()>& op);

/// Sets op_ms_p50, op_ms_tail and ops_per_s from per-op wall times (ms)
/// and notes the tail's percentile and sample count. `work_per_op` is
/// what one op completes in ops_per_s's unit (1 for whole ops; the
/// simulated requests of one campaign pass on serve_open_loop).
void ReportOpTimes(Report& report, const std::vector<double>& op_ms,
                   double work_per_op = 1.0);

/// Peak resident set of this process, MB.
double PeakRssMb();

/// Traced-run overhead: traced cost / untraced cost - 1.
inline double TraceOverhead(double traced, double untraced) {
  return traced / untraced - 1.0;
}

}  // namespace perfbench
