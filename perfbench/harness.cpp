#include "harness.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();
}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

int Trace::Open(std::string name, int parent) {
  const double now = NowUs();
  spans_.push_back(Span{std::move(name), Interval{now, now}, parent, {}});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::Close(int index) {
  spans_[static_cast<std::size_t>(index)].at.end = NowUs();
}

void Trace::Import(const clflow::obs::Tracer& tracer, int parent,
                   std::int64_t tracer_now_us, double host_now_us,
                   std::size_t first) {
  const double offset = host_now_us - static_cast<double>(tracer_now_us);
  // open_at_depth[d] = index of the latest imported span at depth d.
  std::vector<int> open_at_depth;
  const std::vector<clflow::obs::SpanRecord>& records = tracer.spans();
  for (std::size_t i = first; i < records.size(); ++i) {
    const clflow::obs::SpanRecord& rec = records[i];
    const auto depth = static_cast<std::size_t>(std::max(rec.depth, 0));
    open_at_depth.resize(std::min(open_at_depth.size(), depth));
    const int p = open_at_depth.empty() ? parent : open_at_depth.back();
    const double start = offset + static_cast<double>(rec.start_us);
    spans_.push_back(Span{rec.name,
                          Interval{start, start + static_cast<double>(
                                                      rec.dur_us)},
                          p, rec.args});
    open_at_depth.push_back(static_cast<int>(spans_.size()) - 1);
  }
}

std::vector<int> Trace::Children(int index) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == index) out.push_back(static_cast<int>(i));
  }
  return out;
}

double Trace::DurUs(int index) const {
  const Interval& at = spans_[static_cast<std::size_t>(index)].at;
  return at.end - at.start;
}

double Trace::SelfUs(int index) const {
  std::vector<Interval> kids;
  for (int c : Children(index)) {
    kids.push_back(spans_[static_cast<std::size_t>(c)].at);
  }
  return perfbench::SelfUs(spans_[static_cast<std::size_t>(index)].at, kids);
}

ScopedSpan::ScopedSpan(Trace* trace, std::string name, int parent)
    : trace_(trace) {
  if (trace_ != nullptr) index_ = trace_->Open(std::move(name), parent);
}

ScopedSpan::~ScopedSpan() {
  if (trace_ != nullptr) trace_->Close(index_);
}

void Report::Fail(const std::string& why) {
  correct = false;
  // A check that fails every op would otherwise print once per op.
  if (++failed_checks <= kMaxFailNotes) Note("CHECK FAILED: " + why);
}

double MedianSetupSeconds(int reps, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowUs();
    setup();
    s.push_back((NowUs() - t0) * 1e-6);
  }
  return Median(s);
}

std::vector<double> TimedLoop(double seconds, int min_ops,
                              const std::function<void()>& op) {
  std::vector<double> ms;
  const double start = NowUs();
  while (static_cast<int>(ms.size()) < min_ops ||
         NowUs() - start < seconds * 1e6) {
    const double t0 = NowUs();
    op();
    ms.push_back((NowUs() - t0) * 1e-3);
  }
  return ms;
}

void ReportOpTimes(Report& report, const std::vector<double>& op_ms,
                   double work_per_op) {
  const Tail tail = TailOf(op_ms);
  double total_ms = 0.0;
  for (double m : op_ms) total_ms += m;
  report.Set("op_ms_p50", Median(op_ms), "ms");
  report.Set("op_ms_tail", tail.value, "ms");
  report.Set("ops_per_s",
             work_per_op * static_cast<double>(op_ms.size()) /
                 (total_ms * 1e-3),
             "1/s");
  char line[160];
  std::snprintf(line, sizeof(line),
                "op_ms_tail is p%.1f over %zu ops (%zu beyond it)%s",
                tail.percentile, tail.samples, tail.beyond,
                tail.samples < 2 * Tail::kMinBeyond + 1
                    ? "; too few ops for a tail, so it is the median"
                    : "");
  report.Note(line);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
