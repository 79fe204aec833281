// clflow end-to-end benchmark binary (driven by run.py).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--git-describe STR]
//
// Prints its notes, one `meta {...}` line with the run's settings, and as
// its last line one JSON object {"correct","attempted","failed",
// "metrics"}; run.py checks that line against BENCHMARK.json.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/parallel.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compile_zoo|dse_sweep|"
               "serve_open_loop|infer_verified --seed N --seconds S "
               "--trace 0|1 [--git-describe STR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string git_describe = "unknown";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(value);
    } else if (key == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--git-describe") {
      git_describe = value;
    } else {
      return Usage();
    }
  }
  if (cfg.workload.empty() || !have_seed || !(cfg.seconds > 0.0)) {
    return Usage();
  }
  cfg.hardware_threads = clflow::HardwareThreads();
  cfg.jobs = cfg.hardware_threads;
  // Functional inference runs on one thread: one thread repeats within
  // about 2% per op, several threads spread by about 20% between runs.
  cfg.functional_threads = 1;

  perfbench::Report report;
  try {
    if (cfg.workload == "compile_zoo") {
      report = perfbench::RunCompileZoo(cfg);
    } else if (cfg.workload == "dse_sweep") {
      report = perfbench::RunDseSweep(cfg);
    } else if (cfg.workload == "serve_open_loop") {
      report = perfbench::RunServeOpenLoop(cfg);
    } else if (cfg.workload == "infer_verified") {
      report = perfbench::RunInferVerified(cfg);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!cfg.trace) {
    report.Set("setup_s", report.setup_s, "s");
    report.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  }

  for (const std::string& line : report.notes) {
    std::printf("note: %s\n", line.c_str());
  }
  const double fail_rate =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::printf(
      "meta {\"workload\":%s,\"seed\":%" PRIu64
      ",\"seconds\":%s,\"trace\":%d,\"jobs\":%d,\"hardware_threads\":%d,"
      "\"functional_threads\":%d,\"build_type\":%s,\"compiler\":%s,"
      "\"git_describe\":%s,\"fail_rate\":%s}\n",
      JsonString(cfg.workload).c_str(), cfg.seed,
      JsonNumber(cfg.seconds).c_str(), cfg.trace ? 1 : 0, cfg.jobs,
      cfg.hardware_threads, cfg.functional_threads,
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(git_describe).c_str(), JsonNumber(fail_rate).c_str());

  std::string metrics;
  for (const auto& [name, m] : report.metrics) {
    if (!metrics.empty()) metrics += ",";
    metrics += JsonString(name) + ":{\"value\":" + JsonNumber(m.value) +
               ",\"unit\":" + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%" PRId64 ",\"failed\":%" PRId64
              ",\"metrics\":{%s}}\n",
              report.correct ? "true" : "false", report.attempted,
              report.failed, metrics.c_str());
  return 0;
}
