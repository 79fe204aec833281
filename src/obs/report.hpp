// One writer per report format: ChromeTrace builds the chrome://tracing /
// Perfetto document every clflow trace maps its data onto, with every
// number through JsonNum (shortest round trip, so simulated timestamps keep
// picosecond resolution however late in a run). The HTML helpers give every
// report page one shell, legend and table renderer; chart bodies stay with
// the reports that draw them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/table.hpp"

namespace clflow::obs {

/// An event's ordered `args` object; counts and ids print exactly.
class TraceArgs {
 public:
  TraceArgs& Num(std::string_view key, double v);
  TraceArgs& Int(std::string_view key, std::uint64_t v);
  TraceArgs& Str(std::string_view key, std::string_view v);

 private:
  friend class ChromeTrace;
  std::string& Key(std::string_view key);
  std::string json_;
};

/// Appends events in call order; Finish() returns the closed document.
class ChromeTrace {
 public:
  void ProcessName(int pid, std::string_view name);  ///< "M" metadata
  void Slice(std::string_view name, std::string_view cat, int pid, int tid,
             double ts_us, double dur_us, const TraceArgs& args);  ///< "X"
  /// "C" sample; without a tid the counter belongs to the process.
  void Counter(std::string_view name, int pid, std::optional<int> tid,
               double ts_us, const TraceArgs& args);
  /// Flow step "s", "t" or "f" (bound to the enclosing slice) of flow `id`.
  void Flow(std::string_view name, std::string_view cat, std::string_view ph,
            std::uint64_t id, int pid, int tid, double ts_us);
  [[nodiscard]] std::string Finish() const;

 private:
  /// Starts the next event with its name; returns the buffer.
  std::string& Open(std::string_view name);
  std::string out_ = "{\"traceEvents\":[";
};

/// A self-contained page: doctype, shared stylesheet, "<title>clflow KIND:
/// TITLE", a matching <h1>, then `body`.
[[nodiscard]] std::string HtmlPage(std::string_view kind,
                                   const std::string& title,
                                   const std::string& body);

/// A legend of (label, CSS colour) swatches.
[[nodiscard]] std::string HtmlLegend(
    const std::vector<std::pair<std::string, std::string>>& swatches);

/// `table` as an HTML <table>, header row first, every cell escaped.
[[nodiscard]] std::string HtmlTable(const Table& table);

}  // namespace clflow::obs
