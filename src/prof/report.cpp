#include "prof/report.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace clflow::prof {

namespace {

using obs::HtmlEscape;
using obs::JsonEscape;
using obs::JsonNum;

std::string Us(double v) { return Table::Num(v, 1); }

// One builder per table: ToText prints them aligned, ToHtml renders the
// same rows through obs::HtmlTable.

Table AttributionTable(const Profile& p) {
  Table t({"Kernel", "Class", "Launches", "Time us", "Share", "II us",
           "Mem us", "Fmax us", "Stall us", "Launch us", "Bottleneck",
           "Drift"});
  for (const auto& k : p.kernels) {
    t.AddRow(
        {k.name, k.op_class, std::to_string(k.launches), Us(k.total_us),
         Table::Pct(k.share), Us(k.compute_us), Us(k.memory_us),
         Us(k.fmax_us), Us(k.stall_us), Us(k.launch_us),
         std::string(BottleneckName(k.bottleneck)),
         std::string(k.drift >= 0 ? "+" : "").append(Table::Pct(k.drift, 1))});
  }
  return t;
}

Table RooflineTable(const Profile& p) {
  Table t({"Kernel", "Flops", "Bytes", "AI flop/B", "GFLOP/s",
           "Roof GFLOP/s", "Headroom"});
  for (const auto& k : p.kernels) {
    t.AddRow({k.name, Table::Num(k.flops, 0), Table::Num(k.bytes, 0),
              Table::Num(k.intensity, 2), Table::Num(k.achieved_gflops, 2),
              Table::Num(k.roof_gflops, 1),
              k.achieved_gflops > 0
                  ? Table::Speedup(k.roof_gflops / k.achieved_gflops, 1)
                  : "-"});
  }
  return t;
}

Table QueueTable(const Profile& p) {
  Table t({"Queue", "Busy us", "Idle us", "Occupancy"});
  for (const auto& q : p.queues) {
    const double span = q.busy_us + q.idle_us;
    t.AddRow({std::to_string(q.queue), Us(q.busy_us), Us(q.idle_us),
              span > 0 ? Table::Pct(q.busy_us / span) : "-"});
  }
  if (p.autorun_busy_us > 0) {
    t.AddRow({"autorun", Us(p.autorun_busy_us), "-", "-"});
  }
  return t;
}

}  // namespace

std::string ToText(const Profile& p) {
  std::ostringstream os;
  os << "profile: " << p.net << " on " << p.board_name << " (" << p.board_key
     << ")\n";
  os << "  fmax " << Table::Num(p.fmax_mhz, 0) << " MHz (base "
     << Table::Num(p.base_fmax_mhz, 0) << "), peak "
     << Table::Num(p.peak_gflops, 0) << " GFLOP/s, DRAM "
     << Table::Num(p.mem_bw_gbps, 1) << " GB/s\n";
  os << "  makespan " << Us(p.makespan_us) << " us  (h2d " << Us(p.write_us)
     << " us, d2h " << Us(p.read_us) << " us)\n\n";

  os << AttributionTable(p).ToString() << "\n";
  os << RooflineTable(p).ToString() << "\n";
  os << QueueTable(p).ToString();
  if (p.unmatched_events > 0) {
    os << "\nWARNING: " << p.unmatched_events
       << " kernel event(s) did not match the launch plan (CLF602)\n";
  }
  return os.str();
}

std::string ToJson(const Profile& p) {
  std::ostringstream os;
  os << "{\"net\":\"" << JsonEscape(p.net) << "\",\"board\":\""
     << JsonEscape(p.board_key) << "\",\"fmax_mhz\":" << JsonNum(p.fmax_mhz)
     << ",\"base_fmax_mhz\":" << JsonNum(p.base_fmax_mhz)
     << ",\"peak_gflops\":" << JsonNum(p.peak_gflops)
     << ",\"mem_bw_gbps\":" << JsonNum(p.mem_bw_gbps)
     << ",\"makespan_us\":" << JsonNum(p.makespan_us)
     << ",\"write_us\":" << JsonNum(p.write_us)
     << ",\"read_us\":" << JsonNum(p.read_us)
     << ",\"unmatched_events\":" << p.unmatched_events
     << ",\"conservation_error_us\":" << JsonNum(p.conservation_error_us);
  os << ",\"kernels\":[";
  bool first = true;
  for (const auto& k : p.kernels) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << JsonEscape(k.name) << "\",\"op_class\":\""
       << JsonEscape(k.op_class) << "\",\"launches\":" << k.launches
       << ",\"total_us\":" << JsonNum(k.total_us)
       << ",\"compute_us\":" << JsonNum(k.compute_us)
       << ",\"memory_us\":" << JsonNum(k.memory_us)
       << ",\"fmax_us\":" << JsonNum(k.fmax_us)
       << ",\"stall_us\":" << JsonNum(k.stall_us)
       << ",\"launch_us\":" << JsonNum(k.launch_us)
       << ",\"share\":" << JsonNum(k.share)
       << ",\"predicted_us\":" << JsonNum(k.predicted_us)
       << ",\"drift\":" << JsonNum(k.drift) << ",\"bottleneck\":\""
       << BottleneckName(k.bottleneck) << "\",\"flops\":" << JsonNum(k.flops)
       << ",\"bytes\":" << JsonNum(k.bytes)
       << ",\"intensity\":" << JsonNum(k.intensity)
       << ",\"achieved_gflops\":" << JsonNum(k.achieved_gflops)
       << ",\"roof_gflops\":" << JsonNum(k.roof_gflops) << "}";
  }
  os << "],\"queues\":[";
  first = true;
  for (const auto& q : p.queues) {
    if (!first) os << ",";
    first = false;
    os << "{\"queue\":" << q.queue << ",\"busy_us\":" << JsonNum(q.busy_us)
       << ",\"idle_us\":" << JsonNum(q.idle_us) << "}";
  }
  os << "],\"events\":[";
  first = true;
  for (const auto& e : p.events) {
    if (!first) os << ",";
    first = false;
    os << "{\"kernel\":\"" << JsonEscape(e.kernel)
       << "\",\"queue\":" << e.queue << ",\"invocation\":" << e.invocation
       << ",\"start_us\":" << JsonNum(e.start_us)
       << ",\"duration_us\":" << JsonNum(e.duration_us)
       << ",\"compute_us\":" << JsonNum(e.compute_us)
       << ",\"memory_us\":" << JsonNum(e.memory_us)
       << ",\"fmax_us\":" << JsonNum(e.fmax_us)
       << ",\"stall_us\":" << JsonNum(e.stall_us)
       << ",\"launch_us\":" << JsonNum(e.launch_us) << ",\"bottleneck\":\""
       << BottleneckName(e.bottleneck) << "\"}";
  }
  os << "]}";
  return os.str();
}

namespace {

const char* SliceColor(const std::string& kind) {
  if (kind == "write") return "#4c8dd6";
  if (kind == "read") return "#55b8a0";
  if (kind == "stall") return "#e0b13f";
  if (kind == "fault") return "#d65a4c";
  return "#7d6fc3";  // kernel
}

}  // namespace

std::string ToHtml(const Profile& p) {
  std::ostringstream os;
  os << "<p>fmax " << Table::Num(p.fmax_mhz, 0) << " MHz (base "
     << Table::Num(p.base_fmax_mhz, 0) << " MHz) &middot; peak "
     << Table::Num(p.peak_gflops, 0) << " GFLOP/s &middot; DRAM "
     << Table::Num(p.mem_bw_gbps, 1) << " GB/s &middot; makespan "
     << Table::Num(p.makespan_us, 1) << " &micro;s</p>";

  // --- Timeline: one lane per queue, plus one for autorun kernels. ---------
  std::map<int, int> lane;  // queue -> lane index
  for (const auto& s : p.timeline) {
    if (!lane.count(s.queue)) {
      const int next = static_cast<int>(lane.size());
      lane[s.queue] = next;
    }
  }
  const int lane_h = 26, label_w = 70;
  const int width = 960, plot_w = width - label_w;
  const int height = static_cast<int>(lane.size()) * lane_h + 24;
  const double span = std::max(p.makespan_us, 1e-9);
  double t0 = 0.0;
  for (const auto& s : p.timeline) t0 = std::min(t0, s.start_us);
  os << "<h2>Timeline (" << Table::Num(p.makespan_us, 1)
     << " &micro;s)</h2><svg width=\"" << width << "\" height=\"" << height
     << "\" xmlns=\"http://www.w3.org/2000/svg\">";
  for (const auto& [q, l] : lane) {
    os << "<text x=\"0\" y=\"" << l * lane_h + 16 << "\">"
       << (q < 0 ? std::string("autorun") : "queue " + std::to_string(q))
       << "</text>";
  }
  for (const auto& s : p.timeline) {
    const double x =
        label_w + (s.start_us - t0) / span * static_cast<double>(plot_w);
    const double w = std::max(
        1.0, s.dur_us / span * static_cast<double>(plot_w));
    os << "<rect x=\"" << Table::Num(x, 1) << "\" y=\""
       << lane[s.queue] * lane_h + 4 << "\" width=\"" << Table::Num(w, 1)
       << "\" height=\"" << lane_h - 8 << "\" fill=\"" << SliceColor(s.kind)
       << "\"><title>" << HtmlEscape(s.label) << " (" << s.kind << "): "
       << Table::Num(s.dur_us, 2) << " us @ " << Table::Num(s.start_us, 2)
       << " us</title></rect>";
  }
  std::vector<std::pair<std::string, std::string>> kinds;
  for (const char* kind : {"write", "kernel", "stall", "read", "fault"}) {
    kinds.emplace_back(kind, SliceColor(kind));
  }
  os << "</svg>" << obs::HtmlLegend(kinds);

  // --- Per-kernel attribution bars, then the attribution table. ------------
  const std::vector<std::pair<std::string, std::string>> causes = {
      {"II", "#5a9e5d"}, {"memory", "#c2703f"}, {"fmax", "#b04a5a"},
      {"stall", "#e0b13f"}, {"launch", "#888"}};
  os << "<h2>Bottleneck attribution</h2>" << obs::HtmlLegend(causes);
  for (const auto& k : p.kernels) {
    const double parts[] = {k.compute_us, k.memory_us, k.fmax_us, k.stall_us,
                            k.launch_us};
    const double whole = k.total_us + k.stall_us + k.launch_us;
    os << "<div class=\"attr\"><span>" << HtmlEscape(k.name)
       << "</span><div class=\"bar\">";
    for (std::size_t i = 0; i < causes.size(); ++i) {
      if (parts[i] <= 0 || whole <= 0) continue;
      os << "<div style=\"width:" << Table::Num(parts[i] / whole * 100.0, 2)
         << "%;background:" << causes[i].second << "\" title=\""
         << Table::Num(parts[i], 2) << " us\"></div>";
    }
    os << "</div></div>";
  }
  os << obs::HtmlTable(AttributionTable(p));
  os << "<h2>Roofline</h2>" << obs::HtmlTable(RooflineTable(p));
  os << "<h2>Queues</h2>" << obs::HtmlTable(QueueTable(p));
  return obs::HtmlPage("profile", p.net + " on " + p.board_name, os.str());
}

}  // namespace clflow::prof
