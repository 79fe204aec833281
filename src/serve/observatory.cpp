#include "serve/observatory.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>

#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace clflow::serve {

namespace {

using obs::HtmlEscape;

/// Pulls a registry series as an (x, y) line. Counter windows keep their
/// zeros (a zero rate is information); gauge series skip empty windows so
/// the step rendering holds the last recorded level instead of dropping
/// to a spurious 0.
ObsSeries FromSeries(const obs::TimeSeries& ts, const std::string& name,
                     double scale = 1.0) {
  ObsSeries out;
  out.name = name;
  const bool gauge = ts.kind() == obs::TimeSeries::Kind::kGauge;
  for (const obs::TimeSeries::Window& w : ts.Windows()) {
    if (gauge && w.count == 0) continue;
    out.x_us.push_back(w.start_us);
    out.y.push_back(w.value * scale);
  }
  return out;
}

/// Fixed palette (cycled) for the SVG lines.
const char* const kColors[] = {"#1f77b4", "#d62728", "#2ca02c",
                               "#ff7f0e", "#9467bd", "#8c564b"};

}  // namespace

Observatory BuildObservatory(const LoadgenReport& report,
                             const std::string& title) {
  Observatory obs;
  obs.title = title;
  obs.target = report.target;
  obs.shape = TraceShapeName(report.options.shape);
  obs.seed = report.options.seed;
  obs.requests = static_cast<std::int64_t>(report.requests.size());
  obs.resolution_us = report.options.window.resolution.us();
  obs.objective_us = report.objective.us();
  obs.p50_us = report.p50_us;
  obs.p95_us = report.p95_us;
  obs.p99_us = report.p99_us;
  obs.max_us = report.max_us;
  obs.offered_rps = report.offered_rps;
  obs.achieved_rps = report.achieved_rps;
  obs.goodput = report.goodput;
  obs.peak_occupancy = report.peak_occupancy;
  obs.mean_queue_delay_us = report.mean_queue_delay_us;
  obs.violations = report.violations;
  obs.errors = report.errors;
  obs.failovers = report.failovers;
  obs.digest = report.digest;

  const double res_us = obs.resolution_us;

  // --- Latency per completion window: exact nearest-rank over records. ---
  std::map<std::int64_t, std::vector<double>> by_window;
  for (const RequestRecord& r : report.requests) {
    const auto w = static_cast<std::int64_t>(r.completion.us() / res_us);
    by_window[w].push_back(r.latency().us());
  }
  ObsChart latency;
  latency.title = "Latency per window";
  latency.unit = "us";
  ObsSeries p50{"p50", {}, {}}, p99{"p99", {}, {}};
  for (auto& [w, lats] : by_window) {
    std::sort(lats.begin(), lats.end());
    const double x = static_cast<double>(w) * res_us;
    p50.x_us.push_back(x);
    p50.y.push_back(obs::Percentile(lats, 0.50));
    p99.x_us.push_back(x);
    p99.y.push_back(obs::Percentile(lats, 0.99));
  }
  ObsSeries objective{"objective", {}, {}};
  if (!p50.x_us.empty()) {
    objective.x_us = {p50.x_us.front(), p50.x_us.back()};
    objective.y = {obs.objective_us, obs.objective_us};
  }
  latency.series = {p50, p99, objective};
  obs.charts.push_back(std::move(latency));

  // --- Throughput: windowed counts scaled to requests/second. -----------
  const obs::Registry& reg = *report.metrics;
  auto& mreg = const_cast<obs::Registry&>(reg);  // series() interns
  const double per_window_to_rps = 1e6 / res_us;
  ObsChart thru;
  thru.title = "Throughput";
  thru.unit = "rps";
  thru.series = {
      FromSeries(mreg.series("serve.arrivals"), "offered",
                 per_window_to_rps),
      FromSeries(mreg.series("serve.completions"), "achieved",
                 per_window_to_rps),
      FromSeries(mreg.series("serve.good"), "good", per_window_to_rps),
  };
  obs.charts.push_back(std::move(thru));

  // --- Occupancy and queue depth. ----------------------------------------
  ObsChart util;
  util.title = "Utilization";
  util.unit = "occupancy / depth";
  util.series = {
      FromSeries(mreg.series("serve.busy_us"), "occupancy", 1.0 / res_us),
      FromSeries(mreg.series("serve.queue_depth"), "queue_depth"),
  };
  obs.charts.push_back(std::move(util));

  // --- Per-board health steps (ReplicaSet campaigns only). ---------------
  ObsChart health;
  health.title = "Board health";
  health.unit = "0=healthy 1=degraded 2=quarantined 3=recovering";
  health.step = true;
  for (const auto& [name, labels] : reg.SeriesKeys()) {
    if (name != "ha.board.state") continue;
    const auto board = labels.find("board");
    health.series.push_back(
        FromSeries(mreg.series(name, labels),
                   board != labels.end() ? board->second : name));
  }
  if (!health.series.empty()) obs.charts.push_back(std::move(health));

  return obs;
}

std::string Observatory::ToJson() const {
  using obs::JsonEscape;
  using obs::JsonNum;
  std::ostringstream os;
  os << "{\"title\":\"" << JsonEscape(title) << "\",\"target\":\""
     << JsonEscape(target) << "\",\"shape\":\"" << JsonEscape(shape)
     << "\",\"seed\":" << seed << ",\"requests\":" << requests
     << ",\"resolution_us\":" << JsonNum(resolution_us)
     << ",\"objective_us\":" << JsonNum(objective_us)
     << ",\"p50_us\":" << JsonNum(p50_us) << ",\"p95_us\":" << JsonNum(p95_us)
     << ",\"p99_us\":" << JsonNum(p99_us) << ",\"max_us\":" << JsonNum(max_us)
     << ",\"offered_rps\":" << JsonNum(offered_rps)
     << ",\"achieved_rps\":" << JsonNum(achieved_rps)
     << ",\"goodput\":" << JsonNum(goodput)
     << ",\"peak_occupancy\":" << JsonNum(peak_occupancy)
     << ",\"mean_queue_delay_us\":" << JsonNum(mean_queue_delay_us)
     << ",\"violations\":" << violations << ",\"errors\":" << errors
     << ",\"failovers\":" << failovers << ",\"digest\":\"" << std::hex
     << digest << std::dec << "\",\"charts\":[";
  bool cfirst = true;
  for (const ObsChart& c : charts) {
    if (!cfirst) os << ",";
    cfirst = false;
    os << "{\"title\":\"" << JsonEscape(c.title) << "\",\"unit\":\""
       << JsonEscape(c.unit) << "\",\"step\":" << (c.step ? "true" : "false")
       << ",\"series\":[";
    bool sfirst = true;
    for (const ObsSeries& s : c.series) {
      if (!sfirst) os << ",";
      sfirst = false;
      os << "{\"name\":\"" << JsonEscape(s.name) << "\",\"x_us\":[";
      for (std::size_t i = 0; i < s.x_us.size(); ++i) {
        if (i) os << ",";
        os << JsonNum(s.x_us[i]);
      }
      os << "],\"y\":[";
      for (std::size_t i = 0; i < s.y.size(); ++i) {
        if (i) os << ",";
        os << JsonNum(s.y[i]);
      }
      os << "]}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

namespace {

/// Renders one chart as an inline SVG line plot (or step plot).
void ChartSvg(std::ostringstream& os, const ObsChart& chart) {
  const int width = 960, height = 200;
  const int ml = 60, mr = 10, mt = 10, mb = 24;
  const int pw = width - ml - mr, ph = height - mt - mb;
  double xmin = 1e300, xmax = -1e300, ymin = 0.0, ymax = -1e300;
  bool any = false;
  for (const ObsSeries& s : chart.series) {
    for (std::size_t i = 0; i < s.x_us.size(); ++i) {
      any = true;
      xmin = std::min(xmin, s.x_us[i]);
      xmax = std::max(xmax, s.x_us[i]);
      ymax = std::max(ymax, s.y[i]);
    }
  }
  os << "<h2>" << HtmlEscape(chart.title) << " <small>("
     << HtmlEscape(chart.unit) << ")</small></h2>";
  if (!any) {
    os << "<p><em>no data</em></p>";
    return;
  }
  if (xmax <= xmin) xmax = xmin + 1.0;
  if (ymax <= ymin) ymax = ymin + 1.0;
  ymax *= 1.05;
  auto X = [&](double x) {
    return ml + (x - xmin) / (xmax - xmin) * pw;
  };
  auto Y = [&](double y) {
    return mt + ph - (y - ymin) / (ymax - ymin) * ph;
  };
  os << "<svg width=\"" << width << "\" height=\"" << height
     << "\" xmlns=\"http://www.w3.org/2000/svg\">";
  // Frame + axis labels (min/max only: this is a dashboard, not a paper).
  os << "<rect x=\"" << ml << "\" y=\"" << mt << "\" width=\"" << pw
     << "\" height=\"" << ph
     << "\" fill=\"#fafafa\" stroke=\"#ccc\"/>";
  os << "<text x=\"2\" y=\"" << mt + 10 << "\">" << Table::Num(ymax, 1)
     << "</text>";
  os << "<text x=\"2\" y=\"" << mt + ph << "\">" << Table::Num(ymin, 1)
     << "</text>";
  os << "<text x=\"" << ml << "\" y=\"" << height - 6 << "\">"
     << Table::Num(xmin, 0) << " us</text>";
  os << "<text x=\"" << width - 120 << "\" y=\"" << height - 6 << "\">"
     << Table::Num(xmax, 0) << " us</text>";
  std::vector<std::pair<std::string, std::string>> legend;
  for (const ObsSeries& s : chart.series) {
    if (s.x_us.empty()) continue;
    const char* stroke = kColors[legend.size() % std::size(kColors)];
    legend.emplace_back(s.name, stroke);
    os << "<polyline fill=\"none\" stroke=\"" << stroke
       << "\" stroke-width=\"1.5\" points=\"";
    for (std::size_t i = 0; i < s.x_us.size(); ++i) {
      if (chart.step && i > 0) {
        // Step: hold the previous level until this x.
        os << Table::Num(X(s.x_us[i]), 1) << ","
           << Table::Num(Y(s.y[i - 1]), 1) << " ";
      }
      os << Table::Num(X(s.x_us[i]), 1) << "," << Table::Num(Y(s.y[i]), 1)
         << " ";
    }
    os << "\"><title>" << HtmlEscape(s.name) << "</title></polyline>";
  }
  os << "</svg>" << obs::HtmlLegend(legend);
}

}  // namespace

std::string Observatory::ToHtml() const {
  std::ostringstream os;
  os << "<p>" << HtmlEscape(target) << " &middot; " << HtmlEscape(shape)
     << " trace, seed " << seed << ", " << requests
     << " requests &middot; window " << Table::Num(resolution_us, 0)
     << " &micro;s &middot; digest <code>" << std::hex << digest << std::dec
     << "</code></p>";
  Table summary({"p50 us", "p95 us", "p99 us", "max us", "objective",
                 "goodput", "offered rps", "achieved rps", "peak occ",
                 "mean qdelay", "errors", "failovers"});
  summary.AddRow({Table::Num(p50_us, 1), Table::Num(p95_us, 1),
                  Table::Num(p99_us, 1), Table::Num(max_us, 1),
                  Table::Num(objective_us, 1), Table::Pct(goodput, 1),
                  Table::Num(offered_rps, 1), Table::Num(achieved_rps, 1),
                  Table::Num(peak_occupancy, 2),
                  Table::Num(mean_queue_delay_us, 1), std::to_string(errors),
                  std::to_string(failovers)});
  os << obs::HtmlTable(summary);
  for (const ObsChart& c : charts) ChartSvg(os, c);
  return obs::HtmlPage("observatory", title, os.str());
}

std::string Observatory::ToChromeTrace() const {
  obs::ChromeTrace trace;
  for (const ObsChart& c : charts) {
    for (const ObsSeries& s : c.series) {
      const std::string name = c.title + ": " + s.name;
      for (std::size_t i = 0; i < s.x_us.size(); ++i) {
        trace.Counter(name, /*pid=*/9, /*tid=*/0, s.x_us[i],
                      obs::TraceArgs().Num("value", s.y[i]));
      }
    }
  }
  return trace.Finish();
}

}  // namespace clflow::serve
