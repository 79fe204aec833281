#include "obs/report.hpp"

#include <initializer_list>

#include "obs/json.hpp"

namespace clflow::obs {

namespace {

void Cat(std::string& out, std::initializer_list<std::string_view> parts) {
  for (const std::string_view part : parts) out.append(part);
}

}  // namespace

std::string& TraceArgs::Key(std::string_view key) {
  Cat(json_, {json_.empty() ? "\"" : ",\"", JsonEscape(key), "\":"});
  return json_;
}

TraceArgs& TraceArgs::Num(std::string_view key, double v) {
  Key(key) += JsonNum(v);
  return *this;
}

TraceArgs& TraceArgs::Int(std::string_view key, std::uint64_t v) {
  Key(key) += std::to_string(v);
  return *this;
}

TraceArgs& TraceArgs::Str(std::string_view key, std::string_view v) {
  Cat(Key(key), {"\"", JsonEscape(v), "\""});
  return *this;
}

std::string& ChromeTrace::Open(std::string_view name) {
  Cat(out_, {out_.back() == '[' ? "{\"name\":\"" : ",{\"name\":\"",
             JsonEscape(name), "\""});
  return out_;
}

void ChromeTrace::ProcessName(int pid, std::string_view name) {
  Cat(Open("process_name"), {",\"ph\":\"M\",\"pid\":", std::to_string(pid),
                             ",\"args\":{\"name\":\"", JsonEscape(name),
                             "\"}}"});
}

void ChromeTrace::Slice(std::string_view name, std::string_view cat, int pid,
                        int tid, double ts_us, double dur_us,
                        const TraceArgs& args) {
  Cat(Open(name),
      {",\"cat\":\"", JsonEscape(cat), "\",\"ph\":\"X\",\"pid\":",
       std::to_string(pid), ",\"tid\":", std::to_string(tid), ",\"ts\":",
       JsonNum(ts_us), ",\"dur\":", JsonNum(dur_us), ",\"args\":{",
       args.json_, "}}"});
}

void ChromeTrace::Counter(std::string_view name, int pid,
                          std::optional<int> tid, double ts_us,
                          const TraceArgs& args) {
  std::string& out = Open(name);
  Cat(out, {",\"ph\":\"C\",\"pid\":", std::to_string(pid)});
  if (tid) Cat(out, {",\"tid\":", std::to_string(*tid)});
  Cat(out, {",\"ts\":", JsonNum(ts_us), ",\"args\":{", args.json_, "}}"});
}

void ChromeTrace::Flow(std::string_view name, std::string_view cat,
                       std::string_view ph, std::uint64_t id, int pid,
                       int tid, double ts_us) {
  Cat(Open(name),
      {",\"cat\":\"", JsonEscape(cat), "\",\"ph\":\"", ph, "\",\"id\":",
       std::to_string(id), ",\"pid\":", std::to_string(pid), ",\"tid\":",
       std::to_string(tid), ",\"ts\":", JsonNum(ts_us),
       ph == "f" ? ",\"bp\":\"e\"}" : "}"});
}

std::string ChromeTrace::Finish() const { return out_ + "]}"; }

std::string HtmlPage(std::string_view kind, const std::string& title,
                     const std::string& body) {
  std::string page;
  Cat(page,
      {"<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>clflow ",
       kind, ": ", HtmlEscape(title),
       "</title><style>"
       "body{font-family:system-ui,sans-serif;margin:24px;color:#222}"
       "h1{font-size:20px}h2{font-size:16px;margin-top:28px}"
       "h2 small{color:#888;font-weight:normal}"
       "table{border-collapse:collapse;font-size:13px}"
       "td,th{border:1px solid #ccc;padding:4px 8px;text-align:right}"
       "td:first-child,th:first-child{text-align:left}"
       ".attr{display:flex;align-items:center;font-size:13px}"
       ".attr span{width:160px}.bar div{height:100%}"
       ".bar{display:flex;height:18px;width:480px;background:#eee}"
       ".legend span{display:inline-block;padding:2px 8px;margin-right:6px;"
       "font-size:12px;color:#fff}"
       "svg text{font-size:10px;font-family:monospace}"
       "</style></head><body><h1>clflow ",
       kind, " &mdash; ", HtmlEscape(title), "</h1>", body, "</body></html>"});
  return page;
}

std::string HtmlLegend(
    const std::vector<std::pair<std::string, std::string>>& swatches) {
  std::string out = "<p class=\"legend\">";
  for (const auto& [label, color] : swatches) {
    Cat(out, {"<span style=\"background:", color, "\">", HtmlEscape(label),
              "</span>"});
  }
  out += "</p>";
  return out;
}

std::string HtmlTable(const Table& table) {
  std::string out = "<table>";
  auto row = [&](const std::vector<std::string>& cells, std::string_view tag) {
    out += "<tr>";
    for (const std::string& cell : cells) {
      Cat(out, {"<", tag, ">", HtmlEscape(cell), "</", tag, ">"});
    }
    out += "</tr>";
  };
  row(table.header(), "th");
  for (const auto& cells : table.rows()) row(cells, "td");
  out += "</table>";
  return out;
}

}  // namespace clflow::obs
