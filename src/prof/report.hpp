// Report generators over prof::Profile.
//
//   * ToText   -- aligned tables (common/table): attribution, roofline,
//                 queue occupancy. What flow_inspector --profile prints.
//   * ToJson   -- the full profile as one JSON document (machine use;
//                 parses with obs::json::Parse).
//   * ToHtml   -- a single self-contained HTML file (obs::HtmlPage): an
//                 SVG timeline (one lane per queue plus autorun), stacked
//                 per-kernel attribution bars, and ToText's attribution,
//                 roofline and queue tables. No external assets, so the
//                 file survives being attached to a CI run or an email.
#pragma once

#include <string>

#include "prof/prof.hpp"

namespace clflow::prof {

[[nodiscard]] std::string ToText(const Profile& p);
[[nodiscard]] std::string ToJson(const Profile& p);
[[nodiscard]] std::string ToHtml(const Profile& p);

}  // namespace clflow::prof
