// Tests for the observability layer: metrics registry semantics,
// histogram percentiles, span nesting, JSON escaping, and schema
// round-trips through the bundled JSON parser (including the merged
// compile+runtime Chrome trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "core/dse.hpp"
#include "nets/nets.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "ocl/trace.hpp"

namespace clflow::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterIsMonotoneAndLabeledSeriesAreDistinct) {
  Registry reg;
  reg.counter("hits").Add();
  reg.counter("hits").Add(2);
  EXPECT_DOUBLE_EQ(reg.counter("hits").value(), 3.0);

  reg.counter("hits", {{"queue", "0"}}).Add(5);
  EXPECT_DOUBLE_EQ(reg.counter("hits").value(), 3.0);
  EXPECT_DOUBLE_EQ(reg.counter("hits", {{"queue", "0"}}).value(), 5.0);
}

TEST(Metrics, GaugeLastWriteWins) {
  Registry reg;
  reg.gauge("fmax").Set(260.0);
  reg.gauge("fmax").Set(241.5);
  EXPECT_DOUBLE_EQ(reg.gauge("fmax").value(), 241.5);
  reg.gauge("fmax").Add(-1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("fmax").value(), 240.0);
}

TEST(Metrics, HistogramPercentilesNearestRank) {
  // Exact nearest rank is the shared helper's contract.
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.0), 1.0);  // rank clamps to 1
  EXPECT_DOUBLE_EQ(Percentile(sorted, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);

  // A registry histogram is log-bucketed: count/sum/min/max stay exact,
  // quantiles land within the documented 1%.
  Registry reg;
  Histogram& h = reg.histogram("lat");
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_NEAR(snap.p50, 50.0, 50.0 * 0.01);
  EXPECT_NEAR(snap.p95, 95.0, 95.0 * 0.01);
  EXPECT_NEAR(snap.p99, 99.0, 99.0 * 0.01);
}

TEST(Metrics, HistogramSingleSample) {
  Registry reg;
  reg.histogram("x").Observe(7.0);
  const auto snap = reg.histogram("x").snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_DOUBLE_EQ(snap.p50, 7.0);
  EXPECT_DOUBLE_EQ(snap.p95, 7.0);
  EXPECT_DOUBLE_EQ(snap.p99, 7.0);
  EXPECT_DOUBLE_EQ(snap.max, 7.0);
}

TEST(Metrics, SeriesKeyOrdersLabels) {
  EXPECT_EQ(SeriesKey("m", {}), "m");
  // std::map iteration order is key order, so the rendering is canonical.
  EXPECT_EQ(SeriesKey("m", {{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
}

TEST(Metrics, CurrentFallsBackToDefault) {
  EXPECT_EQ(Registry::Current(), &Registry::Default());
  Telemetry telemetry;
  {
    ScopedTelemetry scoped(&telemetry);
    EXPECT_EQ(Registry::Current(), &telemetry.registry);
    EXPECT_EQ(Tracer::Current(), &telemetry.tracer);
  }
  EXPECT_EQ(Registry::Current(), &Registry::Default());
  EXPECT_EQ(Tracer::Current(), nullptr);
}

// ------------------------------------------------------------------ spans

TEST(Spans, NestingDepthAndArgs) {
  Telemetry telemetry;
  {
    ScopedTelemetry scoped(&telemetry);
    ScopedSpan outer("compile", "phase");
    {
      ScopedSpan inner("fusion", "phase");
      inner.Arg("nodes", std::int64_t{12});
    }
    outer.Arg("ok", "true");
  }
  const auto& spans = telemetry.tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Spans are recorded in open order.
  EXPECT_EQ(spans[0].name, "compile");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "fusion");
  EXPECT_EQ(spans[1].depth, 1);
  ASSERT_EQ(spans[1].args.size(), 1u);
  EXPECT_EQ(spans[1].args[0].first, "nodes");
  EXPECT_EQ(spans[1].args[0].second, "12");
  // Inner span closed first, so its duration fits inside the outer's.
  EXPECT_GE(spans[0].dur_us, spans[1].dur_us);
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
}

TEST(Spans, NoopWithoutCurrentTracer) {
  ASSERT_EQ(Tracer::Current(), nullptr);
  ScopedSpan span("orphan", "test");  // must not crash or record anywhere
  span.Arg("k", "v");
}

// ------------------------------------------------------------------- json

TEST(Json, EscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape("\r\n\b\f"), "\\r\\n\\b\\f");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
}

TEST(Json, ParserRoundTripsEscapes) {
  const std::string doc =
      "{\"s\":\"" + JsonEscape("k\"1\"\t\n\x01") + "\",\"n\":-2.5,"
      "\"b\":true,\"z\":null,\"a\":[1,2,3]}";
  const auto parsed = json::Parse(doc);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->kind, json::Value::Kind::kObject);
  const auto* s = parsed->Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->str, "k\"1\"\t\n\x01");
  EXPECT_DOUBLE_EQ(parsed->Find("n")->number, -2.5);
  EXPECT_TRUE(parsed->Find("b")->boolean);
  EXPECT_EQ(parsed->Find("z")->kind, json::Value::Kind::kNull);
  ASSERT_EQ(parsed->Find("a")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed->Find("a")->array[2].number, 3.0);
}

TEST(Json, ParserRejectsMalformed) {
  EXPECT_FALSE(json::Parse("{").has_value());
  EXPECT_FALSE(json::Parse("{}extra").has_value());
  EXPECT_FALSE(json::Parse("{\"a\":}").has_value());
  EXPECT_FALSE(json::Parse("[1,]").has_value());
}

TEST(Json, RegistryToJsonParses) {
  Registry reg;
  reg.counter("ir.pass.applied", {{"pass", "SplitLoop"}}).Add(4);
  reg.gauge("synth.fmax_mhz").Set(241.0);
  for (int i = 0; i < 10; ++i) {
    reg.histogram("synth.kernel.aluts").Observe(1000.0 * i);
  }

  const auto parsed = json::Parse(reg.ToJson());
  ASSERT_TRUE(parsed.has_value());
  const auto* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->array.size(), 1u);
  EXPECT_EQ(counters->array[0].Find("name")->str, "ir.pass.applied");
  EXPECT_EQ(counters->array[0].Find("labels")->Find("pass")->str, "SplitLoop");
  EXPECT_DOUBLE_EQ(counters->array[0].Find("value")->number, 4.0);

  const auto* gauges = parsed->Find("gauges");
  ASSERT_EQ(gauges->array.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges->array[0].Find("value")->number, 241.0);

  const auto* hists = parsed->Find("histograms");
  ASSERT_EQ(hists->array.size(), 1u);
  EXPECT_DOUBLE_EQ(hists->array[0].Find("count")->number, 10.0);
  EXPECT_DOUBLE_EQ(hists->array[0].Find("max")->number, 9000.0);
  // Nearest-rank p99 of {0, 1000, ..., 9000} is the last sample; the
  // log-bucketed histogram reports it within 1%.
  ASSERT_NE(hists->array[0].Find("p99"), nullptr);
  EXPECT_NEAR(hists->array[0].Find("p99")->number, 9000.0, 90.0);
}

// --------------------------------------------------------- chrome trace

TEST(Trace, MergedCompileRuntimeTraceIsValidJson) {
  ocl::EventPool events;
  events.Record("k_conv\"1\"", ocl::CommandKind::kKernel, 0, SimTime::Us(1),
                SimTime::Us(2), SimTime::Us(5), kSimTimeZero, 0, 0, 0, 0);

  Telemetry telemetry;
  {
    ScopedTelemetry scoped(&telemetry);
    ScopedSpan compile("compile", "phase");
    ScopedSpan fusion("fusion", "phase");
    fusion.Arg("nodes", std::int64_t{7});
  }

  const std::string trace = ocl::ExportChromeTrace(
      events, telemetry.tracer.spans(), "net@board");
  const auto parsed = json::Parse(trace);
  ASSERT_TRUE(parsed.has_value()) << trace;
  const auto* top = parsed->Find("traceEvents");
  ASSERT_NE(top, nullptr);
  // 2 process_name metadata + 2 compile spans + 1 runtime event + 2
  // occupancy counter samples (one kernel: +1 at start, -1 at end).
  ASSERT_EQ(top->array.size(), 7u);

  int metadata = 0, compile_spans = 0, runtime_events = 0, counters = 0;
  for (const auto& ev : top->array) {
    const auto* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M") {
      ++metadata;
    } else if (ph->str == "C") {
      ++counters;
      EXPECT_EQ(ev.Find("name")->str, "queue occupancy");
      EXPECT_NE(ev.Find("args")->Find("commands"), nullptr);
    } else {
      ASSERT_EQ(ph->str, "X");
      const double pid = ev.Find("pid")->number;
      if (pid == 1.0) {
        ++compile_spans;
        EXPECT_NE(ev.Find("args")->Find("depth"), nullptr);
      } else {
        EXPECT_DOUBLE_EQ(pid, 2.0);
        ++runtime_events;
        EXPECT_EQ(ev.Find("name")->str, "k_conv\"1\"");
        EXPECT_DOUBLE_EQ(ev.Find("dur")->number, 3.0);
      }
    }
  }
  EXPECT_EQ(metadata, 2);
  EXPECT_EQ(compile_spans, 2);
  EXPECT_EQ(runtime_events, 1);
  EXPECT_EQ(counters, 2);
}

TEST(Trace, EmptyEventListIsValidJson) {
  const std::string trace =
      ocl::ExportChromeTrace(ocl::EventPool{}, {}, "empty@board");
  const auto parsed = json::Parse(trace);
  ASSERT_TRUE(parsed.has_value()) << trace;
  // Only the process_name metadata event; no counters for no events.
  ASSERT_EQ(parsed->Find("traceEvents")->array.size(), 1u);
}

TEST(Trace, NoCompileSpansKeepsSingleProcessLayout) {
  ocl::EventPool events;
  events.Record("k_a", ocl::CommandKind::kKernel, 0, SimTime::Us(0),
                SimTime::Us(1), SimTime::Us(3), kSimTimeZero, 0, 0, 0, 0);
  // Both call shapes (spans omitted, spans empty) give one byte-identical
  // single-process trace: the runtime named `process_name` on pid 1.
  const std::string omitted = ocl::ExportChromeTrace(events);
  EXPECT_EQ(omitted, ocl::ExportChromeTrace(events, {}, "clflow"));
  const auto parsed = json::Parse(omitted);
  ASSERT_TRUE(parsed.has_value()) << omitted;
  int metadata = 0;
  for (const auto& ev : parsed->Find("traceEvents")->array) {
    EXPECT_DOUBLE_EQ(ev.Find("pid")->number, 1.0);
    if (ev.Find("ph")->str == "M") {
      ++metadata;
      EXPECT_EQ(ev.Find("args")->Find("name")->str, "clflow");
    }
  }
  EXPECT_EQ(metadata, 1);

  // A compile span switches to the two-process layout.
  std::vector<SpanRecord> spans(1);
  spans[0].name = "compile";
  spans[0].category = "compile";
  const std::string merged = ocl::ExportChromeTrace(events, spans);
  EXPECT_NE(merged.find("clflow compile (wall clock)"), std::string::npos);
  EXPECT_NE(merged.find("clflow runtime (simulated clock)"),
            std::string::npos);
}

TEST(Trace, ZeroDurationEventContributesNoOccupancy) {
  ocl::EventPool events;
  events.Record("k_instant", ocl::CommandKind::kKernel, 0, SimTime::Us(1),
                SimTime::Us(2), SimTime::Us(2), kSimTimeZero, 0, 0, 0, 0);
  const std::string trace = ocl::ExportChromeTrace(events, {}, "z@board");
  const auto parsed = json::Parse(trace);
  ASSERT_TRUE(parsed.has_value()) << trace;
  for (const auto& ev : parsed->Find("traceEvents")->array) {
    if (ev.Find("ph")->str != "C") continue;
    // +1 and -1 at the same instant merge to a zero sample.
    EXPECT_DOUBLE_EQ(ev.Find("args")->Find("commands")->number, 0.0);
  }
}

TEST(Trace, StallRendersAsDistinguishableSlice) {
  ocl::EventPool events;
  // Dispatched at 4us, blocked on channels until 10us, done at 16us.
  events.Record("k_stalled", ocl::CommandKind::kKernel, 1, SimTime::Us(3),
                SimTime::Us(10), SimTime::Us(16), SimTime::Us(6), 0, 0, 0, 0);
  const std::string trace = ocl::ExportChromeTrace(events, {}, "s@board");
  const auto parsed = json::Parse(trace);
  ASSERT_TRUE(parsed.has_value()) << trace;
  const json::Value* stall = nullptr;
  const json::Value* kernel = nullptr;
  for (const auto& ev : parsed->Find("traceEvents")->array) {
    if (ev.Find("ph")->str != "X") continue;
    if (ev.Find("name")->str == "k_stalled [stall]") stall = &ev;
    if (ev.Find("name")->str == "k_stalled") kernel = &ev;
  }
  ASSERT_NE(stall, nullptr);
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(stall->Find("cat")->str, "stall");
  EXPECT_DOUBLE_EQ(stall->Find("ts")->number, 4.0);
  EXPECT_DOUBLE_EQ(stall->Find("dur")->number, 6.0);
  // Same lane, and the stall ends exactly where the kernel slice begins.
  EXPECT_DOUBLE_EQ(stall->Find("tid")->number, kernel->Find("tid")->number);
  EXPECT_DOUBLE_EQ(kernel->Find("ts")->number, 10.0);
  EXPECT_DOUBLE_EQ(kernel->Find("dur")->number, 6.0);
}

TEST(Trace, TransferBytesCounterAndEscapedLabelsRoundTrip) {
  ocl::EventPool events;
  events.Record("h2d \"in\"\n", ocl::CommandKind::kWriteBuffer, 0,
                kSimTimeZero, SimTime::Us(0), SimTime::Us(4), kSimTimeZero,
                4096, 0, 0, 0);
  events.Record("d2h", ocl::CommandKind::kReadBuffer, 0, SimTime::Us(2),
                SimTime::Us(2), SimTime::Us(6), kSimTimeZero, 1024, 0, 0, 0);
  const std::string trace = ocl::ExportChromeTrace(events, {}, "x@board");
  const auto parsed = json::Parse(trace);
  ASSERT_TRUE(parsed.has_value()) << trace;
  bool saw_label = false;
  std::vector<double> samples;
  for (const auto& ev : parsed->Find("traceEvents")->array) {
    if (ev.Find("ph")->str == "X" && ev.Find("name")->str == "h2d \"in\"\n") {
      saw_label = true;  // escaping round-tripped through the parser
    }
    if (ev.Find("ph")->str == "C" &&
        ev.Find("name")->str == "outstanding transfer bytes") {
      samples.push_back(ev.Find("args")->Find("bytes")->number);
    }
  }
  EXPECT_TRUE(saw_label);
  // ts 0: +4096; ts 2: +1024; ts 4: -4096; ts 6: back to zero.
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_DOUBLE_EQ(samples[0], 4096.0);
  EXPECT_DOUBLE_EQ(samples[1], 5120.0);
  EXPECT_DOUBLE_EQ(samples[2], 1024.0);
  EXPECT_DOUBLE_EQ(samples[3], 0.0);
}

TEST(Trace, TimestampsPastOneSecondStayExact) {
  // Back-to-back commands from 1234567.891 us on: past 1 s a writer that
  // keeps six significant digits rounds ts to 10 us, and consecutive
  // slices on one queue overlap.
  ocl::EventPool events;
  std::vector<std::pair<double, double>> expected;  // (ts, dur) per slice
  SimTime t = SimTime::Us(1234567.891);
  for (int i = 0; i < 8; ++i) {
    const SimTime stall = i % 3 == 1 ? SimTime::Ps(1500001) : kSimTimeZero;
    const SimTime start = t + stall;
    const SimTime end = start + SimTime::Ps(28458300 + 7919 * i);
    events.Record("k_" + std::to_string(i), ocl::CommandKind::kKernel, 0, t,
                  start, end, stall, 0, 0, 0, 0);
    if (stall > kSimTimeZero) expected.emplace_back(t.us(), stall.us());
    expected.emplace_back(start.us(), (end - start).us());
    t = end;
  }
  const std::string trace = ocl::ExportChromeTrace(events, {}, "late@board");
  const auto parsed = json::Parse(trace);
  ASSERT_TRUE(parsed.has_value()) << trace;
  std::vector<std::pair<double, double>> slices;
  for (const auto& ev : parsed->Find("traceEvents")->array) {
    if (ev.Find("ph")->str != "X") continue;
    EXPECT_DOUBLE_EQ(ev.Find("tid")->number, 1.0);
    slices.emplace_back(ev.Find("ts")->number, ev.Find("dur")->number);
  }
  ASSERT_EQ(slices.size(), expected.size());
  for (std::size_t i = 0; i < slices.size(); ++i) {
    // Exact: JSON carries SimTime::us() bit for bit.
    EXPECT_EQ(slices[i].first, expected[i].first) << "slice " << i;
    EXPECT_EQ(slices[i].second, expected[i].second) << "slice " << i;
    if (i > 0) {
      // No slice starts before its predecessor ends (1 ps of slack for
      // the double sum ts + dur).
      EXPECT_GE(slices[i].first,
                slices[i - 1].first + slices[i - 1].second - 1e-6)
          << "slice " << i;
    }
  }
}

// ------------------------------------------------- Prometheus export

TEST(Metrics, ToPrometheusExposesAllMetricKinds) {
  Registry reg;
  reg.counter("compile.cache.hits").Add(3);
  reg.gauge("telemetry.slo.burn_rate", {{"board", "s10mx"}}).Set(1.5);
  Histogram& h = reg.histogram("telemetry.slo.latency_us");
  for (int i = 1; i <= 100; ++i) h.Observe(i);

  const std::string text = reg.ToPrometheus();
  // Dots fold to underscores; counters/gauges typed; labels preserved.
  EXPECT_NE(text.find("# TYPE compile_cache_hits counter"),
            std::string::npos);
  EXPECT_NE(text.find("compile_cache_hits 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE telemetry_slo_burn_rate gauge"),
            std::string::npos);
  EXPECT_NE(text.find("telemetry_slo_burn_rate{board=\"s10mx\"} 1.5"),
            std::string::npos);
  // Histograms export as summaries: quantiles plus _sum/_count.
  EXPECT_NE(text.find("# TYPE telemetry_slo_latency_us summary"),
            std::string::npos);
  // Quantile samples are log-bucketed: within 1% of the exact rank.
  auto quantile = [&text](const std::string& q) {
    const std::string key = "telemetry_slo_latency_us{quantile=\"" + q + "\"} ";
    const std::size_t pos = text.find(key);
    EXPECT_NE(pos, std::string::npos) << key;
    return pos == std::string::npos
               ? 0.0
               : std::stod(text.substr(pos + key.size()));
  };
  EXPECT_NEAR(quantile("0.5"), 50.0, 50.0 * 0.01);
  EXPECT_NEAR(quantile("0.99"), 99.0, 99.0 * 0.01);
  EXPECT_NE(text.find("telemetry_slo_latency_us_count 100"),
            std::string::npos);
  EXPECT_NE(text.find("telemetry_slo_latency_us_sum 5050"),
            std::string::npos);
}

TEST(Metrics, ToPrometheusDeduplicatesTypeHeadersAcrossLabelSets) {
  Registry reg;
  reg.gauge("queue.busy", {{"queue", "0"}}).Set(1.0);
  reg.gauge("queue.busy", {{"queue", "1"}}).Set(2.0);
  const std::string text = reg.ToPrometheus();
  std::size_t headers = 0;
  for (std::size_t pos = 0;
       (pos = text.find("# TYPE queue_busy gauge", pos)) != std::string::npos;
       ++pos) {
    ++headers;
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_NE(text.find("queue_busy{queue=\"0\"} 1"), std::string::npos);
  EXPECT_NE(text.find("queue_busy{queue=\"1\"} 2"), std::string::npos);
}

TEST(Metrics, BucketedHistogramQuantilesWithinOnePercent) {
  // A (log-bucketed) registry histogram must track exact nearest-rank
  // quantiles to within 1% relative error -- the obs v2 drift gate that
  // lets serving paths keep no samples.
  Registry reg;
  Histogram& bucketed = reg.histogram("bucketed");
  std::vector<double> exact;
  double exact_sum = 0.0;
  Rng rng(2021);
  for (int i = 0; i < 5000; ++i) {
    const double v = std::exp(rng.NextDouble() * 8.0);
    bucketed.Observe(v);
    exact.push_back(v);
    exact_sum += v;
  }
  std::sort(exact.begin(), exact.end());
  const auto b = bucketed.snapshot();
  EXPECT_EQ(b.count, static_cast<std::int64_t>(exact.size()));
  EXPECT_NEAR(b.sum, exact_sum, std::abs(exact_sum) * 1e-12);
  EXPECT_DOUBLE_EQ(b.min, exact.front());
  EXPECT_DOUBLE_EQ(b.max, exact.back());
  for (const auto& [q, got] : {std::pair{0.50, b.p50}, std::pair{0.95, b.p95},
                               std::pair{0.99, b.p99}}) {
    const double want = Percentile(exact, q);
    EXPECT_LT(std::abs(got - want) / want, 0.01) << "q=" << q;
  }
}

TEST(Metrics, ToPrometheusEscapesLabelValues) {
  Registry reg;
  reg.gauge("esc", {{"path", "a\\b"}, {"msg", "say \"hi\"\nbye"}}).Set(1.0);
  const std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("msg=\"say \\\"hi\\\"\\nbye\""), std::string::npos);
  EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos);
  // The raw newline must never appear inside a sample line.
  EXPECT_EQ(text.find("say \"hi\"\n"), std::string::npos);
}

TEST(Metrics, ToPrometheusExportsSeriesWithProperLabels) {
  // Dimensions ride in labels (ha_board_state{board="s10sx0"}), never in
  // the metric name; counter series get a _total plus a windowed
  // _rate_per_s, gauge series export their latest value.
  Registry reg;
  const WindowSpec ws{SimTime::Ms(1.0), 8};
  TimeSeries& reqs =
      reg.series("serve.arrivals", {}, TimeSeries::Kind::kCounter, ws);
  for (int i = 0; i < 10; ++i) {
    reqs.Record(SimTime::Us(100.0 * i + 50.0));
  }
  reg.series("ha.board.state", {{"board", "s10sx0"}},
             TimeSeries::Kind::kGauge, ws)
      .Record(SimTime::Ms(0.5), 2.0);
  reg.series("ha.board.state", {{"board", "s10sx1"}},
             TimeSeries::Kind::kGauge, ws)
      .Record(SimTime::Ms(0.5), 0.0);

  const std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("# TYPE serve_arrivals_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("serve_arrivals_total 10"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_arrivals_rate_per_s gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ha_board_state gauge"), std::string::npos);
  EXPECT_NE(text.find("ha_board_state{board=\"s10sx0\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ha_board_state{board=\"s10sx1\"} 0"),
            std::string::npos);
  // One TYPE header even with two labeled board series.
  std::size_t headers = 0;
  for (std::size_t pos = 0;
       (pos = text.find("# TYPE ha_board_state gauge", pos)) !=
       std::string::npos;
       ++pos) {
    ++headers;
  }
  EXPECT_EQ(headers, 1u);
}

TEST(Metrics, RegistrySeriesFixesKindAndSpecOnFirstUse) {
  Registry reg;
  const WindowSpec ws{SimTime::Us(100.0), 4};
  TimeSeries& s =
      reg.series("s", {}, TimeSeries::Kind::kGauge, ws);
  // A later call with different arguments returns the same instance.
  TimeSeries& again = reg.series("s", {}, TimeSeries::Kind::kCounter,
                                 WindowSpec{SimTime::Ms(5.0), 99});
  EXPECT_EQ(&s, &again);
  EXPECT_EQ(again.kind(), TimeSeries::Kind::kGauge);
  EXPECT_EQ(again.spec().windows, 4u);
  const auto keys = reg.SeriesKeys();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].first, "s");
}

// ------------------------------------- flow-id determinism vs DSE jobs

TEST(Trace, FlowEventIdsAreIdenticalAcrossDseJobCounts) {
  // The whole causal-tracing pipeline must be thread-count invariant:
  // explore tilings serially and with every hardware thread, deploy each
  // winner, and demand the runtime Chrome traces -- flow-event ids
  // included -- come out byte-identical.
  Rng rng(7);
  graph::Graph net = nets::BuildLeNet5(rng);
  const Shape& in_shape = net.node(net.input_id()).output_shape;
  Rng img_rng(3);
  Tensor image = Tensor::Random(in_shape, img_rng, 0.0f, 1.0f);

  auto trace_with_jobs = [&](int jobs) {
    core::DseOptions dopts;
    dopts.jobs = jobs;
    const auto dse =
        core::ExploreFoldedTilings(net, fpga::Stratix10SX(), dopts);
    EXPECT_FALSE(dse.ranked.empty());
    core::DeployOptions opts;
    opts.mode = core::ExecutionMode::kFolded;
    opts.recipe = dse.BestRecipe("s10sx");
    opts.board = fpga::Stratix10SX();
    auto d = core::Deployment::Compile(net, opts);
    EXPECT_TRUE(d.ok());
    for (int i = 0; i < 2; ++i) (void)d.Run(image, /*functional=*/false);
    return ocl::ExportChromeTrace(d.runtime().event_pool());
  };

  const std::string serial = trace_with_jobs(1);
  const std::string parallel = trace_with_jobs(HardwareThreads());
  EXPECT_EQ(serial, parallel);

  // And the flow arrows are actually present in what we compared.
  EXPECT_NE(serial.find("\"ph\":\"s\",\"id\":1"), std::string::npos);
  EXPECT_NE(serial.find("\"ph\":\"s\",\"id\":2"), std::string::npos);
}

}  // namespace
}  // namespace clflow::obs
