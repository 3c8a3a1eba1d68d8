// Tests for the benchmark results/baseline machinery: the bench::Args /
// bench::JsonObj / bench::Recorder write side (bench/bench_common.hpp) and
// the benchlib parse + compare read side behind `ncbench --check` and
// `ncstat --diff`.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.hpp"
#include "tools/benchlib/baseline.hpp"
#include "tools/benchlib/records.hpp"
#include "tools/benchlib/trend.hpp"
#include "tools/cli.hpp"

namespace {

// ---------------------------------------------------------------------------
// bench::RankBlock: the Figure 5 partitions at any process count

TEST(BenchDecompose, BlocksCoverEveryElementExactlyOnce) {
  const std::uint64_t dims[3] = {256, 256, 128};  // tt(Z, Y, X)
  std::vector<std::uint8_t> hits(dims[0] * dims[1] * dims[2]);
  for (const int np : {1, 2, 3, 4, 6, 8, 16, 256}) {
    for (const auto& part : bench::kPartitions) {
      std::fill(hits.begin(), hits.end(), std::uint8_t{0});
      for (int r = 0; r < np; ++r) {
        const bench::Block b = bench::RankBlock(np, part.mask, r, dims);
        for (std::uint64_t z = 0; z < b.count[0]; ++z)
          for (std::uint64_t y = 0; y < b.count[1]; ++y)
            for (std::uint64_t x = 0; x < b.count[2]; ++x)
              ++hits[((b.start[0] + z) * dims[1] + b.start[1] + y) * dims[2] +
                     b.start[2] + x];
      }
      const auto bad = std::count_if(hits.begin(), hits.end(),
                                     [](std::uint8_t h) { return h != 1; });
      EXPECT_EQ(bad, 0) << part.name << " at " << np << " procs";
      EXPECT_EQ(bench::CoveredElems(np, part.mask, dims), hits.size())
          << part.name << " at " << np << " procs";
    }
  }
}

// ---------------------------------------------------------------------------
// bench::Args flag validation

TEST(BenchArgs, UnknownFlagsRejectsTypos) {
  bench::Args args({"--size=64mb", "--proc=8", "stray", "--quick"});
  const auto unknown = args.UnknownFlags({"size", "procs", "quick"});
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "--proc=8");
  EXPECT_EQ(unknown[1], "stray");
}

TEST(BenchArgs, UnknownFlagsPrefixWildcard) {
  bench::Args args({"--benchmark_filter=BM_Foo", "--benchmark_repetitions=3",
                    "--benchmike=1"});
  const auto unknown = args.UnknownFlags({"benchmark_*"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "--benchmike=1");
}

TEST(BenchArgs, GetAndHas) {
  bench::Args args({"--op=write", "--quick"});
  EXPECT_EQ(args.Get("op", "read"), "write");
  EXPECT_EQ(args.Get("missing", "fallback"), "fallback");
  EXPECT_TRUE(args.Has("quick"));
  EXPECT_FALSE(args.Has("op"));  // value flags are not boolean flags
}

// ---------------------------------------------------------------------------
// bench::JsonObj escaping -> benchlib parser round-trip

TEST(JsonObj, EscapesControlCharactersAndQuotes) {
  const std::string nasty = std::string("a\"b\\c\nd\te\x01" "f");
  const std::string text = bench::JsonObj().Str("k", nasty).str();
  EXPECT_EQ(text,
            "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
}

TEST(JsonObj, RoundTripsThroughRecordParser) {
  const std::string nasty = std::string("quote\" back\\ nl\n bell\x07 end");
  const std::string line =
      "{\"schema\":\"pnc-bench-v1\",\"bench\":\"esc\",\"config\":" +
      bench::JsonObj().Str("label", nasty).str() +
      ",\"metrics\":" + bench::JsonObj().Num("mbps", 1.5).str() + "}\n";
  auto parsed = benchlib::ParseResults(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed.value().records.size(), 1u);
  const benchlib::Record& rec = parsed.value().records[0];
  EXPECT_EQ(rec.bench, "esc");
  ASSERT_EQ(rec.metrics.size(), 1u);
  EXPECT_EQ(rec.metrics[0].first, "mbps");
  EXPECT_DOUBLE_EQ(rec.metrics[0].second, 1.5);
  // The raw config text still carries the escapes (identity matching works
  // on the raw text, so it only has to be stable, not decoded).
  EXPECT_NE(rec.config_text.find("\\u0007"), std::string::npos);
}

// ---------------------------------------------------------------------------
// bench::Recorder I/O failure propagation

TEST(Recorder, EndConfigPropagatesOpenFailure) {
  // A path inside a nonexistent directory: fopen(…, "a") must fail.
  bench::Recorder rec("/nonexistent-dir-for-benchlib-test/out.json", "t");
  ASSERT_TRUE(rec.enabled());
  rec.BeginConfig();
  const bool ok =
      rec.EndConfig(bench::JsonObj().Str("cfg", "x"),
                    bench::JsonObj().Num("mbps", 1.0));
  EXPECT_FALSE(ok);
  EXPECT_TRUE(rec.io_failed());  // sticky: RunBench turns this into exit 2
}

TEST(Recorder, DisabledRecorderIsANoOp) {
  bench::Recorder rec(bench::Args(std::vector<std::string>{}), "t");
  EXPECT_FALSE(rec.enabled());
  EXPECT_TRUE(rec.EndConfig(bench::JsonObj(), bench::JsonObj()));
  EXPECT_FALSE(rec.io_failed());
}

// ---------------------------------------------------------------------------
// Comparator

std::string Line(const std::string& bench, const std::string& cfg_kv,
                 const std::string& metrics_body) {
  return "{\"schema\":\"pnc-bench-v1\",\"bench\":\"" + bench +
         "\",\"config\":{" + cfg_kv + "},\"metrics\":{" + metrics_body +
         "}}\n";
}

benchlib::ResultsFile Parse(const std::string& text) {
  auto r = benchlib::ParseResults(text);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.ok() ? r.value() : benchlib::ResultsFile{};
}

TEST(Compare, MatchesByBenchAndConfigNotPosition) {
  // Same records, opposite file order: everything must still match.
  const auto base = Parse(Line("b", "\"n\":1", "\"mbps\":10") +
                          Line("b", "\"n\":2", "\"mbps\":20"));
  const auto cur = Parse(Line("b", "\"n\":2", "\"mbps\":20") +
                         Line("b", "\"n\":1", "\"mbps\":10"));
  const auto res = benchlib::Compare(base, cur, 0.0);
  EXPECT_TRUE(res.Passed());
  EXPECT_EQ(res.num_ok, 2);
  EXPECT_EQ(res.ExitCode(), nctools::kExitOk);
}

TEST(Compare, ExactEqualityPassesAtZeroTolerance) {
  const auto base = Parse(Line("b", "\"n\":1", "\"mbps\":10.123456789"));
  const auto res = benchlib::Compare(base, base, 0.0);
  EXPECT_TRUE(res.Passed());
}

TEST(Compare, ToleranceEdges) {
  const auto base = Parse(Line("b", "\"n\":1", "\"mbps\":100"));
  const auto cur = Parse(Line("b", "\"n\":1", "\"mbps\":95"));  // -5%
  // Exactly at tolerance: |delta| > tol is the regression test, so 5% passes.
  EXPECT_TRUE(benchlib::Compare(base, cur, 5.0).Passed());
  // Just inside a tighter gate it fails.
  EXPECT_FALSE(benchlib::Compare(base, cur, 4.99).Passed());
  // Zero tolerance demands equality.
  EXPECT_FALSE(benchlib::Compare(base, cur, 0.0).Passed());
}

TEST(Compare, DirectionRules) {
  // mbps: higher is better, so an increase is an improvement (never fatal)…
  {
    const auto base = Parse(Line("b", "\"n\":1", "\"mbps\":100"));
    const auto cur = Parse(Line("b", "\"n\":1", "\"mbps\":150"));
    const auto res = benchlib::Compare(base, cur, 1.0);
    EXPECT_TRUE(res.Passed());
    EXPECT_EQ(res.num_improved, 1);
  }
  // …and a cost-like metric (ms) regresses when it grows.
  {
    const auto base = Parse(Line("b", "\"n\":1", "\"ms\":100"));
    const auto cur = Parse(Line("b", "\"n\":1", "\"ms\":150"));
    const auto res = benchlib::Compare(base, cur, 1.0);
    EXPECT_FALSE(res.Passed());
    EXPECT_EQ(res.num_regressed, 1);
  }
  EXPECT_EQ(benchlib::MetricDirection("mbps"),
            benchlib::Direction::kHigherIsBetter);
  EXPECT_EQ(benchlib::MetricDirection("read_speedup"),
            benchlib::Direction::kHigherIsBetter);
  EXPECT_EQ(benchlib::MetricDirection("iostat.pfs_bytes"),
            benchlib::Direction::kLowerIsBetter);
  EXPECT_EQ(benchlib::MetricDirection("ms"),
            benchlib::Direction::kLowerIsBetter);
}

TEST(Compare, MissingRecordFails) {
  const auto base = Parse(Line("b", "\"n\":1", "\"mbps\":10") +
                          Line("b", "\"n\":2", "\"mbps\":20"));
  const auto cur = Parse(Line("b", "\"n\":1", "\"mbps\":10"));
  const auto res = benchlib::Compare(base, cur, 0.0);
  EXPECT_FALSE(res.Passed());
  EXPECT_EQ(res.num_missing, 1);
  EXPECT_EQ(res.ExitCode(), nctools::kExitCondition);
}

TEST(Compare, UnmatchedNewRecordFails) {
  const auto base = Parse(Line("b", "\"n\":1", "\"mbps\":10"));
  const auto cur = Parse(Line("b", "\"n\":1", "\"mbps\":10") +
                         Line("b", "\"n\":2", "\"mbps\":20"));
  const auto res = benchlib::Compare(base, cur, 0.0);
  EXPECT_FALSE(res.Passed());
  EXPECT_EQ(res.num_new, 1);
  EXPECT_EQ(res.ExitCode(), nctools::kExitCondition);
}

TEST(Compare, ConfigChangeIsMissingPlusNew) {
  // A changed config is a different identity: old one missing, new one new.
  const auto base = Parse(Line("b", "\"n\":1", "\"mbps\":10"));
  const auto cur = Parse(Line("b", "\"n\":3", "\"mbps\":10"));
  const auto res = benchlib::Compare(base, cur, 0.0);
  EXPECT_EQ(res.num_missing, 1);
  EXPECT_EQ(res.num_new, 1);
  EXPECT_EQ(res.ExitCode(), nctools::kExitCondition);
}

TEST(Compare, MetricAbsentFromCurrentComparesAgainstZero) {
  const auto base = Parse(Line("b", "\"n\":1", "\"mbps\":10,\"ms\":5"));
  const auto cur = Parse(Line("b", "\"n\":1", "\"ms\":5"));
  const auto res = benchlib::Compare(base, cur, 0.0);
  // mbps 10 -> 0 is a drop in a higher-is-better metric: regression.
  EXPECT_FALSE(res.Passed());
}

TEST(Compare, RenderNamesTheRegressedMetric) {
  const auto base = Parse(Line("b", "\"n\":1", "\"mbps\":100"));
  const auto cur = Parse(Line("b", "\"n\":1", "\"mbps\":50"));
  const auto res = benchlib::Compare(base, cur, 0.0);
  const std::string table = benchlib::RenderDeltaTable(res);
  EXPECT_NE(table.find("FAIL"), std::string::npos);
  EXPECT_NE(table.find("mbps"), std::string::npos);
  EXPECT_NE(table.find("regression"), std::string::npos);
}

TEST(Compare, PassRenderHasNoRegressionSections) {
  const auto base = Parse(Line("b", "\"n\":1", "\"mbps\":100"));
  const auto res = benchlib::Compare(base, base, 0.0);
  const std::string table = benchlib::RenderDeltaTable(res);
  EXPECT_NE(table.find("PASS"), std::string::npos);
  EXPECT_EQ(table.find("REGRESSED"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parser edge cases

TEST(ParseResults, IgnoresChattyLinesButRejectsCorruptRecords) {
  const std::string ok_text =
      "PnetCDF reproduction - some banner\n\n" +
      Line("b", "\"n\":1", "\"mbps\":10") + "nprocs   serial   Z\n";
  EXPECT_TRUE(benchlib::ParseResults(ok_text).ok());
  EXPECT_EQ(Parse(ok_text).records.size(), 1u);

  // A line that claims the schema but is truncated is corrupt, not chatty.
  const std::string bad_text =
      "{\"schema\":\"pnc-bench-v1\",\"bench\":\"b\",\"config\":{\n";
  EXPECT_FALSE(benchlib::ParseResults(bad_text).ok());
}

TEST(ParseResults, ReadsSuiteHeader) {
  const std::string text =
      "{\"schema\":\"pnc-bench-suite-v1\",\"suite\":\"smoke\","
      "\"git_sha\":\"abc1234\",\"build\":\"RelWithDebInfo\","
      "\"platform\":\"simulated\",\"config\":{\"entries\":[]}}\n" +
      Line("b", "\"n\":1", "\"mbps\":10");
  const auto rf = Parse(text);
  EXPECT_TRUE(rf.header.present);
  EXPECT_EQ(rf.header.suite, "smoke");
  EXPECT_EQ(rf.header.git_sha, "abc1234");
  ASSERT_EQ(rf.records.size(), 1u);
}

TEST(LoadResults, MissingFileIsAnError) {
  EXPECT_FALSE(benchlib::LoadResults("/nonexistent/benchlib.json").ok());
}

// ---------------------------------------------------------------------------
// Round-trip over the committed smoke baseline (real ncbench output)

#ifdef PNC_SMOKE_BASELINE
TEST(SmokeBaseline, ParsesAndSelfCompares) {
  auto loaded = benchlib::LoadResults(PNC_SMOKE_BASELINE);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const benchlib::ResultsFile& rf = loaded.value();
  EXPECT_TRUE(rf.header.present);
  EXPECT_EQ(rf.header.suite, "smoke");
  ASSERT_GT(rf.records.size(), 10u);
  for (const benchlib::Record& rec : rf.records) {
    EXPECT_FALSE(rec.bench.empty());
    EXPECT_FALSE(rec.metrics.empty()) << rec.Key();
    // Every smoke record embeds a cross-rank iostat report, so the
    // comparator sees the health metrics, not just bandwidth.
    EXPECT_TRUE(rec.has_iostat) << rec.Key();
    EXPECT_GT(benchlib::ComparableMetrics(rec).size(), rec.metrics.size())
        << rec.Key();
  }
  // The baseline compared against itself is exact at zero tolerance.
  const auto res = benchlib::Compare(rf, rf, 0.0);
  EXPECT_TRUE(res.Passed());
  EXPECT_EQ(res.ExitCode(), nctools::kExitOk);
}
#endif

// ---------------------------------------------------------------------------
// Cross-run trend tracking (trend.hpp)

std::string SuiteHeader(const std::string& suite) {
  return "{\"schema\":\"pnc-bench-suite-v1\",\"suite\":\"" + suite +
         "\",\"git_sha\":\"0000000\",\"build\":\"RelWithDebInfo\","
         "\"platform\":\"simulated\",\"config\":{\"entries\":[]}}\n";
}

TEST(Trend, ParseHistorySplitsRunsAtSuiteHeaders) {
  const std::string text = "ncbench banner chatter\n" + SuiteHeader("smoke") +
                           Line("a", "\"n\":1", "\"mbps\":10") +
                           Line("b", "\"n\":1", "\"mbps\":20") +
                           SuiteHeader("smoke") +
                           Line("a", "\"n\":1", "\"mbps\":11");
  auto runs = benchlib::ParseHistory(text);
  ASSERT_TRUE(runs.ok()) << runs.status().message();
  ASSERT_EQ(runs.value().size(), 2u);
  EXPECT_EQ(runs.value()[0].records.size(), 2u);
  EXPECT_EQ(runs.value()[1].records.size(), 1u);
  EXPECT_TRUE(runs.value()[1].header.present);

  // A plain one-run results file (no header) is a valid one-run history.
  auto solo = benchlib::ParseHistory(Line("a", "\"n\":1", "\"mbps\":10"));
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(solo.value().size(), 1u);

  // A stamped record's meta carries the suite-schema string (see
  // bench_common.hpp); it must ride with its run, not start a new one.
  const std::string stamped =
      SuiteHeader("smoke") +
      "{\"schema\":\"pnc-bench-v1\",\"bench\":\"a\","
      "\"meta\":{\"suite_schema\":\"pnc-bench-suite-v1\",\"iostat\":true},"
      "\"config\":{\"n\":1},\"metrics\":{\"mbps\":10}}\n";
  auto one = benchlib::ParseHistory(stamped);
  ASSERT_TRUE(one.ok()) << one.status().message();
  ASSERT_EQ(one.value().size(), 1u);
  EXPECT_EQ(one.value()[0].records.size(), 1u);
}

TEST(Trend, BuildTrendFlagsInjectedRegressionDirectionAware) {
  // Three runs; the third injects a bandwidth drop (higher-is-better metric
  // falls 28%) and an amplification rise (lower-is-better metric grows
  // 30%). time_ns *improves*, which must never flag.
  std::vector<benchlib::ResultsFile> runs;
  runs.push_back(Parse(Line("wr", "\"n\":4",
                            "\"mbps\":100,\"amp\":1.0,\"time_ns\":100")));
  runs.push_back(Parse(Line("wr", "\"n\":4",
                            "\"mbps\":100,\"amp\":1.0,\"time_ns\":90")));
  runs.push_back(Parse(Line("wr", "\"n\":4",
                            "\"mbps\":72,\"amp\":1.3,\"time_ns\":50")));
  const benchlib::TrendReport rep = benchlib::BuildTrend(runs, 5.0);
  EXPECT_EQ(rep.num_runs, 3);
  EXPECT_FALSE(rep.Passed());
  EXPECT_EQ(rep.num_flagged, 2);
  ASSERT_EQ(rep.series.size(), 3u);
  for (const benchlib::TrendSeries& s : rep.series) {
    ASSERT_EQ(s.values.size(), 3u);
    if (s.metric == "mbps") {
      EXPECT_TRUE(s.flagged);
      EXPECT_DOUBLE_EQ(s.drift_pct, -28.0);
    } else if (s.metric == "amp") {
      EXPECT_TRUE(s.flagged);
      EXPECT_NEAR(s.drift_pct, 30.0, 1e-9);
    } else {
      EXPECT_EQ(s.metric, "time_ns");
      EXPECT_FALSE(s.flagged);  // -50% in the helpful direction
      EXPECT_DOUBLE_EQ(s.drift_pct, -50.0);
    }
  }

  const std::string text = benchlib::RenderTrend(rep);
  EXPECT_NE(text.find("trend: 3 runs, 3 series, 2 drifted"),
            std::string::npos);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  // Flagged series lead the report: the first row is a flagged one.
  EXPECT_LT(text.find("REGRESSED"), text.find("time_ns"));
}

TEST(Trend, DriftWithinToleranceOrSingleSampleDoesNotFlag) {
  std::vector<benchlib::ResultsFile> runs;
  runs.push_back(Parse(Line("wr", "\"n\":4", "\"mbps\":100") +
                       Line("rd", "\"n\":4", "\"mbps\":50")));
  runs.push_back(Parse(Line("wr", "\"n\":4", "\"mbps\":97")));
  const benchlib::TrendReport rep = benchlib::BuildTrend(runs, 5.0);
  EXPECT_TRUE(rep.Passed());  // -3% is inside the 5% tolerance
  EXPECT_EQ(rep.num_flagged, 0);

  // "rd" appears only in run 0: a single sample never drifts.
  const std::string text = benchlib::RenderTrend(rep);
  EXPECT_NE(text.find("(single sample)"), std::string::npos);
  EXPECT_EQ(text.find("REGRESSED"), std::string::npos);
}

}  // namespace
