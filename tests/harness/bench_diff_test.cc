// Tests for the bench-diff regression gate (harness/bench_diff.h): the
// JSON parser's error reporting, field classification, label-based run
// alignment, threshold semantics, and the exit-code contract the CI job
// relies on (0 clean / 1 soft / 2 hard).
#include "harness/bench_diff.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace aces::harness {
namespace {

BenchDiffResult diff_strings(const std::string& old_text,
                             const std::string& new_text,
                             const BenchDiffOptions& options = {}) {
  return bench_diff(parse_json(old_text), parse_json(new_text), options);
}

// ---------------------------------------------------------------- parser

TEST(ParseJson, RoundTripsScalarsAndStructure) {
  const JsonValue doc = parse_json(
      R"({"name":"x","n":3,"pi":3.5,"ok":true,"none":null,"xs":[1,2]})");
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.find("name")->text, "x");
  EXPECT_EQ(doc.find("n")->number, 3.0);
  EXPECT_EQ(doc.find("n")->text, "3");  // raw token preserved
  EXPECT_EQ(doc.find("pi")->number, 3.5);
  EXPECT_TRUE(doc.find("ok")->boolean);
  EXPECT_EQ(doc.find("none")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(doc.find("xs")->items.size(), 2u);
  EXPECT_EQ(doc.find("xs")->items[1].number, 2.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(ParseJson, PreservesMemberOrderAndEscapes) {
  const JsonValue doc = parse_json(R"({"b":"a\"b\n","a":1})");
  ASSERT_EQ(doc.members.size(), 2u);
  EXPECT_EQ(doc.members[0].first, "b");  // insertion order, not sorted
  EXPECT_EQ(doc.members[0].second.text, "a\"b\n");
}

TEST(ParseJson, ReportsTheOffendingLine) {
  try {
    parse_json("{\n  \"a\": 1,\n  \"b\": oops\n}");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(ParseJson, RejectsTrailingGarbage) {
  EXPECT_THROW(parse_json("{} {}"), std::runtime_error);
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
}

// ---------------------------------------------------------- classification

TEST(ClassifyBenchField, WorkTotalsAndIdentityAreHard) {
  EXPECT_EQ(classify_bench_field("bench"), BenchFieldClass::kHard);
  EXPECT_EQ(classify_bench_field("schema"), BenchFieldClass::kHard);
  EXPECT_EQ(classify_bench_field("perf.work.events_executed"),
            BenchFieldClass::kHard);
  EXPECT_EQ(classify_bench_field("per_run[tiny/aces/s0].sdos_processed"),
            BenchFieldClass::kHard);
  EXPECT_EQ(classify_bench_field("per_run[tiny/aces/s0].status"),
            BenchFieldClass::kHard);
  EXPECT_EQ(classify_bench_field("runs"), BenchFieldClass::kHard);
}

TEST(ClassifyBenchField, TimingAndMemoryAreSoft) {
  EXPECT_EQ(classify_bench_field("total_wall_ms"), BenchFieldClass::kSoft);
  EXPECT_EQ(classify_bench_field("per_run[x].wall_ms"),
            BenchFieldClass::kSoft);
  EXPECT_EQ(classify_bench_field("per_run[x].latency_p99"),
            BenchFieldClass::kSoft);
  EXPECT_EQ(classify_bench_field("perf.peak_rss_mb"), BenchFieldClass::kSoft);
  EXPECT_EQ(classify_bench_field("perf.alloc_count"), BenchFieldClass::kSoft);
}

TEST(ClassifyBenchField, ProbeTelemetryIsInformational) {
  EXPECT_EQ(classify_bench_field("perf.stages.calendar_insert.ns"),
            BenchFieldClass::kInfo);
  EXPECT_EQ(classify_bench_field("perf.events.buffer_pool_hit"),
            BenchFieldClass::kInfo);
  EXPECT_EQ(classify_bench_field("perf.instrumented"),
            BenchFieldClass::kInfo);
  EXPECT_EQ(classify_bench_field("jobs"), BenchFieldClass::kInfo);
}

// ------------------------------------------------------------------ diff

TEST(BenchDiff, IdenticalDocumentsAreClean) {
  const std::string doc =
      R"({"bench":"b","schema":1,"runs":2,"total_wall_ms":10.5,)"
      R"("perf":{"work":{"events_executed":100,"sdos_processed":50,)"
      R"("reoptimizations":2}},)"
      R"("per_run":[{"label":"a","wall_ms":5.0},{"label":"b","wall_ms":5.5}]})";
  const BenchDiffResult result = diff_strings(doc, doc);
  EXPECT_TRUE(result.hard.empty());
  EXPECT_TRUE(result.soft.empty());
  EXPECT_TRUE(result.info.empty());
  EXPECT_EQ(result.exit_code({}), 0);
  EXPECT_GT(result.compared_fields, 0);
}

TEST(BenchDiff, WorkTotalChangeIsHardAtAnyMagnitude) {
  const BenchDiffResult result = diff_strings(
      R"({"perf":{"work":{"events_executed":1000000}}})",
      R"({"perf":{"work":{"events_executed":1000001}}})");
  ASSERT_EQ(result.hard.size(), 1u);
  EXPECT_EQ(result.hard[0].path, "perf.work.events_executed");
  EXPECT_EQ(result.hard[0].old_value, "1000000");
  EXPECT_EQ(result.hard[0].new_value, "1000001");
  EXPECT_EQ(result.exit_code({}), 2);
}

TEST(BenchDiff, SoftFieldWithinThresholdIsIgnored) {
  const BenchDiffResult result = diff_strings(
      R"({"total_wall_ms":100.0})", R"({"total_wall_ms":110.0})");
  EXPECT_TRUE(result.hard.empty());
  EXPECT_TRUE(result.soft.empty());  // 10% < default 25%
  EXPECT_EQ(result.exit_code({}), 0);
}

TEST(BenchDiff, SoftFieldBeyondThresholdFailsSoft) {
  const BenchDiffResult result = diff_strings(
      R"({"total_wall_ms":100.0})", R"({"total_wall_ms":200.0})");
  ASSERT_EQ(result.soft.size(), 1u);
  EXPECT_NEAR(result.soft[0].relative_delta, 1.0, 1e-12);
  EXPECT_EQ(result.exit_code({}), 1);

  BenchDiffOptions hard_only;
  hard_only.hard_only = true;
  EXPECT_EQ(result.exit_code(hard_only), 0);

  BenchDiffOptions loose;
  loose.threshold = 2.0;
  EXPECT_TRUE(diff_strings(R"({"total_wall_ms":100.0})",
                           R"({"total_wall_ms":200.0})", loose)
                  .soft.empty());
}

TEST(BenchDiff, RunsAlignByLabelNotPosition) {
  const BenchDiffResult result = diff_strings(
      R"({"per_run":[{"label":"a","wall_ms":1.0,"events_executed":7},)"
      R"({"label":"b","wall_ms":2.0,"events_executed":9}]})",
      R"({"per_run":[{"label":"b","wall_ms":2.0,"events_executed":9},)"
      R"({"label":"a","wall_ms":1.0,"events_executed":7}]})");
  EXPECT_TRUE(result.hard.empty());
  EXPECT_TRUE(result.soft.empty());
  EXPECT_EQ(result.exit_code({}), 0);
}

TEST(BenchDiff, MissingRunIsHardInEitherDirection) {
  const std::string both =
      R"({"per_run":[{"label":"a","wall_ms":1.0},{"label":"b","wall_ms":2.0}]})";
  const std::string only_a = R"({"per_run":[{"label":"a","wall_ms":1.0}]})";
  const BenchDiffResult dropped = diff_strings(both, only_a);
  ASSERT_EQ(dropped.hard.size(), 1u);
  EXPECT_EQ(dropped.hard[0].path, "per_run[b]");
  EXPECT_EQ(dropped.hard[0].new_value, "(missing run)");
  EXPECT_EQ(dropped.exit_code({}), 2);

  const BenchDiffResult added = diff_strings(only_a, both);
  ASSERT_EQ(added.hard.size(), 1u);
  EXPECT_EQ(added.hard[0].old_value, "(missing run)");
}

TEST(BenchDiff, AlignedRunDiffsHardWithinTheRun) {
  const BenchDiffResult result = diff_strings(
      R"({"per_run":[{"label":"a","events_executed":7}]})",
      R"({"per_run":[{"label":"a","events_executed":8}]})");
  ASSERT_EQ(result.hard.size(), 1u);
  EXPECT_EQ(result.hard[0].path, "per_run[a].events_executed");
}

TEST(BenchDiff, NewSoftFieldIsSchemaGrowthNotRegression) {
  const BenchDiffResult result = diff_strings(
      R"({"bench":"b"})", R"({"bench":"b","total_wall_ms":5.0})");
  EXPECT_TRUE(result.hard.empty());
  EXPECT_TRUE(result.soft.empty());
  ASSERT_EQ(result.info.size(), 1u);
  EXPECT_EQ(result.info[0].old_value, "(absent)");
  EXPECT_EQ(result.exit_code({}), 0);
}

TEST(BenchDiff, VanishedHardFieldStaysHard) {
  const BenchDiffResult result = diff_strings(
      R"({"perf":{"work":{"events_executed":10}}})", R"({"perf":{"work":{}}})");
  ASSERT_EQ(result.hard.size(), 1u);
  EXPECT_EQ(result.hard[0].new_value, "(absent)");
  EXPECT_EQ(result.exit_code({}), 2);
}

TEST(BenchDiff, KindMismatchIsRecorded) {
  const BenchDiffResult result =
      diff_strings(R"({"bench":"b"})", R"({"bench":1})");
  ASSERT_EQ(result.hard.size(), 1u);
  EXPECT_EQ(result.hard[0].old_value, "\"b\"");
  EXPECT_EQ(result.hard[0].new_value, "1");
}

TEST(BenchDiff, ProbeTelemetryDriftNeverFails) {
  const BenchDiffResult result = diff_strings(
      R"({"perf":{"instrumented":true,"stages":)"
      R"({"calendar_insert":{"calls":10,"ns":500}},)"
      R"("events":{"buffer_pool_hit":9}}})",
      R"({"perf":{"instrumented":false,"stages":)"
      R"({"calendar_insert":{"calls":99,"ns":900}},)"
      R"("events":{"buffer_pool_hit":1}}})");
  EXPECT_TRUE(result.hard.empty());
  EXPECT_TRUE(result.soft.empty());
  EXPECT_FALSE(result.info.empty());
  EXPECT_EQ(result.exit_code({}), 0);
}

}  // namespace
}  // namespace aces::harness
