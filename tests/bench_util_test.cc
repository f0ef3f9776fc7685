// The component-bench harness (bench/bench_util.h): the BENCH_JSON writer
// must reproduce a pinned document byte for byte -- member order, per-key
// decimal precision, string escaping, nesting -- and refuse a non-finite
// number by naming its key path; the equivalence gates must exit 1 naming
// what diverged.

#include "bench/bench_util.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace sidq {
namespace bench {
namespace {

TEST(BenchJsonWriterTest, PinsOrderPrecisionEscapingAndNesting) {
  JsonWriter json;
  json.Str("bench", "demo")
      .Int("rows", 42)
      .Num("ratio", 1.0, 2)
      .Num("rate", 1234.6, 0)
      .Str("note", "say \"hi\"\\\n\x01")
      .Object("scan")
      .Num("seconds", 0.123456, 4)
      .Bool("ok", true)
      .End()
      .Array("points");
  json.Object().Int("threads", 1).Num("speedup", 0.949, 2).End();
  json.Object().Int("threads", 8).Num("speedup", 7.5, 2).End();
  json.End().Raw("metrics", R"({"counters":[]})");

  EXPECT_EQ(json.str(),
            R"({"bench":"demo","rows":42,"ratio":1.00,"rate":1235,)"
            R"("note":"say \"hi\"\\\n\u0001",)"
            R"("scan":{"seconds":0.1235,"ok":true},)"
            R"("points":[{"threads":1,"speedup":0.95},)"
            R"({"threads":8,"speedup":7.50}],)"
            R"("metrics":{"counters":[]}})");
}

TEST(BenchJsonWriterTest, StrClosesOpenContainers) {
  JsonWriter json;
  json.Object("outer").Array("list").Object().Bool("last", false);
  EXPECT_EQ(json.str(), R"({"outer":{"list":[{"last":false}]}})");
  // str() leaves the writer open: later members still land inside.
  json.Int("n", 2);
  EXPECT_EQ(json.str(), R"({"outer":{"list":[{"last":false,"n":2}]}})");
}

// Writes a two-row workload whose second speedup is `value`.
void WriteSpeedup(double value) {
  JsonWriter json;
  json.Object("workloads").Array("cpu_bound");
  json.Object().Num("speedup", 1.0, 2).End();
  json.Object().Num("speedup", value, 2).End();
}

TEST(BenchJsonWriterDeathTest, NonFiniteNumberExitsNamingKeyPath) {
  const char* want =
      "non-finite number at workloads\\.cpu_bound\\[1\\]\\.speedup";
  EXPECT_EXIT(WriteSpeedup(std::numeric_limits<double>::quiet_NaN()),
              testing::ExitedWithCode(1), want);
  EXPECT_EXIT(WriteSpeedup(std::numeric_limits<double>::infinity()),
              testing::ExitedWithCode(1), want);
  EXPECT_EXIT(WriteSpeedup(-std::numeric_limits<double>::infinity()),
              testing::ExitedWithCode(1), want);
}

TEST(BenchGateDeathTest, RequireEqualExitsNamingWhatDiverged) {
  RequireEqual("scan checksum", 7, 7);  // equal: returns
  EXPECT_EXIT(RequireEqual("scan checksum", 7, 8), testing::ExitedWithCode(1),
              "MISMATCH: scan checksum: want 7, got 8");
}

TEST(BenchGateDeathTest, DieExitsNamingWhatAndStatus) {
  EXPECT_EXIT(Die("append commit", Status::DataLoss("torn block")),
              testing::ExitedWithCode(1), "append commit: .*torn block");
}

}  // namespace
}  // namespace bench
}  // namespace sidq
