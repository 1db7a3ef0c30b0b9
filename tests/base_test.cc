// Tests for the base utilities.

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/table.h"
#include "src/base/units.h"

namespace sb {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = NotFound("no such inode");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such inode");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = InvalidArgument("bad");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kInvalidArgument);
}

Status FailsThrough() {
  SB_RETURN_IF_ERROR(Internal("inner"));
  return OkStatus();
}

TEST(StatusMacros, ReturnIfError) {
  EXPECT_EQ(FailsThrough().code(), ErrorCode::kInternal);
}

StatusOr<int> Doubles(StatusOr<int> in) {
  SB_ASSIGN_OR_RETURN(const int v, in);
  return v * 2;
}

TEST(StatusMacros, AssignOrReturn) {
  EXPECT_EQ(*Doubles(21), 42);
  EXPECT_FALSE(Doubles(Unavailable()).ok());
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Samples, MeanMinMax) {
  Samples s;
  s.Add(1);
  s.Add(2);
  s.Add(3);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Samples, Percentile) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
}

TEST(Samples, EmptySafe) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
}

TEST(Histogram, MeanAndCount) {
  Histogram h;
  h.Add(100);
  h.Add(300);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(Samples, SingleSamplePercentiles) {
  Samples s;
  s.Add(42.0);
  // Every percentile of a one-sample distribution is that sample.
  EXPECT_DOUBLE_EQ(s.Percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Samples, PercentileEndpoints) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  // p=0 is the minimum, p=100 the maximum; out-of-range p is clamped.
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.Percentile(-5), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(200), 100.0);
}

TEST(Histogram, EmptySafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Percentile(0), 0u);
  EXPECT_EQ(h.Percentile(100), 0u);
}

TEST(Histogram, SingleSamplePercentiles) {
  Histogram h;
  h.Add(100);
  // One sample: every percentile selects its (power-of-two) bucket, whose
  // midpoint representative is within 2x of the true value.
  const uint64_t p0 = h.Percentile(0);
  EXPECT_EQ(p0, h.Percentile(50));
  EXPECT_EQ(p0, h.Percentile(100));
  EXPECT_GE(p0, 64u);
  EXPECT_LE(p0, 200u);
}

TEST(Histogram, PercentileEndpointsOrdered) {
  Histogram h;
  for (uint64_t v = 1; v <= 1024; ++v) {
    h.Add(v);
  }
  // p=0 must read the smallest populated bucket, not an empty prefix.
  EXPECT_GE(h.Percentile(0), 1u);
  EXPECT_LE(h.Percentile(0), h.Percentile(50));
  EXPECT_LE(h.Percentile(50), h.Percentile(100));
}

TEST(Histogram, ValuesAboveMaxSaturateLastBucket) {
  Histogram h(/*max_value=*/256);
  h.Add(1ULL << 20);  // Far beyond max_value: clamps into the last bucket.
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(100), 256u);
  // The mean still uses the true value (only bucketing saturates).
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(1ULL << 20));
}

TEST(Logging, KvFormatsKeyEqualsValue) {
  std::ostringstream os;
  os << kv("server", 7) << " " << kv("timed_out", true);
  EXPECT_EQ(os.str(), "server=7 timed_out=1");
}

TEST(Logging, KvQuotesStringValues) {
  std::ostringstream os;
  os << kv("name", "kv-server");
  EXPECT_EQ(os.str(), "name=\"kv-server\"");
  std::ostringstream os2;
  const std::string s = "client";
  os2 << kv("proc", s);
  EXPECT_EQ(os2.str(), "proc=\"client\"");
}

TEST(Table, RendersAligned) {
  Table t({"op", "cycles"});
  t.AddRow({"VMFUNC", "134"});
  t.AddRow({"write to CR3", "186"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("VMFUNC"), std::string::npos);
  EXPECT_NE(s.find("186"), std::string::npos);
  EXPECT_EQ(s.find("VMFUNC") != std::string::npos, true);
}

TEST(Units, PageMath) {
  EXPECT_EQ(PageDown(0x1fff), 0x1000u);
  EXPECT_EQ(PageUp(0x1001), 0x2000u);
  EXPECT_TRUE(IsPageAligned(0x3000));
  EXPECT_FALSE(IsPageAligned(0x3001));
}

}  // namespace
}  // namespace sb
