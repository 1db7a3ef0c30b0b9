// Tests for the base utilities.

#include <sstream>

#include <gtest/gtest.h>

#include "src/base/logging.h"
#include "src/base/rng.h"
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
