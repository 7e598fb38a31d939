#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/deadline.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace qsched {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie(), 42);
  EXPECT_EQ(result.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.ValueOr(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> result(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(result).ValueOrDie();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ReturnNotOkTest, PropagatesError) {
  auto inner = []() { return Status::OutOfRange("too big"); };
  auto outer = [&]() -> Status {
    QSCHED_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(9);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
  EXPECT_EQ(rng.UniformInt(8, 2), 8);  // inverted clamps to lo
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.BoundedPareto(1.3, 2.0, 500.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LE(x, 500.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalProportionalToWeights) {
  Rng rng(29);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, CategoricalDegenerateInputs) {
  Rng rng(31);
  EXPECT_EQ(rng.Categorical({}), 0u);
  EXPECT_EQ(rng.Categorical({5.0}), 0u);
  EXPECT_EQ(rng.Categorical({0.0, 0.0}), 0u);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(77);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 4);
}

class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanNearHalf) {
  Rng rng(GetParam());
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(StringsTest, StrPrintfFormats) {
  EXPECT_EQ(StrPrintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrPrintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrPrintf("plain"), "plain");
}

TEST(StringsTest, StrPrintfLongOutput) {
  std::string big(500, 'a');
  EXPECT_EQ(StrPrintf("%s", big.c_str()).size(), 500u);
}

TEST(StringsTest, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "", "c"};
  std::string joined = Join(parts, ",");
  EXPECT_EQ(joined, "a,,c");
  EXPECT_EQ(Split(joined, ','), parts);
}

TEST(StringsTest, JoinEmpty) { EXPECT_EQ(Join({}, ","), ""); }

TEST(StringsTest, SplitKeepsTrailingEmpty) {
  auto parts = Split("a,b,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(LoggingTest, LevelFilteringRoundTrip) {
  LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  QSCHED_LOG(Info) << "suppressed at error level";
  SetLogLevel(old_level);
}

/// Captures log lines emitted while in scope (restores stderr + the
/// previous level on destruction).
class LogCapture {
 public:
  LogCapture() : old_level_(GetLogLevel()) {
    lines().clear();
    SetLogSinkForTesting(
        [](const std::string& line) { lines().push_back(line); });
  }
  ~LogCapture() {
    SetLogSinkForTesting(nullptr);
    SetLogLevel(old_level_);
  }

  static std::vector<std::string>& lines() {
    static std::vector<std::string> storage;
    return storage;
  }

 private:
  LogLevel old_level_;
};

/// Emits one message at every level and returns how many got through.
int EmitAtEveryLevel() {
  size_t before = LogCapture::lines().size();
  QSCHED_LOG(Debug) << "debug message";
  QSCHED_LOG(Info) << "info message";
  QSCHED_LOG(Warning) << "warning message";
  QSCHED_LOG(Error) << "error message";
  return static_cast<int>(LogCapture::lines().size() - before);
}

TEST(LoggingTest, ThresholdAtEveryLevel) {
  LogCapture capture;
  // A message passes iff its level >= the configured minimum, so the
  // count of surviving messages falls by one per threshold step.
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(EmitAtEveryLevel(), 4);
  SetLogLevel(LogLevel::kInfo);
  EXPECT_EQ(EmitAtEveryLevel(), 3);
  SetLogLevel(LogLevel::kWarning);
  EXPECT_EQ(EmitAtEveryLevel(), 2);
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(EmitAtEveryLevel(), 1);
}

TEST(LoggingTest, DebugAtDebugLevelIsLogged) {
  LogCapture capture;
  SetLogLevel(LogLevel::kDebug);
  QSCHED_LOG(Debug) << "must appear";
  ASSERT_EQ(LogCapture::lines().size(), 1u);
  EXPECT_NE(LogCapture::lines()[0].find("must appear"), std::string::npos);
  EXPECT_NE(LogCapture::lines()[0].find("DEBUG"), std::string::npos);
}

TEST(LoggingTest, SuppressedMessageDoesNotReachSink) {
  LogCapture capture;
  SetLogLevel(LogLevel::kError);
  QSCHED_LOG(Debug) << "no";
  QSCHED_LOG(Info) << "no";
  QSCHED_LOG(Warning) << "no";
  EXPECT_TRUE(LogCapture::lines().empty());
}

TEST(LoggingTest, LinePrefixCarriesLevelAndLocation) {
  LogCapture capture;
  SetLogLevel(LogLevel::kInfo);
  QSCHED_LOG(Warning) << "prefixed";
  ASSERT_EQ(LogCapture::lines().size(), 1u);
  const std::string& line = LogCapture::lines()[0];
  EXPECT_EQ(line.find("[WARN common_test.cc:"), 0u);
  EXPECT_NE(line.find("] prefixed"), std::string::npos);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  QSCHED_CHECK(1 + 1 == 2) << "never printed";
}

TEST(DeadlineTest, FiniteSpansAddToNow) {
  const SteadyTime now = std::chrono::steady_clock::now();
  EXPECT_EQ(DeadlineAfter(1.5, now), now + std::chrono::milliseconds(1500));
  EXPECT_EQ(DeadlineAfter(1e-9, now), now + std::chrono::nanoseconds(1));
}

TEST(DeadlineTest, NonPositiveOrNanChecksOnce) {
  const SteadyTime now = std::chrono::steady_clock::now();
  EXPECT_EQ(DeadlineAfter(0.0, now), now);
  EXPECT_EQ(DeadlineAfter(-3.0, now), now);
  EXPECT_EQ(DeadlineAfter(-std::numeric_limits<double>::infinity(), now),
            now);
  EXPECT_EQ(DeadlineAfter(std::nan(""), now), now);
}

TEST(DeadlineTest, InfinityAndSpansPastTheClockSaturate) {
  const SteadyTime now = std::chrono::steady_clock::now();
  EXPECT_EQ(DeadlineAfter(std::numeric_limits<double>::infinity(), now),
            SteadyTime::max());
  EXPECT_EQ(DeadlineAfter(1e300, now), SteadyTime::max());
  // Just past 2^63 ns, the first span whose tick count overflows.
  EXPECT_EQ(DeadlineAfter(9.3e9, now), SteadyTime::max());
  // The headroom left on the clock, rounded through seconds, lands at
  // (or a few ticks short of) its largest instant without overflowing.
  const double headroom =
      std::chrono::duration<double>(SteadyTime::max() - now).count();
  EXPECT_GE(DeadlineAfter(headroom, now),
            SteadyTime::max() - std::chrono::milliseconds(1));
  EXPECT_EQ(DeadlineAfter(1.0, SteadyTime::max()), SteadyTime::max());
  EXPECT_EQ(DeadlineAfter(9.2e9, SteadyTime{}),
            SteadyTime{} + std::chrono::seconds(9200000000LL));
}

TEST(DeadlineTest, PollTimeoutRoundsUpAndClamps) {
  const SteadyTime now = std::chrono::steady_clock::now();
  EXPECT_EQ(PollTimeoutMs(SteadyTime::max(), now), -1);
  EXPECT_EQ(PollTimeoutMs(now, now), 0);
  EXPECT_EQ(PollTimeoutMs(now - std::chrono::seconds(1), now), 0);
  EXPECT_EQ(PollTimeoutMs(now + std::chrono::microseconds(1), now), 1);
  EXPECT_EQ(PollTimeoutMs(now + std::chrono::microseconds(2500), now), 3);
  EXPECT_EQ(PollTimeoutMs(now + std::chrono::hours(24 * 365), now),
            INT_MAX);
}

}  // namespace
}  // namespace qsched
