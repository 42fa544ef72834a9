// Tests for the wall-clock timer.

#include <gtest/gtest.h>

#include <thread>

#include "support/timer.hpp"

namespace ptgsched {
namespace {

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = timer.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  EXPECT_NEAR(timer.milliseconds(), timer.seconds() * 1e3,
              timer.seconds() * 50.0);
}

TEST(WallTimer, ResetRestarts) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  timer.reset();
  EXPECT_LT(timer.seconds(), 0.015);
}

TEST(WallTimer, MonotonicNonDecreasing) {
  WallTimer timer;
  double prev = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double s = timer.seconds();
    EXPECT_GE(s, prev);
    prev = s;
  }
}

}  // namespace
}  // namespace ptgsched
