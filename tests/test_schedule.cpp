#include "core/schedule.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

namespace sompi {
namespace {

TEST(Schedule, NoCheckpointsWhenFEqualsT) {
  const GroupSchedule s(10, 10, 0.5, 1.0);
  EXPECT_EQ(s.checkpoints_full_run(), 0);
  EXPECT_DOUBLE_EQ(s.wall_duration(), 10.0);
  EXPECT_EQ(s.saved_by(9.9), 0);
  EXPECT_DOUBLE_EQ(s.ratio_at(5.0), 1.0);   // nothing saved: full redo
  EXPECT_DOUBLE_EQ(s.ratio_at(10.0), 0.0);  // completed
}

TEST(Schedule, CheckpointCountAndWall) {
  // T=10, F=3 → cycles at 3,6,9 then tail: checkpoints after 3, 6, 9 but
  // ceil(10/3)=4 cycles → 3 checkpoints; wall = 10 + 3·0.5.
  const GroupSchedule s(10, 3, 0.5, 1.0);
  EXPECT_EQ(s.checkpoints_full_run(), 3);
  EXPECT_DOUBLE_EQ(s.wall_duration(), 11.5);
}

TEST(Schedule, ExactDivisionSkipsFinalCheckpoint) {
  // T=9, F=3: the third "checkpoint" would coincide with completion.
  const GroupSchedule s(9, 3, 0.5, 1.0);
  EXPECT_EQ(s.checkpoints_full_run(), 2);
  EXPECT_DOUBLE_EQ(s.wall_duration(), 10.0);
}

TEST(Schedule, SavedByTracksCycles) {
  const GroupSchedule s(10, 3, 0.5, 1.0);  // cycle length 3.5
  EXPECT_EQ(s.saved_by(0.0), 0);
  EXPECT_EQ(s.saved_by(3.4), 0);   // first dump finishes at 3.5
  EXPECT_EQ(s.saved_by(3.5), 3);
  EXPECT_EQ(s.saved_by(6.9), 3);
  EXPECT_EQ(s.saved_by(7.0), 6);
  EXPECT_EQ(s.saved_by(10.5), 9);
  EXPECT_EQ(s.saved_by(100.0), 9);  // capped at full-run checkpoints
}

TEST(Schedule, ProgressWithinCycle) {
  const GroupSchedule s(10, 3, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(s.progress_by(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.progress_by(2.0), 2.0);   // mid first productive phase
  EXPECT_DOUBLE_EQ(s.progress_by(3.2), 3.0);   // inside the first dump
  EXPECT_DOUBLE_EQ(s.progress_by(4.0), 3.5);   // second productive phase
  EXPECT_DOUBLE_EQ(s.progress_by(11.5), 10.0); // complete
}

TEST(Schedule, RatioIncludesRecoveryOnlyWithSavedWork) {
  const GroupSchedule s(10, 3, 0.5, 1.0);
  // Before any checkpoint: redo everything, no recovery needed.
  EXPECT_DOUBLE_EQ(s.ratio_at(2.0), 1.0);
  // After the first checkpoint (saved 3): (10-3+1)/10.
  EXPECT_DOUBLE_EQ(s.ratio_at(4.0), 0.8);
  // After the third checkpoint (saved 9): (10-9+1)/10.
  EXPECT_DOUBLE_EQ(s.ratio_at(11.0), 0.2);
  EXPECT_DOUBLE_EQ(s.ratio_at(11.5), 0.0);
}

TEST(Schedule, RejectsInvalidParameters) {
  EXPECT_THROW(GroupSchedule(0, 1, 0.0, 0.0), PreconditionError);
  EXPECT_THROW(GroupSchedule(5, 0, 0.0, 0.0), PreconditionError);
  EXPECT_THROW(GroupSchedule(5, 6, 0.0, 0.0), PreconditionError);
  EXPECT_THROW(GroupSchedule(5, 2, -0.1, 0.0), PreconditionError);
  EXPECT_THROW(GroupSchedule(5, 2, 0.0, -0.1), PreconditionError);
}

// ---- Property sweep over (T, F, O) ------------------------------------------

class ScheduleProperty : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(ScheduleProperty, Invariants) {
  const auto [t, f, o] = GetParam();
  if (f > t) GTEST_SKIP();
  const GroupSchedule s(t, f, o, 0.8);

  EXPECT_GE(s.wall_duration(), static_cast<double>(t));
  EXPECT_EQ(s.saved_by(0.0), 0);
  EXPECT_DOUBLE_EQ(s.progress_by(s.wall_duration()), static_cast<double>(t));
  EXPECT_DOUBLE_EQ(s.ratio_at(s.wall_duration()), 0.0);

  double prev_saved = 0.0;
  double prev_progress = 0.0;
  for (double x = 0.0; x <= s.wall_duration() + 1.0; x += 0.31) {
    const double saved = s.saved_by(x);
    const double progress = s.progress_by(x);
    // Monotonicity and ordering: saved <= progress <= T.
    EXPECT_GE(saved, prev_saved);
    EXPECT_GE(progress, prev_progress - 1e-12);
    EXPECT_LE(saved, progress + 1e-12);
    EXPECT_LE(progress, static_cast<double>(t));
    // Ratio stays in [0, 1].
    EXPECT_GE(s.ratio_at(x), 0.0);
    EXPECT_LE(s.ratio_at(x), 1.0);
    prev_saved = saved;
    prev_progress = progress;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleProperty,
    ::testing::Combine(::testing::Values(1, 2, 7, 24, 100),   // T
                       ::testing::Values(1, 2, 5, 24),        // F
                       ::testing::Values(0.0, 0.05, 0.5, 2.0)  // O
                       ));

// ---- Ratio runs: the per-cycle kernel against the per-step oracle -----------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Counts the checkpoints j at which the product j·(F+O) and checkpoints_by's
// division disagree about an integer step r: j·cycle <= r says checkpoint j
// is complete by r, floor(r / cycle) < j says it is not (or the reverse).
// A boundary placed by the product would be one step off there.
int product_division_disagreements(const GroupSchedule& s) {
  const double cycle = static_cast<double>(s.f_steps()) + s.o_steps();
  int n = 0;
  for (int j = 1; j <= s.checkpoints_full_run(); ++j) {
    const double r = std::round(j * cycle);
    n += (j * cycle <= r) != (std::floor(r / cycle) >= j);
  }
  return n;
}

TEST(ScheduleRatioRuns, EqualRatioAtBitForBitAtEveryStep) {
  // O values whose multiples of F + O come within an ulp of an integer
  // (decimal fractions and thirds are not binary fractions), exact binary
  // ones, zero and overheads longer than a step; R below, at and above T.
  const std::vector<double> overheads = {0.0,  0.1,  0.2,       0.3,       0.7,  1.1,
                                         0.05, 0.15, 1.0 / 3.0, 2.0 / 3.0, 0.25, 0.5,
                                         2.5,  7.3,  1e-9};
  int configs = 0, disagreeing = 0;
  for (const int t : {1, 2, 3, 5, 7, 10, 16, 33, 64, 100, 257, 1000}) {
    for (const int f : {1, 2, 3, 4, 5, 7, 10, 16, 33, 100, t / 2, t - 1, t}) {
      if (f < 1 || f > t) continue;
      for (const double o : overheads) {
        for (const double r : {0.0, 0.5, 1.7, 2.0 * t}) {
          const GroupSchedule s(t, f, o, r);
          ++configs;
          disagreeing += product_division_disagreements(s) > 0;
          const std::size_t n = static_cast<std::size_t>(std::ceil(s.wall_duration())) + 3;
          std::size_t next = 0, runs = 0;
          s.for_each_ratio_run(n, [&](std::size_t begin, std::size_t end, double ratio) {
            ASSERT_EQ(begin, next) << "T=" << t << " F=" << f << " O=" << o;
            ASSERT_LT(begin, end);
            for (std::size_t x = begin; x < end; ++x)
              ASSERT_EQ(bits(ratio), bits(s.ratio_at(static_cast<double>(x))))
                  << "T=" << t << " F=" << f << " O=" << o << " R=" << r << " t=" << x;
            next = end;
            ++runs;
          });
          ASSERT_EQ(next, n);
          // One run per checkpoint count, plus the completed tail.
          EXPECT_EQ(runs, static_cast<std::size_t>(s.checkpoints_full_run()) + 2);

          // A shorter range cuts the same runs.
          const std::size_t cut = n / 2;
          next = 0;
          s.for_each_ratio_run(cut, [&](std::size_t begin, std::size_t end, double ratio) {
            ASSERT_EQ(begin, next);
            ASSERT_LE(end, cut);
            ASSERT_EQ(bits(ratio), bits(s.ratio_at(static_cast<double>(begin))));
            next = end;
          });
          ASSERT_EQ(next, cut);

          // The worst case reads each run's last step only.
          for (const double step_h : {0.25, 1.0 / 3.0}) {
            const double redo_h = 0.37 * t;
            double worst = s.wall_duration() * step_h;
            for (std::size_t x = 0; x < n - 3; ++x)
              worst = std::max(worst, static_cast<double>(x) * step_h +
                                          s.ratio_at(static_cast<double>(x)) * redo_h);
            ASSERT_EQ(bits(s.worst_completion_h(step_h, redo_h)), bits(worst))
                << "T=" << t << " F=" << f << " O=" << o << " R=" << r;
          }
        }
      }
    }
  }
  // The sweep must reach the cases a product-placed boundary gets wrong.
  EXPECT_GT(disagreeing, 0) << "of " << configs << " configurations";
}

}  // namespace
}  // namespace sompi
