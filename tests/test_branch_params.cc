/**
 * @file
 * Parameterized branch predictor sweeps: TAGE across table-count/history
 * geometries, and head-to-head ordering on canonical pattern families.
 */

#include <gtest/gtest.h>

#include <functional>

#include "branch/bimodal.h"
#include "branch/tage.h"
#include "branch/tage_scl.h"
#include "common/rng.h"

namespace pfm {
namespace {

double
accuracy(BranchPredictor& bp, unsigned n,
         const std::function<bool(unsigned)>& gen, unsigned warmup)
{
    unsigned correct = 0, counted = 0;
    for (unsigned i = 0; i < n; ++i) {
        bool taken = gen(i);
        bool pred = bp.predict(0x4000);
        bp.update(0x4000, taken);
        if (i >= warmup) {
            ++counted;
            correct += pred == taken;
        }
    }
    return static_cast<double>(correct) / counted;
}

struct TageGeom {
    unsigned tables;
    unsigned max_hist;
};

class TageGeometry : public ::testing::TestWithParam<TageGeom>
{};

TEST_P(TageGeometry, LearnsPeriodicPatternWithinHistoryReach)
{
    TageParams p;
    p.num_tables = GetParam().tables;
    p.max_history = GetParam().max_hist;
    TagePredictor bp(p);
    // Period-20 pattern: needs ~20 bits of history.
    double acc = accuracy(
        bp, 9000, [](unsigned i) { return (i % 20) == 3; }, 3000);
    if (GetParam().max_hist >= 24)
        EXPECT_GT(acc, 0.95);
    EXPECT_GT(acc, 0.85); // even short histories get most of it
}

TEST_P(TageGeometry, BiasIsAlwaysEasy)
{
    TageParams p;
    p.num_tables = GetParam().tables;
    p.max_history = GetParam().max_hist;
    TagePredictor bp(p);
    double acc =
        accuracy(bp, 2000, [](unsigned) { return true; }, 200);
    EXPECT_GT(acc, 0.99);
}

INSTANTIATE_TEST_SUITE_P(Geometries, TageGeometry,
                         ::testing::Values(TageGeom{4, 64},
                                           TageGeom{8, 256},
                                           TageGeom{12, 640},
                                           TageGeom{16, 1024}));

TEST(PredictorOrdering, TageBeatsBimodalOnHistoryPatterns)
{
    auto gen = [](unsigned i) { return (i % 12) < 5; };
    BimodalPredictor bimodal;
    TagePredictor tage;
    double ab = accuracy(bimodal, 8000, gen, 2000);
    double at = accuracy(tage, 8000, gen, 2000);
    EXPECT_GT(at, ab);
    EXPECT_GT(at, 0.95);
}

TEST(PredictorOrdering, NoPredictorBeatsChanceOnTrueRandom)
{
    Rng rng(31337);
    auto gen = [&rng](unsigned) { return rng.chance(0.5); };
    TageSclPredictor scl;
    double acc = accuracy(scl, 12000, gen, 2000);
    EXPECT_NEAR(acc, 0.5, 0.08);
}

TEST(PredictorOrdering, BiasedRandomTracksBaseRate)
{
    Rng rng(777);
    auto gen = [&rng](unsigned) { return rng.chance(0.8); };
    TageSclPredictor scl;
    double acc = accuracy(scl, 12000, gen, 2000);
    // Best achievable is ~0.8 (always predict taken).
    EXPECT_GT(acc, 0.74);
    EXPECT_LT(acc, 0.88);
}

TEST(TageDeterminism, SameStreamSamePredictions)
{
    TagePredictor a, b;
    Rng rng(5);
    std::vector<bool> outcomes;
    for (int i = 0; i < 4000; ++i)
        outcomes.push_back(rng.chance(0.6));
    for (int i = 0; i < 4000; ++i) {
        bool pa = a.predict(0x100 + (i % 7) * 4);
        bool pb = b.predict(0x100 + (i % 7) * 4);
        ASSERT_EQ(pa, pb) << i;
        a.update(0x100 + (i % 7) * 4, outcomes[static_cast<size_t>(i)]);
        b.update(0x100 + (i % 7) * 4, outcomes[static_cast<size_t>(i)]);
    }
}

} // namespace
} // namespace pfm
