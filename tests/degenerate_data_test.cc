// Degenerate-data behavior: duplicate coordinates, collinear datasets,
// single-bucket histograms. The library's tie-breaking (object id) makes
// results well-defined even where Voronoi geometry degenerates.

#include <gtest/gtest.h>

#include "analysis/minskew.h"
#include "common/rng.h"
#include "core/nn_validity.h"
#include "core/window_validity.h"
#include "net/frame.h"
#include "rtree/knn.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace lbsq {
namespace {

using rtree::DataEntry;
using test::BruteForceKnn;
using test::SmallNodeOptions;
using test::TreeFixture;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

TEST(DegenerateDataTest, DuplicatePointsTieBreakById) {
  // Two objects at the same location: the smaller id wins every tie, so
  // the 1-NN result is stable everywhere and the validity region of the
  // winner is unaffected by its twin.
  std::vector<DataEntry> data = {
      {{0.5, 0.5}, 7}, {{0.5, 0.5}, 3}, {{0.9, 0.9}, 1}, {{0.1, 0.2}, 2}};
  TreeFixture fx(data, 8);
  const auto nn = rtree::KnnBestFirst(*fx.tree, {0.52, 0.52}, 1);
  EXPECT_EQ(nn[0].entry.id, 3u);  // the lower id of the duplicates

  core::NnValidityEngine engine(fx.tree.get(), kUnit);
  const auto result = engine.Query({0.52, 0.52}, 1);
  EXPECT_EQ(result.answers()[0].entry.id, 3u);
  EXPECT_GT(result.region().Area(), 0.0);
  // The twin (id 7) can never become strictly closer, so it is not an
  // influence object.
  for (const auto& pair : result.influence_pairs()) {
    EXPECT_NE(pair.incoming.id, 7u);
  }
  // Sampled validity agrees with brute force.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const geo::Point p{rng.NextDouble(), rng.NextDouble()};
    if (!result.IsValidAt(p)) continue;
    EXPECT_EQ(BruteForceKnn(data, p, 1)[0].entry.id, 3u);
  }
}

TEST(DegenerateDataTest, ManyDuplicatesInTree) {
  // A dataset where every point appears twice: queries remain exact.
  const auto base = workload::MakeUnitUniform(300, 1301);
  std::vector<DataEntry> data = base.entries;
  for (const DataEntry& e : base.entries) {
    data.push_back({e.point, e.id + 1000});
  }
  TreeFixture fx(data, 32, SmallNodeOptions());
  fx.tree->CheckInvariants();
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    // k = 4 and the largest k the wire accepts: every distance is tied
    // with a duplicate, so the order rests on the id tie rule.
    for (const size_t k : {size_t{4}, size_t{net::kMaxRequestK}}) {
      const auto got = rtree::KnnBestFirst(*fx.tree, q, k);
      const auto expected = BruteForceKnn(data, q, k);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(got[j].entry.id, expected[j].entry.id) << "k " << k;
      }
    }
  }
}

TEST(DegenerateDataTest, CollinearDataset) {
  // All points on one horizontal line: Voronoi cells are vertical slabs.
  std::vector<DataEntry> data;
  for (uint32_t i = 0; i < 50; ++i) {
    data.push_back({{0.02 + 0.02 * i * 0.98, 0.5}, i});
  }
  TreeFixture fx(data, 16, SmallNodeOptions());
  core::NnValidityEngine engine(fx.tree.get(), kUnit);
  const auto result = engine.Query({0.31, 0.5}, 1);
  EXPECT_GT(result.region().Area(), 0.0);
  // The region of an interior point is the vertical slab between the
  // midpoints toward its neighbors, spanning the full universe height.
  const geo::Rect box = result.region().BoundingBox();
  EXPECT_NEAR(box.min_y, 0.0, 1e-9);
  EXPECT_NEAR(box.max_y, 1.0, 1e-9);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const geo::Point p{rng.NextDouble(), rng.NextDouble()};
    if (!result.IsValidAt(p)) continue;
    EXPECT_EQ(BruteForceKnn(data, p, 1)[0].entry.id,
              result.answers()[0].entry.id);
  }
}

TEST(DegenerateDataTest, MinskewSingleBucketAndSingleCell) {
  const auto dataset = workload::MakeUnitUniform(1000, 1303);
  // One bucket: density is the global density everywhere.
  analysis::MinskewHistogram one(dataset.entries, kUnit, 1, 10);
  EXPECT_EQ(one.buckets().size(), 1u);
  EXPECT_NEAR(one.BucketAt({0.3, 0.3}).Density(), 1000.0, 1e-9);
  // 1x1 grid: cannot split regardless of budget.
  analysis::MinskewHistogram coarse(dataset.entries, kUnit, 500, 1);
  EXPECT_EQ(coarse.buckets().size(), 1u);
  // Count estimation degrades gracefully to area proportionality.
  EXPECT_NEAR(coarse.EstimateCount(geo::Rect(0, 0, 0.5, 0.5)), 250.0, 1e-9);
}

TEST(DegenerateDataTest, WindowQueryCoveringWholeUniverse) {
  const auto dataset = workload::MakeUnitUniform(500, 1305);
  TreeFixture fx(dataset.entries, 32, SmallNodeOptions());
  core::WindowValidityEngine engine(fx.tree.get(), kUnit);
  // A window larger than the universe: result = everything; the region
  // is wherever the window still covers everything.
  const auto result = engine.Query({0.5, 0.5}, 1.0, 1.0);
  EXPECT_EQ(result.result().size(), 500u);
  EXPECT_TRUE(result.IsValidAt({0.5, 0.5}));
  EXPECT_TRUE(result.outer_influencers().empty());
}

}  // namespace
}  // namespace lbsq
