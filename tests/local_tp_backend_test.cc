// Differential test of core::LocalTpBackend, the NN engine's step (ii)
// decorator: over random rays, every Tpnn/Tpknn answer it gives must
// equal its inner backend's (found, object ids, and the influence time
// bit for bit), on uniform, skewed and duplicate-coordinate data, over
// one R*-tree and over a 4-fragment FragmentRouter. Whole validity
// results must match too, and each fallback to the inner backend is
// forced and observed through the decorator's counters.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numbers>
#include <optional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/local_tp_backend.h"
#include "core/nn_validity.h"
#include "core/spatial_backend.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "net/frame.h"
#include "partition/fragment_router.h"
#include "partition/str_partition.h"
#include "tests/test_util.h"
#include "tp/tpnn.h"
#include "workload/datasets.h"

namespace lbsq {
namespace {

using core::LocalTpBackend;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

std::vector<rtree::DataEntry> Uniform(size_t n, uint32_t seed) {
  return workload::MakeUnitUniform(n, seed).entries;
}

std::vector<rtree::DataEntry> Skewed(size_t n, uint32_t seed) {
  return workload::MakeClustered(n, kUnit, 6, 1.0, 0.01, 0.05, 0.05, seed)
      .entries;
}

// Coordinates on a 1/40 grid: most points share their position with
// several others, so exact time ties are everywhere.
std::vector<rtree::DataEntry> Duplicates(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> cell(0, 40);
  std::vector<rtree::DataEntry> data;
  for (size_t i = 0; i < n; ++i) {
    data.push_back({{cell(rng) / 40.0, cell(rng) / 40.0},
                    static_cast<rtree::ObjectId>(i)});
  }
  return data;
}

// The inner backend: one tree (fragments == 1) or a FragmentRouter over
// STR fragments of the same data.
class Inner {
 public:
  Inner(const std::vector<rtree::DataEntry>& data, size_t fragments) {
    if (fragments == 1) {
      trees_.push_back(std::make_unique<test::TreeFixture>(data));
      single_.emplace(trees_[0]->tree.get());
      return;
    }
    partition::PartitionLayout layout(data, kUnit, fragments);
    std::vector<rtree::RTree*> trees;
    for (const std::vector<rtree::DataEntry>& bucket :
         partition::PartitionEntries(layout, data)) {
      trees_.push_back(std::make_unique<test::TreeFixture>(bucket));
      trees.push_back(trees_.back()->tree.get());
    }
    router_.emplace(std::move(trees), std::move(layout));
  }

  core::SpatialBackend* get() {
    return single_ ? static_cast<core::SpatialBackend*>(&*single_)
                   : &*router_;
  }
  rtree::RTree* tree() { return trees_[0]->tree.get(); }

 private:
  std::vector<std::unique_ptr<test::TreeFixture>> trees_;
  std::optional<core::RTreeBackend> single_;
  std::optional<partition::FragmentRouter> router_;
};

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSame(const tp::TpnnResult& got, const tp::TpnnResult& want) {
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.object.id, want.object.id);
  EXPECT_EQ(Bits(got.time), Bits(want.time));
}

void ExpectSame(const tp::TpknnResult& got, const tp::TpknnResult& want) {
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.incoming.id, want.incoming.id);
  EXPECT_EQ(got.displaced.id, want.displaced.id);
  EXPECT_EQ(Bits(got.time), Bits(want.time));
}

// Random rays at `queries` random points: the decorator's Knn prefix and
// each of its TP answers against the inner backend's. Returns the
// decorator's counters.
LocalTpBackend::Stats CheckRays(core::SpatialBackend* inner, size_t k,
                                size_t queries, uint32_t seed) {
  LocalTpBackend local(inner);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  std::uniform_real_distribution<double> angle(0.0, 2.0 * std::numbers::pi);
  for (size_t i = 0; i < queries; ++i) {
    const geo::Point q(coord(rng), coord(rng));
    const std::vector<rtree::Neighbor> answers = local.Knn(q, k);
    const std::vector<rtree::Neighbor> want = inner->Knn(q, k);
    EXPECT_EQ(answers.size(), want.size());
    for (size_t j = 0; j < answers.size() && j < want.size(); ++j) {
      EXPECT_EQ(answers[j].entry.id, want[j].entry.id);
      EXPECT_EQ(Bits(answers[j].distance), Bits(want[j].distance));
    }
    for (int r = 0; r < 6; ++r) {
      const double a = angle(rng);
      const geo::Vec2 l(std::cos(a), std::sin(a));
      SCOPED_TRACE(testing::Message() << "query " << i << " ray " << r);
      if (k == 1) {
        const rtree::DataEntry& o = answers[0].entry;
        ExpectSame(local.Tpnn(q, l, o.point, o.id),
                   inner->Tpnn(q, l, o.point, o.id));
      } else {
        ExpectSame(local.Tpknn(q, l, answers), inner->Tpknn(q, l, answers));
      }
    }
  }
  return local.stats();
}

struct Case {
  const char* name;
  std::vector<rtree::DataEntry> data;
  bool ties;  // exact influence-time ties are common
};

std::vector<Case> Datasets() {
  return {{"uniform", Uniform(6000, 3), false},
          {"skewed", Skewed(6000, 5), false},
          {"duplicates", Duplicates(6000, 7), true}};
}

void CheckAllRays(size_t fragments) {
  for (const Case& c : Datasets()) {
    Inner inner(c.data, fragments);
    for (size_t k : {1, 10, 100}) {
      SCOPED_TRACE(testing::Message() << c.name << " k=" << k);
      const LocalTpBackend::Stats stats =
          CheckRays(inner.get(), k, k == 100 ? 12 : 60, 11 + k);
      // The differential is only worth something if the candidates
      // answered rays themselves: most of them, unless ties (which
      // defer) are everywhere.
      EXPECT_GT(stats.local_answers, c.ties ? 0u : stats.fallbacks());
      if (c.ties) {
        EXPECT_GT(stats.tie_fallbacks, 0u);
      }
    }
  }
}

TEST(LocalTpBackendTest, RaysMatchOneTree) { CheckAllRays(1); }

TEST(LocalTpBackendTest, RaysMatchFourFragmentRouter) { CheckAllRays(4); }

// The largest k the wire admits, on a tree small enough that the answer
// set is most of the data; and a tree smaller than the first fetch,
// where the candidates are the whole dataset.
TEST(LocalTpBackendTest, RaysMatchAtMaxRequestKAndOnTinyTrees) {
  Inner small(Uniform(1500, 13), 1);
  CheckRays(small.get(), net::kMaxRequestK, 3, 17);
  Inner tiny(Uniform(40, 19), 1);
  for (size_t k : {1, 10, 39, 40}) {
    const LocalTpBackend::Stats stats = CheckRays(tiny.get(), k, 20, 23 + k);
    EXPECT_EQ(stats.fallbacks(), 0u) << "k=" << k;
  }
}

// At the largest k the wire admits, the first fetch already holds 1024
// candidates. The cap of 2k leaves room to widen past it, so no ray
// falls back at the cap.
TEST(LocalTpBackendTest, MaxRequestKWidensPastTheFirstFetch) {
  Inner inner(Uniform(20000, 53), 1);
  const LocalTpBackend::Stats stats =
      CheckRays(inner.get(), net::kMaxRequestK, 4, 59);
  EXPECT_EQ(stats.cap_fallbacks, 0u);
  EXPECT_GT(stats.local_answers, stats.fallbacks());
}

void ExpectSameResult(const core::NnValidityResult& got,
                      const core::NnValidityResult& want) {
  ASSERT_EQ(got.answers().size(), want.answers().size());
  for (size_t i = 0; i < got.answers().size(); ++i) {
    EXPECT_EQ(got.answers()[i].entry.id, want.answers()[i].entry.id);
  }
  ASSERT_EQ(got.influence_pairs().size(), want.influence_pairs().size());
  for (size_t i = 0; i < got.influence_pairs().size(); ++i) {
    EXPECT_EQ(got.influence_pairs()[i].incoming.id,
              want.influence_pairs()[i].incoming.id);
    EXPECT_EQ(got.influence_pairs()[i].displaced.id,
              want.influence_pairs()[i].displaced.id);
  }
  const std::vector<geo::Point>& gv = got.region().vertices();
  const std::vector<geo::Point>& wv = want.region().vertices();
  ASSERT_EQ(gv.size(), wv.size());
  for (size_t i = 0; i < gv.size(); ++i) {
    EXPECT_EQ(Bits(gv[i].x), Bits(wv[i].x));
    EXPECT_EQ(Bits(gv[i].y), Bits(wv[i].y));
  }
}

TEST(LocalTpBackendTest, ValidityResultsMatch) {
  for (size_t fragments : {1, 4}) {
    for (const Case& c : Datasets()) {
      Inner inner(c.data, fragments);
      LocalTpBackend local(inner.get());
      core::NnValidityEngine decorated(&local, kUnit);
      core::NnValidityEngine plain(inner.get(), kUnit);
      std::mt19937 rng(29);
      std::uniform_real_distribution<double> coord(0.0, 1.0);
      for (size_t k : {1, 10}) {
        for (int i = 0; i < 25; ++i) {
          const geo::Point q(coord(rng), coord(rng));
          SCOPED_TRACE(testing::Message() << c.name << " K=" << fragments
                                          << " k=" << k << " query " << i);
          ExpectSameResult(decorated.Query(q, k), plain.Query(q, k));
        }
      }
      EXPECT_GT(local.stats().local_answers, 0u);
    }
  }
}

// -- Forced fallbacks ---------------------------------------------------------

// A query on the convex hull, looking outward: nothing ever becomes
// closer than the query's own point, so no candidate proves anything.
TEST(LocalTpBackendTest, HullRayFallsBackAsNever) {
  const std::vector<rtree::DataEntry> data = Uniform(3000, 31);
  Inner inner(data, 1);
  size_t east = 0;
  for (size_t i = 1; i < data.size(); ++i) {
    if (data[i].point.x > data[east].point.x) east = i;
  }
  const geo::Point q = data[east].point;
  const geo::Vec2 l(1.0, 0.0);
  LocalTpBackend local(inner.get());
  const std::vector<rtree::Neighbor> answers = local.Knn(q, 1);
  ASSERT_EQ(answers[0].entry.id, data[east].id);
  const tp::TpnnResult got =
      local.Tpnn(q, l, answers[0].entry.point, answers[0].entry.id);
  EXPECT_FALSE(got.found);
  ExpectSame(got, inner.get()->Tpnn(q, l, answers[0].entry.point,
                                    answers[0].entry.id));
  EXPECT_EQ(local.stats().never_fallbacks, 1u);
  EXPECT_EQ(local.stats().fallbacks(), 1u);
}

// Two objects at the same position are the first influencers: the tree's
// pick between them follows its tie rule, so the decorator defers.
TEST(LocalTpBackendTest, DuplicateTieFallsBack) {
  std::vector<rtree::DataEntry> data = {{{0.5, 0.5}, 0},
                                        {{0.6, 0.5}, 9},
                                        {{0.6, 0.5}, 4}};
  std::mt19937 rng(37);
  std::uniform_real_distribution<double> behind(0.0, 0.4);
  for (rtree::ObjectId id = 10; id < 400; ++id) {
    data.push_back({{behind(rng), behind(rng) + 0.3}, id});
  }
  Inner inner(data, 1);
  const geo::Point q(0.49, 0.5);
  const geo::Vec2 l(1.0, 0.0);
  LocalTpBackend local(inner.get());
  const std::vector<rtree::Neighbor> answers = local.Knn(q, 1);
  ASSERT_EQ(answers[0].entry.id, 0u);
  const tp::TpnnResult got = local.Tpnn(q, l, {0.5, 0.5}, 0);
  ExpectSame(got, inner.get()->Tpnn(q, l, {0.5, 0.5}, 0));
  EXPECT_TRUE(got.found);
  EXPECT_EQ(got.object.id, 4u);
  EXPECT_EQ(local.stats().tie_fallbacks, 1u);
  EXPECT_EQ(local.stats().fallbacks(), 1u);
}

// The only object ahead of the query is close, but so slanted that its
// influence time dwarfs the bound of even 1024 candidates behind it.
TEST(LocalTpBackendTest, WideningStopsAtTheCap) {
  std::vector<rtree::DataEntry> data = {{{0.5, 0.5}, 0},
                                        {{0.5 + 1e-5, 0.502}, 1}};
  std::mt19937 rng(41);
  std::uniform_real_distribution<double> x(0.47, 0.4999);
  std::uniform_real_distribution<double> y(0.47, 0.53);
  for (rtree::ObjectId id = 2; id < 8000; ++id) {
    data.push_back({{x(rng), y(rng)}, id});
  }
  Inner inner(data, 1);
  const geo::Point q(0.5, 0.5);
  const geo::Vec2 l(1.0, 0.0);
  LocalTpBackend local(inner.get());
  ASSERT_EQ(local.Knn(q, 1)[0].entry.id, 0u);
  const tp::TpnnResult got = local.Tpnn(q, l, q, 0);
  ExpectSame(got, inner.get()->Tpnn(q, l, q, 0));
  EXPECT_EQ(got.object.id, 1u);
  EXPECT_EQ(local.stats().cap_fallbacks, 1u);
  EXPECT_EQ(local.stats().fallbacks(), 1u);
  // 64, 128, 256, 512, 1024.
  EXPECT_EQ(local.stats().knn_fetches, 5u);
}

// A non-answer sharing an answer's id is skipped by the tree searches
// (they exclude answers by id), so a candidate set with a duplicate id
// is not held and its TP queries go to the inner backend.
TEST(LocalTpBackendTest, DuplicateIdsAreNotHeld) {
  std::vector<rtree::DataEntry> data = {{{0.5, 0.5}, 1},
                                        {{0.5, 0.52}, 2},
                                        {{0.53, 0.5}, 1}};
  std::mt19937 rng(47);
  std::uniform_real_distribution<double> far(0.0, 0.3);
  for (rtree::ObjectId id = 10; id < 200; ++id) {
    data.push_back({{far(rng), far(rng)}, id});
  }
  Inner inner(data, 1);
  const geo::Point q(0.5, 0.505);
  const geo::Vec2 l(1.0, 0.0);
  LocalTpBackend local(inner.get());
  const std::vector<rtree::Neighbor> answers = local.Knn(q, 2);
  EXPECT_EQ(local.held(), 0u);
  const tp::TpknnResult got = local.Tpknn(q, l, answers);
  ExpectSame(got, inner.get()->Tpknn(q, l, answers));
  EXPECT_NE(got.incoming.id, 1u);
  EXPECT_EQ(local.stats().unheld_fallbacks, 1u);
}

// Candidates answer only the query they were fetched for, and never
// survive a buffer drop, an update, or a data change behind their back.
TEST(LocalTpBackendTest, CandidatesAreDroppedAndNeverServeAnotherQuery) {
  const std::vector<rtree::DataEntry> data = Uniform(3000, 43);
  Inner inner(data, 1);
  LocalTpBackend local(inner.get());
  const geo::Point q(0.4, 0.6);
  const geo::Vec2 l(0.6, 0.8);
  auto ask = [&](const geo::Point& at) {
    const std::vector<rtree::Neighbor> nn = inner.get()->Knn(at, 1);
    const tp::TpnnResult got =
        local.Tpnn(at, l, nn[0].entry.point, nn[0].entry.id);
    ExpectSame(got, inner.get()->Tpnn(at, l, nn[0].entry.point,
                                      nn[0].entry.id));
  };

  local.Knn(q, 1);
  EXPECT_EQ(local.held(), 64u);
  ask(geo::Point(0.41, 0.6));  // not the held query
  EXPECT_EQ(local.stats().unheld_fallbacks, 1u);
  ask(q);
  EXPECT_EQ(local.stats().local_answers, 1u);

  local.DropBuffers();
  EXPECT_EQ(local.held(), 0u);
  ask(q);
  EXPECT_EQ(local.stats().unheld_fallbacks, 2u);

  local.Knn(q, 1);
  local.Insert({0.7, 0.7}, 100000);
  EXPECT_EQ(local.held(), 0u);
  ask(q);
  local.Knn(q, 1);
  EXPECT_TRUE(local.Delete({0.7, 0.7}, 100000));
  EXPECT_EQ(local.held(), 0u);
  ask(q);
  EXPECT_EQ(local.stats().unheld_fallbacks, 4u);

  // A mutation that bypasses the decorator moves the update epoch.
  local.Knn(q, 1);
  inner.tree()->Insert({0.4, 0.6}, 100001);
  ask(q);
  EXPECT_EQ(local.stats().unheld_fallbacks, 5u);
  EXPECT_EQ(local.stats().local_answers, 1u);
}

}  // namespace
}  // namespace lbsq
