#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/frame.h"
#include "rtree/knn.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace lbsq::rtree {
namespace {

using test::BruteForceKnn;
using test::BruteForceWindow;
using test::Ids;
using test::SmallNodeOptions;
using test::TreeFixture;
using workload::MakeUnitUniform;

// ---------------------------------------------------------------------------
// Node serialization
// ---------------------------------------------------------------------------

TEST(NodeTest, LeafSerializationRoundTrip) {
  Node node;
  node.level = 0;
  for (uint32_t i = 0; i < kLeafCapacity; ++i) {
    node.data.push_back({{static_cast<double>(i), -0.5 * i}, i * 3});
  }
  storage::Page page;
  node.SerializeTo(&page);
  const Node back = Node::DeserializeFrom(page);
  ASSERT_EQ(back.level, 0);
  ASSERT_EQ(back.data.size(), node.data.size());
  for (size_t i = 0; i < node.data.size(); ++i) {
    EXPECT_EQ(back.data[i].point, node.data[i].point);
    EXPECT_EQ(back.data[i].id, node.data[i].id);
  }
}

TEST(NodeTest, InternalSerializationRoundTrip) {
  Node node;
  node.level = 3;
  for (uint32_t i = 0; i < kInternalCapacity; ++i) {
    node.children.push_back(
        {geo::Rect(i, i, i + 1.0, i + 2.0), i + 100});
  }
  storage::Page page;
  node.SerializeTo(&page);
  const Node back = Node::DeserializeFrom(page);
  ASSERT_EQ(back.level, 3);
  ASSERT_EQ(back.children.size(), node.children.size());
  for (size_t i = 0; i < node.children.size(); ++i) {
    EXPECT_EQ(back.children[i].mbr, node.children[i].mbr);
    EXPECT_EQ(back.children[i].child, node.children[i].child);
  }
}

TEST(NodeTest, CapacitiesMatchPaperLayout) {
  EXPECT_EQ(kLeafCapacity, 204u);
  EXPECT_EQ(kDataEntrySize, 20u);
  EXPECT_GE(kInternalCapacity, 100u);
}

// ---------------------------------------------------------------------------
// Construction: insert, bulk load, invariants
// ---------------------------------------------------------------------------

TEST(RTreeTest, InsertThenQuerySmall) {
  storage::PageManager disk;
  RTree tree(&disk, 16, SmallNodeOptions());
  const auto dataset = MakeUnitUniform(500, 11);
  for (const DataEntry& e : dataset.entries) tree.Insert(e.point, e.id);
  EXPECT_EQ(tree.size(), 500u);
  tree.CheckInvariants();
  EXPECT_GT(tree.height(), 1);

  std::vector<DataEntry> out;
  tree.WindowQuery(geo::Rect(0.2, 0.2, 0.5, 0.6), &out);
  std::sort(out.begin(), out.end(),
            [](const DataEntry& a, const DataEntry& b) { return a.id < b.id; });
  const auto expected =
      BruteForceWindow(dataset.entries, geo::Rect(0.2, 0.2, 0.5, 0.6));
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, expected[i].id);
  }
}

TEST(RTreeTest, BulkLoadMatchesBruteForce) {
  const auto dataset = MakeUnitUniform(5000, 23);
  TreeFixture fx(dataset.entries);
  fx.tree->CheckInvariants();
  EXPECT_EQ(fx.tree->size(), 5000u);

  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const double x = rng.Uniform(0, 0.9);
    const double y = rng.Uniform(0, 0.9);
    const geo::Rect w(x, y, x + rng.Uniform(0.01, 0.2),
                      y + rng.Uniform(0.01, 0.2));
    std::vector<DataEntry> out;
    fx.tree->WindowQuery(w, &out);
    EXPECT_EQ(Ids(out), Ids(BruteForceWindow(dataset.entries, w)));
  }
}

TEST(RTreeTest, BulkLoadEmptyAndSingle) {
  storage::PageManager disk;
  RTree tree(&disk, 4);
  tree.BulkLoad({});
  EXPECT_EQ(tree.size(), 0u);
  std::vector<DataEntry> out;
  tree.WindowQuery(geo::Rect(0, 0, 1, 1), &out);
  EXPECT_TRUE(out.empty());

  storage::PageManager disk2;
  RTree tree2(&disk2, 4);
  tree2.BulkLoad({{{0.5, 0.5}, 7}});
  tree2.WindowQuery(geo::Rect(0, 0, 1, 1), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 7u);
  tree2.CheckInvariants();
}

TEST(RTreeTest, InsertTriggersReinsertAndSplitKeepingInvariants) {
  storage::PageManager disk;
  RTree::Options options = SmallNodeOptions();
  RTree tree(&disk, 16, options);
  // Clustered insert order stresses forced reinsertion.
  const auto dataset = workload::MakeClustered(
      800, geo::Rect(0, 0, 1, 1), 10, 1.1, 0.01, 0.05, 0.1, 31);
  for (const DataEntry& e : dataset.entries) {
    tree.Insert(e.point, e.id);
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), 800u);
  std::vector<DataEntry> all;
  tree.WindowQuery(geo::Rect(0, 0, 1, 1), &all);
  EXPECT_EQ(all.size(), 800u);
}

TEST(RTreeTest, MixedInsertAfterBulkLoad) {
  const auto dataset = MakeUnitUniform(1000, 5);
  TreeFixture fx(dataset.entries, 32, SmallNodeOptions());
  const auto extra = MakeUnitUniform(300, 6);
  std::vector<DataEntry> reference = dataset.entries;
  for (const DataEntry& e : extra.entries) {
    fx.tree->Insert(e.point, e.id + 10000);
    reference.push_back({e.point, e.id + 10000});
  }
  fx.tree->CheckInvariants();
  EXPECT_EQ(fx.tree->size(), 1300u);
  const geo::Rect w(0.1, 0.3, 0.6, 0.7);
  std::vector<DataEntry> out;
  fx.tree->WindowQuery(w, &out);
  EXPECT_EQ(Ids(out), Ids(BruteForceWindow(reference, w)));
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

TEST(RTreeTest, DeleteRemovesOnlyTarget) {
  const auto dataset = MakeUnitUniform(400, 17);
  TreeFixture fx(dataset.entries, 32, SmallNodeOptions());
  // Delete every third point.
  std::vector<DataEntry> remaining;
  for (const DataEntry& e : dataset.entries) {
    if (e.id % 3 == 0) {
      EXPECT_TRUE(fx.tree->Delete(e.point, e.id));
    } else {
      remaining.push_back(e);
    }
  }
  fx.tree->CheckInvariants();
  EXPECT_EQ(fx.tree->size(), remaining.size());
  std::vector<DataEntry> out;
  fx.tree->WindowQuery(geo::Rect(0, 0, 1, 1), &out);
  EXPECT_EQ(Ids(out), Ids(remaining));
}

TEST(RTreeTest, DeleteMissingReturnsFalse) {
  const auto dataset = MakeUnitUniform(100, 19);
  TreeFixture fx(dataset.entries, 8, SmallNodeOptions());
  EXPECT_FALSE(fx.tree->Delete({2.0, 2.0}, 1));     // point not present
  EXPECT_FALSE(fx.tree->Delete(dataset.entries[0].point, 999999));  // id wrong
  EXPECT_EQ(fx.tree->size(), 100u);
}

TEST(RTreeTest, DeleteEverythingThenReinsert) {
  const auto dataset = MakeUnitUniform(250, 29);
  TreeFixture fx(dataset.entries, 16, SmallNodeOptions());
  for (const DataEntry& e : dataset.entries) {
    ASSERT_TRUE(fx.tree->Delete(e.point, e.id));
  }
  EXPECT_EQ(fx.tree->size(), 0u);
  fx.tree->CheckInvariants();
  for (const DataEntry& e : dataset.entries) fx.tree->Insert(e.point, e.id);
  EXPECT_EQ(fx.tree->size(), 250u);
  fx.tree->CheckInvariants();
}

// ---------------------------------------------------------------------------
// k-NN algorithms vs brute force (property sweep)
// ---------------------------------------------------------------------------

struct KnnCase {
  size_t n;
  size_t k;
  uint64_t seed;
};

class KnnParamTest : public ::testing::TestWithParam<KnnCase> {};

TEST_P(KnnParamTest, BothAlgorithmsMatchBruteForce) {
  const KnnCase param = GetParam();
  const auto dataset = MakeUnitUniform(param.n, param.seed);
  TreeFixture fx(dataset.entries, 32, SmallNodeOptions());

  Rng rng(param.seed ^ 0xabcdef);
  for (int i = 0; i < 25; ++i) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    const auto expected = BruteForceKnn(dataset.entries, q, param.k);
    const auto df = KnnDepthFirst(*fx.tree, q, param.k);
    const auto bf = KnnBestFirst(*fx.tree, q, param.k);
    ASSERT_EQ(df.size(), expected.size());
    ASSERT_EQ(bf.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(df[j].entry.id, expected[j].entry.id) << "DF rank " << j;
      EXPECT_EQ(bf[j].entry.id, expected[j].entry.id) << "BF rank " << j;
      EXPECT_DOUBLE_EQ(df[j].distance, expected[j].distance);
      EXPECT_DOUBLE_EQ(bf[j].distance, expected[j].distance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnParamTest,
    ::testing::Values(KnnCase{1, 1, 1}, KnnCase{10, 3, 2}, KnnCase{100, 1, 3},
                      KnnCase{500, 10, 4}, KnnCase{2000, 1, 5},
                      KnnCase{2000, 50, 6}, KnnCase{2000, 100, 7},
                      KnnCase{300, 300, 8},   // k == n
                      KnnCase{300, 400, 9},   // k > n
                      KnnCase{2000, net::kMaxRequestK, 10}));  // wire max

TEST(KnnTest, BestFirstNeverReadsMoreNodesThanDepthFirst) {
  const auto dataset = MakeUnitUniform(3000, 77);
  TreeFixture fx(dataset.entries, 0, SmallNodeOptions());
  Rng rng(123);
  uint64_t df_total = 0;
  uint64_t bf_total = 0;
  for (int i = 0; i < 20; ++i) {
    const geo::Point q{rng.NextDouble(), rng.NextDouble()};
    fx.tree->buffer().ResetCounters();
    KnnDepthFirst(*fx.tree, q, 10);
    df_total += fx.tree->buffer().logical_accesses();
    fx.tree->buffer().ResetCounters();
    KnnBestFirst(*fx.tree, q, 10);
    bf_total += fx.tree->buffer().logical_accesses();
  }
  // HS99 is I/O-optimal: on aggregate it cannot lose to depth-first.
  EXPECT_LE(bf_total, df_total);
}

TEST(KnnTest, EmptyTreeReturnsNothing) {
  storage::PageManager disk;
  RTree tree(&disk, 4);
  EXPECT_TRUE(KnnBestFirst(tree, {0.5, 0.5}, 3).empty());
  EXPECT_TRUE(KnnDepthFirst(tree, {0.5, 0.5}, 3).empty());
}

// ---------------------------------------------------------------------------
// Cost accounting
// ---------------------------------------------------------------------------

TEST(RTreeTest, BufferReducesPageAccesses) {
  const auto dataset = MakeUnitUniform(20000, 47);
  TreeFixture fx(dataset.entries, 0);
  fx.tree->SetBufferFraction(0.1);
  fx.tree->disk().ResetCounters();
  fx.tree->buffer().ResetCounters();

  // Repeated queries in the same area should mostly hit the buffer.
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    std::vector<DataEntry> out;
    const double x = 0.4 + rng.Uniform(0, 0.05);
    const double y = 0.4 + rng.Uniform(0, 0.05);
    fx.tree->WindowQuery(geo::Rect(x, y, x + 0.02, y + 0.02), &out);
  }
  const uint64_t na = fx.tree->buffer().logical_accesses();
  const uint64_t pa = fx.tree->disk().read_count();
  EXPECT_LT(pa, na / 5);  // most accesses served from the buffer
}

}  // namespace
}  // namespace lbsq::rtree
