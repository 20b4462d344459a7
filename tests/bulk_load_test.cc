// Build equivalence of the STR bulk load and the STR partition layout.
//
// RTree::BulkLoad orders entries with a radix sort of coordinate keys and
// PartitionLayout finds its cuts with std::nth_element. Both must build
// exactly what the references below build with full comparison sorts:
// every page byte and the tree meta, and every ownership boundary. The
// data covers sizes below one leaf and partial slices, several fills and
// small node capacities, and the tie cases where std::sort's own order
// decides: grid duplicates, border-clamped points and signed zeros.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/point.h"
#include "geometry/rect.h"
#include "partition/str_partition.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/page.h"
#include "storage/page_manager.h"
#include "workload/datasets.h"

namespace lbsq {
namespace {

using rtree::DataEntry;
using rtree::RTree;

// -- Reference STR bulk load (comparison sorts) ------------------------------

// Writes `node` to a fresh page of `pages`, or over page `id`.
storage::PageId WritePage(storage::PageManager* pages, const rtree::Node& node,
                          storage::PageId id = storage::kInvalidPageId) {
  if (id == storage::kInvalidPageId) id = pages->Allocate();
  storage::Page page;
  node.SerializeTo(&page);
  pages->Write(id, page);
  return id;
}

// The STR build as a fresh RTree on `pages` followed by BulkLoad lays it
// out: page 0 is the empty root that becomes the first leaf, leaves are
// x-sorted slices cut into y-sorted runs, and upper levels pack their
// children in order.
RTree::Meta ReferenceBulkLoad(std::vector<DataEntry> entries, double fill,
                              const RTree::Options& options,
                              storage::PageManager* pages) {
  RTree::Meta meta;
  meta.root = WritePage(pages, rtree::Node{});
  meta.num_nodes = 1;
  meta.size = entries.size();
  if (entries.empty()) return meta;
  const auto leaf_cap = std::max<size_t>(
      1, static_cast<size_t>(fill * options.leaf_capacity));
  const auto int_cap = std::max<size_t>(
      2, static_cast<size_t>(fill * options.internal_capacity));

  std::sort(entries.begin(), entries.end(),
            [](const DataEntry& a, const DataEntry& b) {
              return a.point.x < b.point.x;
            });
  const size_t num_leaves = (entries.size() + leaf_cap - 1) / leaf_cap;
  const auto num_slices = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t slice_size = (entries.size() + num_slices - 1) / num_slices;
  std::vector<rtree::ChildEntry> level_entries;
  bool reused_root = false;
  for (size_t s = 0; s < entries.size(); s += slice_size) {
    const size_t slice_end = std::min(entries.size(), s + slice_size);
    std::sort(entries.begin() + static_cast<ptrdiff_t>(s),
              entries.begin() + static_cast<ptrdiff_t>(slice_end),
              [](const DataEntry& a, const DataEntry& b) {
                return a.point.y < b.point.y;
              });
    for (size_t i = s; i < slice_end; i += leaf_cap) {
      rtree::Node leaf;
      leaf.data.assign(
          entries.begin() + static_cast<ptrdiff_t>(i),
          entries.begin() +
              static_cast<ptrdiff_t>(std::min(slice_end, i + leaf_cap)));
      storage::PageId id;
      if (!reused_root) {
        id = WritePage(pages, leaf, meta.root);
        reused_root = true;
      } else {
        id = WritePage(pages, leaf);
        ++meta.num_nodes;
      }
      level_entries.push_back({leaf.ComputeMbr(), id});
    }
  }
  uint16_t level = 1;
  while (level_entries.size() > 1) {
    std::vector<rtree::ChildEntry> next;
    for (size_t i = 0; i < level_entries.size(); i += int_cap) {
      rtree::Node inner;
      inner.level = level;
      inner.children.assign(
          level_entries.begin() + static_cast<ptrdiff_t>(i),
          level_entries.begin() +
              static_cast<ptrdiff_t>(std::min(level_entries.size(),
                                              i + int_cap)));
      next.push_back({inner.ComputeMbr(), WritePage(pages, inner)});
      ++meta.num_nodes;
    }
    level_entries = std::move(next);
    ++level;
  }
  meta.root = level_entries[0].child;
  meta.root_level = static_cast<uint16_t>(level - 1);
  return meta;
}

// BulkLoad and the reference build the same pages, byte for byte.
void ExpectSameBuild(const std::vector<DataEntry>& entries, double fill,
                     const RTree::Options& options) {
  SCOPED_TRACE(testing::Message()
               << "n=" << entries.size() << " fill=" << fill
               << " leaf_capacity=" << options.leaf_capacity
               << " internal_capacity=" << options.internal_capacity);
  storage::PageManager built;
  RTree tree(&built, 16, options);
  tree.BulkLoad(entries, fill);
  tree.buffer().FlushAll();
  storage::PageManager reference;
  const RTree::Meta want =
      ReferenceBulkLoad(entries, fill, options, &reference);

  const RTree::Meta got = tree.meta();
  EXPECT_EQ(got.root, want.root);
  EXPECT_EQ(got.root_level, want.root_level);
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.num_nodes, want.num_nodes);
  ASSERT_EQ(built.live_pages(), reference.live_pages());
  size_t differing = 0;
  for (storage::PageId id = 0; id < built.live_pages(); ++id) {
    if (std::memcmp(built.ReadRef(id).data(), reference.ReadRef(id).data(),
                    storage::kPageSize) != 0) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0u) << "of " << built.live_pages() << " pages";
}

std::vector<DataEntry> Uniform(size_t n, uint64_t seed) {
  return workload::MakeUnitUniform(n, seed).entries;
}

// Number of entries whose `coord` equals another entry's.
size_t Tied(std::vector<DataEntry> entries, double geo::Point::*coord) {
  std::sort(entries.begin(), entries.end(),
            [&](const DataEntry& a, const DataEntry& b) {
              return a.point.*coord < b.point.*coord;
            });
  size_t tied = 0;
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].point.*coord == entries[i].point.*coord) ++tied;
  }
  return tied;
}

const RTree::Options kDefault;

TEST(BulkLoadTest, MatchesComparisonSortAcrossSizesFillsAndCapacities) {
  const std::vector<RTree::Options> options = {kDefault, {4, 4}, {8, 3}};
  for (const RTree::Options& o : options) {
    const size_t leaf_cap = o.leaf_capacity;
    for (size_t n : {size_t{1}, size_t{2}, leaf_cap / 2, leaf_cap - 1, leaf_cap,
                     leaf_cap + 1, size_t{997}, size_t{3001}, size_t{20011}}) {
      const std::vector<DataEntry> data = Uniform(n, 100 + n);
      for (double fill : {0.5, 0.7, 1.0}) ExpectSameBuild(data, fill, o);
    }
  }
}

// Every coordinate repeats: the comparison sorts order the whole build.
TEST(BulkLoadTest, MatchesComparisonSortOnGridDuplicates) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> cell(0, 40);
  std::vector<DataEntry> data;
  for (uint32_t i = 0; i < 12000; ++i) {
    data.push_back({{cell(rng) / 40.0, cell(rng) / 40.0}, i});
  }
  for (double fill : {0.5, 0.7, 1.0}) {
    ExpectSameBuild(data, fill, kDefault);
    ExpectSameBuild(data, fill, {8, 3});
  }
}

// Distinct x but repeated y: the slices sorted by y fall back one by one.
TEST(BulkLoadTest, MatchesComparisonSortOnDuplicateYOnly) {
  std::vector<DataEntry> data = Uniform(15000, 11);
  std::mt19937 rng(13);
  std::uniform_int_distribution<int> cell(0, 200);
  for (size_t i = 0; i < data.size(); i += 2) {
    data[i].point.y = cell(rng) / 200.0;
  }
  ASSERT_EQ(Tied(data, &geo::Point::x), 0u);
  ASSERT_GT(Tied(data, &geo::Point::y), 0u);
  for (double fill : {0.5, 0.7, 1.0}) ExpectSameBuild(data, fill, kDefault);
}

// The GR- and NA-like generators clamp stray points onto the universe
// border, so their x (and y) coordinates repeat there.
TEST(BulkLoadTest, MatchesComparisonSortOnBorderClampedData) {
  const std::vector<DataEntry> gr = workload::MakeGrLike(3, 23268).entries;
  const std::vector<DataEntry> na = workload::MakeNaLike(5, 60000).entries;
  EXPECT_GT(Tied(gr, &geo::Point::x) + Tied(na, &geo::Point::x), 0u);
  for (double fill : {0.7, 1.0}) {
    ExpectSameBuild(gr, fill, kDefault);
    ExpectSameBuild(na, fill, kDefault);
  }
}

// `<` treats -0.0 and +0.0 as equal, so they are a tie even though their
// bits differ; in either input order the comparison sort decides.
TEST(BulkLoadTest, MatchesComparisonSortOnSignedZeros) {
  std::vector<DataEntry> data =
      workload::MakeUniform(12000, geo::Rect(-1.0, -1.0, 1.0, 1.0), 17)
          .entries;
  for (const double first : {-0.0, 0.0}) {
    std::vector<DataEntry> zeros = data;
    zeros[100].point.x = first;
    zeros[9000].point.x = -first;
    zeros[200].point.y = first;
    zeros[300].point.y = -first;
    SCOPED_TRACE(std::signbit(first) ? "-0.0 first" : "+0.0 first");
    for (double fill : {0.5, 1.0}) {
      ExpectSameBuild(zeros, fill, kDefault);
      ExpectSameBuild(zeros, fill, {4, 4});
    }
    // Zeros only in y: distinct x, so only the slices fall back.
    std::vector<DataEntry> y_only = data;
    for (size_t i = 0; i < y_only.size(); i += 50) {
      y_only[i].point.y = (i / 50) % 2 == 0 ? first : -first;
    }
    ExpectSameBuild(y_only, 0.7, kDefault);
  }
  // On this few entries std::sort (libstdc++) only insertion-sorts, which
  // keeps a +0.0 ahead of a -0.0 it precedes: a build that ordered the
  // two by their bits would differ.
  // Twelve entries at capacity 4 make two slices of six.
  std::vector<DataEntry> tiny;
  for (uint32_t i = 0; i < 12; ++i) {
    tiny.push_back({{(i - 5.0) / 12.0, (i * 7 % 12) / 12.0 + 0.01}, i});
  }
  // The x zeros are 6th and 7th in x order, so they straddle the slices.
  std::vector<DataEntry> x_zeros = tiny;
  x_zeros[6].point.x = -0.0;
  ASSERT_EQ(x_zeros[5].point.x, 0.0);
  ExpectSameBuild(x_zeros, 1.0, {4, 4});
  // Distinct x; the y zeros share the first slice.
  std::vector<DataEntry> y_zeros = tiny;
  y_zeros[2].point.y = 0.0;
  y_zeros[3].point.y = -0.0;
  ExpectSameBuild(y_zeros, 1.0, {4, 4});
}

// -- Reference partition layout (sorted quantiles) ---------------------------

// The ownership rectangles PartitionLayout built from fully sorted
// coordinates.
std::vector<geo::Rect> ReferenceOwnership(const std::vector<DataEntry>& entries,
                                          const geo::Rect& universe,
                                          size_t fragments) {
  const auto slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(fragments))));
  std::vector<size_t> bands(slabs, fragments / slabs);
  for (size_t s = 0; s < fragments % slabs; ++s) ++bands[s];
  std::vector<double> xs;
  for (const DataEntry& e : entries) xs.push_back(e.point.x);
  std::sort(xs.begin(), xs.end());
  std::vector<double> slab_bounds;
  size_t cum = 0;
  for (size_t s = 0; s + 1 < slabs; ++s) {
    cum += bands[s];
    slab_bounds.push_back(xs[std::min(xs.size() * cum / fragments,
                                      xs.size() - 1)]);
  }
  std::vector<geo::Rect> rects;
  for (size_t s = 0; s < slabs; ++s) {
    std::vector<double> ys;
    for (const DataEntry& e : entries) {
      const auto slab = static_cast<size_t>(
          std::upper_bound(slab_bounds.begin(), slab_bounds.end(),
                           e.point.x) -
          slab_bounds.begin());
      if (slab == s) ys.push_back(e.point.y);
    }
    std::sort(ys.begin(), ys.end());
    std::vector<double> band_bounds;
    for (size_t b = 1; b < bands[s]; ++b) {
      band_bounds.push_back(
          ys[std::min(ys.size() * b / bands[s], ys.size() - 1)]);
    }
    const double lo_x = s == 0 ? universe.min_x : slab_bounds[s - 1];
    const double hi_x = s + 1 == slabs ? universe.max_x : slab_bounds[s];
    for (size_t b = 0; b < bands[s]; ++b) {
      rects.push_back({lo_x, b == 0 ? universe.min_y : band_bounds[b - 1], hi_x,
                       b + 1 == bands[s] ? universe.max_y : band_bounds[b]});
    }
  }
  return rects;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// Cuts fall on runs of equal coordinates; each bound is still the sorted
// quantile, bit for bit, and PartitionEntries keeps the input order.
TEST(PartitionLayoutTest, BoundsAreTheSortedQuantilesOnDuplicateData) {
  const geo::Rect unit(0.0, 0.0, 1.0, 1.0);
  std::mt19937 rng(19);
  std::uniform_int_distribution<int> cell(0, 9);
  std::vector<DataEntry> grid;
  for (uint32_t i = 0; i < 5000; ++i) {
    grid.push_back({{cell(rng) / 9.0, cell(rng) / 9.0}, i});
  }
  const std::vector<std::vector<DataEntry>> datasets = {
      grid, Uniform(4001, 23), Uniform(7, 29)};
  for (const std::vector<DataEntry>& data : datasets) {
    for (size_t k = 1; k <= 9; ++k) {
      SCOPED_TRACE(testing::Message() << "n=" << data.size() << " K=" << k);
      const partition::PartitionLayout layout(data, unit, k);
      const std::vector<geo::Rect> want = ReferenceOwnership(data, unit, k);
      ASSERT_EQ(layout.num_fragments(), want.size());
      for (size_t f = 0; f < k; ++f) {
        const geo::Rect& got = layout.OwnershipRect(f);
        EXPECT_TRUE(SameBits(got.min_x, want[f].min_x) &&
                    SameBits(got.min_y, want[f].min_y) &&
                    SameBits(got.max_x, want[f].max_x) &&
                    SameBits(got.max_y, want[f].max_y))
            << "fragment " << f;
      }
      const std::vector<std::vector<DataEntry>> buckets =
          partition::PartitionEntries(layout, data);
      for (size_t f = 0; f < k; ++f) {
        std::vector<uint32_t> want_ids;
        for (const DataEntry& e : data) {
          if (layout.OwnerOf(e.point) == f) want_ids.push_back(e.id);
        }
        std::vector<uint32_t> got_ids;
        for (const DataEntry& e : buckets[f]) got_ids.push_back(e.id);
        EXPECT_EQ(got_ids, want_ids) << "fragment " << f;
      }
    }
  }
}

}  // namespace
}  // namespace lbsq
