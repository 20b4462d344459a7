#include "partition/str_partition.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace lbsq::partition {

namespace {

// Interior boundaries that split `values` into runs holding shares
// cum[j] / total of them: boundary j is the value the sorted order puts
// at n * cum[j] / total, so the half-open "value >= boundary goes right"
// routing reproduces the split. `cum` ascends. Each order statistic comes
// from std::nth_element over what the previous one left above it, so
// `values` is reordered but never fully sorted. Falls back to an even
// geometric split of [lo, hi] when there are no values to derive from.
std::vector<double> QuantileBounds(std::vector<double>* values,
                                   const std::vector<size_t>& cum,
                                   size_t total, double lo, double hi) {
  std::vector<double> bounds;
  bounds.reserve(cum.size());
  const size_t n = values->size();
  size_t done = 0;
  for (const size_t c : cum) {
    if (n == 0) {
      bounds.push_back(lo + (hi - lo) * static_cast<double>(c) /
                                static_cast<double>(total));
      continue;
    }
    const size_t cut = std::min(n * c / total, n - 1);
    std::nth_element(values->begin() + static_cast<ptrdiff_t>(done),
                     values->begin() + static_cast<ptrdiff_t>(cut),
                     values->end());
    done = cut;
    bounds.push_back((*values)[cut]);
  }
  return bounds;
}

}  // namespace

PartitionLayout::PartitionLayout(const std::vector<rtree::DataEntry>& entries,
                                 const geo::Rect& universe, size_t fragments)
    : universe_(universe) {
  LBSQ_CHECK(fragments >= 1);
  LBSQ_CHECK(!universe.IsEmpty());

  // STR shape: S = ceil(sqrt(K)) slabs; the first K % S slabs take the
  // extra band so band counts differ by at most one.
  const size_t slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(fragments))));
  std::vector<size_t> bands_per_slab(slabs, fragments / slabs);
  for (size_t s = 0; s < fragments % slabs; ++s) ++bands_per_slab[s];

  // Slab x boundaries: split the x coordinates so each slab's share of
  // the data is proportional to its band count.
  std::vector<double> xs;
  xs.reserve(entries.size());
  for (const rtree::DataEntry& e : entries) xs.push_back(e.point.x);
  std::vector<size_t> cum_bands(slabs - 1);
  std::partial_sum(bands_per_slab.begin(), bands_per_slab.end() - 1,
                   cum_bands.begin());
  slab_bounds_ = QuantileBounds(&xs, cum_bands, fragments, universe.min_x,
                                universe.max_x);
  xs = {};  // freed before the slabs' y coordinates are gathered

  // Band y boundaries within each slab, derived from the entries the
  // slab actually routes (the >= rule), so assignment and boundaries
  // agree even with duplicate coordinates on a cut.
  band_bounds_.resize(slabs);
  slab_first_fragment_.resize(slabs);
  size_t next_fragment = 0;
  for (size_t s = 0; s < slabs; ++s) {
    slab_first_fragment_[s] = next_fragment;
    next_fragment += bands_per_slab[s];
    const double lo_x = s == 0 ? universe.min_x : slab_bounds_[s - 1];
    const double hi_x = s + 1 == slabs ? universe.max_x : slab_bounds_[s];
    std::vector<double> ys;
    for (const rtree::DataEntry& e : entries) {
      if (SlabOf(e.point.x) == s) ys.push_back(e.point.y);
    }
    std::vector<size_t> cum;
    for (size_t b = 1; b < bands_per_slab[s]; ++b) cum.push_back(b);
    band_bounds_[s] = QuantileBounds(&ys, cum, bands_per_slab[s],
                                     universe.min_y, universe.max_y);

    // Ownership rectangles for this slab's bands.
    for (size_t b = 0; b < bands_per_slab[s]; ++b) {
      const double lo_y = b == 0 ? universe.min_y : band_bounds_[s][b - 1];
      const double hi_y = b + 1 == bands_per_slab[s] ? universe.max_y
                                                     : band_bounds_[s][b];
      ownership_.push_back(geo::Rect{lo_x, lo_y, hi_x, hi_y});
    }
  }
  LBSQ_CHECK(ownership_.size() == fragments);
}

size_t PartitionLayout::SlabOf(double x) const {
  // Number of interior boundaries at or below x: x on a boundary routes
  // to the right slab.
  return static_cast<size_t>(
      std::upper_bound(slab_bounds_.begin(), slab_bounds_.end(), x) -
      slab_bounds_.begin());
}

size_t PartitionLayout::OwnerOf(const geo::Point& p) const {
  const size_t s = SlabOf(p.x);
  const std::vector<double>& bb = band_bounds_[s];
  const size_t b = static_cast<size_t>(
      std::upper_bound(bb.begin(), bb.end(), p.y) - bb.begin());
  return slab_first_fragment_[s] + b;
}

bool PartitionLayout::StrictlyOwns(size_t fragment, const geo::Rect& r) const {
  if (r.IsEmpty()) return true;
  // OwnerOf is monotone per axis (slab in x, band in y within a slab),
  // so a rectangle routes entirely to one fragment iff its four corners
  // do. Testing through OwnerOf itself — rather than re-deriving edge
  // open/closedness — keeps this exactly consistent with routing.
  return OwnerOf({r.min_x, r.min_y}) == fragment &&
         OwnerOf({r.min_x, r.max_y}) == fragment &&
         OwnerOf({r.max_x, r.min_y}) == fragment &&
         OwnerOf({r.max_x, r.max_y}) == fragment;
}

std::vector<std::vector<rtree::DataEntry>> PartitionEntries(
    const PartitionLayout& layout,
    const std::vector<rtree::DataEntry>& entries) {
  // Size every bucket first, so none grows by reallocation.
  std::vector<size_t> counts(layout.num_fragments(), 0);
  for (const rtree::DataEntry& e : entries) ++counts[layout.OwnerOf(e.point)];
  std::vector<std::vector<rtree::DataEntry>> buckets(layout.num_fragments());
  for (size_t f = 0; f < buckets.size(); ++f) buckets[f].reserve(counts[f]);
  for (const rtree::DataEntry& e : entries) {
    buckets[layout.OwnerOf(e.point)].push_back(e);
  }
  return buckets;
}

}  // namespace lbsq::partition
