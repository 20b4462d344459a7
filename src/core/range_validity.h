#ifndef LBSQ_CORE_RANGE_VALIDITY_H_
#define LBSQ_CORE_RANGE_VALIDITY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/spatial_backend.h"
#include "geometry/convex_polygon.h"
#include "geometry/disk_region.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rtree.h"

// Location-based *range* queries ("all restaurants within 5 km of me") —
// the extension the paper's conclusion proposes as future work. The
// validity region is bounded by circular arcs: the focus must stay within
// distance r of every result object and at distance > r from every
// nearby outer object. Processing mirrors the window-query engine: a
// range query for the result, then one search over the marginal area for
// candidate outer influence objects.

namespace lbsq::core {

class RangeValidityResult {
 public:
  RangeValidityResult() = default;
  RangeValidityResult(geo::Point focus, double radius,
                      std::vector<rtree::DataEntry> result,
                      std::vector<rtree::DataEntry> inner_influencers,
                      std::vector<rtree::DataEntry> outer_influencers,
                      geo::DiskRegion region, geo::ConvexPolygon conservative)
      : focus_(focus),
        radius_(radius),
        result_(std::move(result)),
        inner_influencers_(std::move(inner_influencers)),
        outer_influencers_(std::move(outer_influencers)),
        region_(std::move(region)),
        conservative_(std::move(conservative)) {}

  const geo::Point& focus() const { return focus_; }
  double radius() const { return radius_; }
  const std::vector<rtree::DataEntry>& result() const { return result_; }

  // Influence objects of the conservative representation: result members
  // whose distance constraint shapes the region, and outer objects whose
  // disk trims it.
  const std::vector<rtree::DataEntry>& inner_influencers() const {
    return inner_influencers_;
  }
  const std::vector<rtree::DataEntry>& outer_influencers() const {
    return outer_influencers_;
  }
  size_t InfluenceSetSize() const {
    return inner_influencers_.size() + outer_influencers_.size();
  }

  // Exact arc-bounded region and its conservative convex polygon.
  const geo::DiskRegion& region() const { return region_; }
  const geo::ConvexPolygon& conservative_region() const {
    return conservative_;
  }

  bool IsValidAt(const geo::Point& p) const { return region_.Contains(p); }
  bool IsValidAtConservative(const geo::Point& p) const {
    return conservative_.Contains(p);
  }

 private:
  geo::Point focus_;
  double radius_ = 0.0;
  std::vector<rtree::DataEntry> result_;
  std::vector<rtree::DataEntry> inner_influencers_;
  std::vector<rtree::DataEntry> outer_influencers_;
  geo::DiskRegion region_;
  geo::ConvexPolygon conservative_;
};

class RangeValidityEngine {
 public:
  struct Stats {
    uint64_t result_node_accesses = 0;
    uint64_t influence_node_accesses = 0;
    size_t outer_candidates = 0;
  };

  RangeValidityEngine(rtree::RTree* tree, const geo::Rect& universe);
  // Runs over any SpatialBackend (the backend outlives the engine).
  RangeValidityEngine(SpatialBackend* backend, const geo::Rect& universe);

  // All objects within distance `radius` of `focus` (closed), plus the
  // validity region of that answer.
  RangeValidityResult Query(const geo::Point& focus, double radius);

  const Stats& stats() const { return stats_; }
  const geo::Rect& universe() const { return universe_; }

 private:
  SpatialBackend* backend() {
    return external_ != nullptr ? external_ : &*owned_;
  }

  std::optional<RTreeBackend> owned_;   // set by the RTree* constructors
  SpatialBackend* external_ = nullptr;  // set by the backend constructors
  geo::Rect universe_;
  Stats stats_;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_RANGE_VALIDITY_H_
