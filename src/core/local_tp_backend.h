#ifndef LBSQ_CORE_LOCAL_TP_BACKEND_H_
#define LBSQ_CORE_LOCAL_TP_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/spatial_backend.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/knn.h"
#include "tp/tpnn.h"

// A SpatialBackend decorator that answers step (ii) of a location-based
// k-NN query from the query's own nearest neighbours instead of one
// root-to-leaf TPNN/TPkNN descent per unconfirmed polygon vertex
// (Figures 10/12). core::Server puts it between its backend and the NN
// engine only; the window and range engines run undecorated.
//
//   * Knn(q, k) fetches the max(k, 64) nearest neighbours of q from the
//     inner backend, holds them, and returns the first k — by the
//     determinism contract in spatial_backend.h that prefix is exactly
//     the inner Knn(q, k).
//   * Tpnn/Tpknn at the held q scan the held candidates, nearest first,
//     with the same influence-time kernel as the tree searches. An object
//     at distance r from q cannot influence before t = (r - d)/2, where d
//     is the distance to the current NN (Tpnn) or to the k-th answer
//     (Tpknn): the moving point gains at most t on it and loses at most t
//     on the answer. So once the next candidate's bound exceeds the best
//     time (with a small margin for rounding), no later candidate and no
//     unheld object can improve on or tie it, and the scan's answer is
//     the tree's.
//   * Otherwise the candidate set is widened (Knn with twice as many) up
//     to max(1024, 2k), and beyond that the query is deferred to the inner
//     backend. It is also deferred when two candidates tie exactly on the
//     best time (the tree's tie outcome can depend on its traversal
//     order), when no held object ever influences (widening rarely finds
//     one), and when q (or, for Tpknn, the answer set) is not the held
//     query's.
//
// Every answer therefore equals the inner backend's. The candidates are
// dropped on DropBuffers (a fault may have fed them from a substituted
// page), on Insert/Delete, and whenever the inner update epoch moves.

namespace lbsq::core {

class LocalTpBackend final : public SpatialBackend {
 public:
  // Cumulative counts of how the TP queries were answered.
  struct Stats {
    uint64_t knn_fetches = 0;     // inner Knn calls, widenings included
    uint64_t local_answers = 0;   // TP queries answered from candidates
    // TP queries deferred to the inner backend, by reason:
    uint64_t unheld_fallbacks = 0;  // not the held query (or none held)
    uint64_t never_fallbacks = 0;   // no held object ever influences
    uint64_t tie_fallbacks = 0;     // two candidates tie on the best time
    uint64_t cap_fallbacks = 0;     // the bound failed at the widening cap
    uint64_t fallbacks() const {
      return unheld_fallbacks + never_fallbacks + tie_fallbacks +
             cap_fallbacks;
    }
  };

  // `inner` must outlive the decorator.
  explicit LocalTpBackend(SpatialBackend* inner) : inner_(inner) {}

  size_t size() const override { return inner_->size(); }
  uint64_t node_accesses() const override { return inner_->node_accesses(); }
  uint64_t page_accesses() const override { return inner_->page_accesses(); }

  std::vector<rtree::Neighbor> Knn(const geo::Point& q, size_t k) override;
  void WindowQuery(const geo::Rect& w,
                   std::vector<rtree::DataEntry>* out) override {
    inner_->WindowQuery(w, out);
  }
  tp::TpnnResult Tpnn(const geo::Point& q, const geo::Vec2& l,
                      const geo::Point& o, rtree::ObjectId o_id) override;
  tp::TpknnResult Tpknn(const geo::Point& q, const geo::Vec2& l,
                        const std::vector<rtree::Neighbor>& answers) override;

  void DropBuffers() override {
    Drop();
    inner_->DropBuffers();
  }

  size_t num_fragments() const override { return inner_->num_fragments(); }
  size_t OwnerOf(const geo::Point& p) const override {
    return inner_->OwnerOf(p);
  }
  bool StrictlyOwns(size_t fragment, const geo::Rect& r) const override {
    return inner_->StrictlyOwns(fragment, r);
  }

  void Insert(const geo::Point& p, rtree::ObjectId id) override {
    Drop();
    inner_->Insert(p, id);
  }
  bool Delete(const geo::Point& p, rtree::ObjectId id) override {
    Drop();
    return inner_->Delete(p, id);
  }
  uint64_t update_epoch() const override { return inner_->update_epoch(); }

  const Stats& stats() const { return stats_; }
  // Number of candidates currently held (0 after a drop).
  size_t held() const { return held_ ? candidates_.size() : 0; }

 private:
  // The outcome of one scan of the held candidates.
  struct Scan {
    double time = tp::kNever;  // best influence time
    size_t incoming = 0;       // candidate index achieving it
    size_t displaced = 0;      // Tpknn: the answer whose bisector it crosses
    bool tied = false;         // another candidate reaches `time` exactly
    bool complete = false;     // no unscanned or unheld object reaches it

    // Keeps the minimum time, flagging an exact tie between candidates.
    void Offer(double t, size_t i, size_t j) {
      if (t < time) {
        time = t;
        incoming = i;
        displaced = j;
        tied = false;
      } else if (t == time && t != tp::kNever) {
        tied = true;
      }
    }
  };
  enum class Verdict { kAnswer, kWiden, kDefer };

  // Replaces the held set with the n nearest neighbours of query_.
  void Fetch(size_t n);
  void Drop() { held_ = false; }
  // True iff the held candidates are q's and the data has not moved.
  bool Holds(const geo::Point& q) const;
  // Tpnn: every candidate but o_id against `o`, at distance d from q.
  Scan ScanTpnn(const geo::Point& q, const geo::Vec2& l, const geo::Point& o,
                rtree::ObjectId o_id, double d) const;
  // Tpknn: candidates [k, end) against the answers, candidates [0, k).
  Scan ScanTpknn(const geo::Point& q, const geo::Vec2& l, size_t k) const;
  // What to do with a scan against `answers` answers; counts the
  // outcome in stats_.
  Verdict Decide(const Scan& scan, size_t answers);

  SpatialBackend* inner_;
  bool held_ = false;
  geo::Point query_;
  uint64_t epoch_ = 0;
  size_t requested_ = 0;  // the n of the last Fetch
  std::vector<rtree::Neighbor> candidates_;
  std::vector<rtree::ObjectId> id_scratch_;
  Stats stats_;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_LOCAL_TP_BACKEND_H_
