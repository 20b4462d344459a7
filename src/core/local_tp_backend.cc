#include "core/local_tp_backend.h"

#include <algorithm>

#include "storage/page_store.h"
#include "tp/influence.h"

namespace lbsq::core {

namespace {

// Candidates fetched by Knn (at least k), and the widening cap for a
// query with `answers` answers: at least twice the answers, so even the
// largest k leaves room for one widening.
constexpr size_t kFirstFetch = 64;

size_t MaxCandidates(size_t answers) {
  return std::max<size_t>(1024, 2 * answers);
}

// Relative slack on the admissible stop, so rounding in the computed
// influence times can never turn a bound into a wrong answer.
constexpr double kMargin = 1e-9;

// True iff no object at distance `r` from q can reach influence time
// `best` (or tie it) against an answer at distance `d`: it cannot
// influence before (r - d)/2.
bool OutOfReach(double r, double d, double best) {
  return 0.5 * (r - d) > best + kMargin * (best + d);
}

}  // namespace

std::vector<rtree::Neighbor> LocalTpBackend::Knn(const geo::Point& q,
                                                 size_t k) {
  query_ = q;
  Fetch(std::max(k, kFirstFetch));
  const size_t n = std::min(k, candidates_.size());
  return std::vector<rtree::Neighbor>(candidates_.begin(),
                                      candidates_.begin() + n);
}

void LocalTpBackend::Fetch(size_t n) {
  candidates_ = inner_->Knn(query_, n);
  requested_ = n;
  epoch_ = inner_->update_epoch();
  ++stats_.knn_fetches;
  // Candidates read while a page fault is pending may come from a
  // substituted page. Duplicate ids (a degenerate dataset) would make the
  // tree searches' id-based exclusion of the answers differ from the
  // positional one below.
  id_scratch_.clear();
  for (const rtree::Neighbor& c : candidates_) id_scratch_.push_back(c.entry.id);
  std::sort(id_scratch_.begin(), id_scratch_.end());
  held_ = storage::PageStore::PendingReadError().ok() &&
          std::adjacent_find(id_scratch_.begin(), id_scratch_.end()) ==
              id_scratch_.end();
}

bool LocalTpBackend::Holds(const geo::Point& q) const {
  return held_ && q == query_ && inner_->update_epoch() == epoch_;
}

LocalTpBackend::Scan LocalTpBackend::ScanTpnn(const geo::Point& q,
                                              const geo::Vec2& l,
                                              const geo::Point& o,
                                              rtree::ObjectId o_id,
                                              double d) const {
  Scan s;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const rtree::Neighbor& c = candidates_[i];
    if (OutOfReach(c.distance, d, s.time)) {
      s.complete = true;
      return s;
    }
    if (c.entry.id == o_id) continue;
    s.Offer(tp::PointInfluenceTime(q, l, o, c.entry.point), i, 0);
  }
  // Fewer than requested: the whole dataset is held.
  s.complete = candidates_.size() < requested_;
  return s;
}

LocalTpBackend::Scan LocalTpBackend::ScanTpknn(const geo::Point& q,
                                               const geo::Vec2& l,
                                               size_t k) const {
  Scan s;
  const double dist_k = candidates_[k - 1].distance;
  for (size_t i = k; i < candidates_.size(); ++i) {
    const rtree::Neighbor& c = candidates_[i];
    if (OutOfReach(c.distance, dist_k, s.time)) {
      s.complete = true;
      return s;
    }
    // First crossing against any answer; on equal times the earlier
    // answer wins, as in the tree search. An answer c cannot reach
    // before the best time is skipped: it can be neither c's first
    // crossing nor tie it.
    double first = tp::kNever;
    size_t displaced = 0;
    for (size_t j = 0; j < k; ++j) {
      const rtree::Neighbor& a = candidates_[j];
      if (OutOfReach(c.distance, a.distance, s.time)) continue;
      const double t =
          tp::PointInfluenceTime(q, l, a.entry.point, c.entry.point);
      if (t < first) {
        first = t;
        displaced = j;
      }
    }
    s.Offer(first, i, displaced);
  }
  s.complete = candidates_.size() < requested_;
  return s;
}

LocalTpBackend::Verdict LocalTpBackend::Decide(const Scan& scan,
                                               size_t answers) {
  if (scan.tied) {
    ++stats_.tie_fallbacks;
    return Verdict::kDefer;
  }
  if (scan.complete) {
    ++stats_.local_answers;
    return Verdict::kAnswer;
  }
  if (scan.time == tp::kNever && candidates_.size() >= 2 * answers) {
    ++stats_.never_fallbacks;
    return Verdict::kDefer;
  }
  if (candidates_.size() >= MaxCandidates(answers)) {
    ++stats_.cap_fallbacks;
    return Verdict::kDefer;
  }
  return Verdict::kWiden;
}

tp::TpnnResult LocalTpBackend::Tpnn(const geo::Point& q, const geo::Vec2& l,
                                    const geo::Point& o,
                                    rtree::ObjectId o_id) {
  const double d = geo::Distance(q, o);
  while (Holds(q)) {
    const Scan s = ScanTpnn(q, l, o, o_id, d);
    switch (Decide(s, 1)) {
      case Verdict::kAnswer: {
        tp::TpnnResult r;
        if (s.time != tp::kNever) {
          r.found = true;
          r.object = candidates_[s.incoming].entry;
          r.time = s.time;
        }
        return r;
      }
      case Verdict::kWiden:
        Fetch(std::min(2 * candidates_.size(), MaxCandidates(1)));
        continue;
      case Verdict::kDefer:
        return inner_->Tpnn(q, l, o, o_id);
    }
  }
  ++stats_.unheld_fallbacks;
  return inner_->Tpnn(q, l, o, o_id);
}

tp::TpknnResult LocalTpBackend::Tpknn(
    const geo::Point& q, const geo::Vec2& l,
    const std::vector<rtree::Neighbor>& answers) {
  // The answers must be the held prefix, so the non-answers are exactly
  // the candidates after it.
  auto held_prefix = [&] {
    if (answers.empty() || answers.size() > candidates_.size()) return false;
    for (size_t j = 0; j < answers.size(); ++j) {
      const rtree::DataEntry& a = answers[j].entry;
      const rtree::DataEntry& c = candidates_[j].entry;
      if (a.id != c.id || !(a.point == c.point)) return false;
    }
    return true;
  };
  const size_t k = answers.size();
  while (Holds(q) && held_prefix()) {
    const Scan s = ScanTpknn(q, l, k);
    switch (Decide(s, k)) {
      case Verdict::kAnswer: {
        tp::TpknnResult r;
        if (s.time != tp::kNever) {
          r.found = true;
          r.incoming = candidates_[s.incoming].entry;
          r.displaced = candidates_[s.displaced].entry;
          r.time = s.time;
        }
        return r;
      }
      case Verdict::kWiden:
        Fetch(std::min(2 * candidates_.size(), MaxCandidates(k)));
        continue;
      case Verdict::kDefer:
        return inner_->Tpknn(q, l, answers);
    }
  }
  ++stats_.unheld_fallbacks;
  return inner_->Tpknn(q, l, answers);
}

}  // namespace lbsq::core
