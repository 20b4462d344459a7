#ifndef LBSQ_STORAGE_FAULT_INJECTING_PAGE_STORE_H_
#define LBSQ_STORAGE_FAULT_INJECTING_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/annotations.h"
#include "common/rng.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/page_store.h"

// Fault-injection decorator for robustness tests: simulates the failure
// modes a real disk/network storage layer exhibits, on a deterministic
// RNG schedule (seeded xoshiro; the k-th storage operation always draws
// the k-th decision, so a failing run replays exactly).
//
// Three fault kinds:
//   * read fault    — the page is unreadable this attempt: the caller
//                     receives an all-zero page and a kUnavailable
//                     read error. Transient: a retry redraws the
//                     schedule and (usually) succeeds.
//   * read corruption — one random bit of the returned bytes is flipped.
//                     Silent at this layer; a ChecksummedPageStore
//                     stacked *above* catches it as kDataLoss.
//   * torn write    — only the first half of the page reaches the inner
//                     store; the second half is zeroed. Detected on a
//                     later read by the checksum layer.
//
// Stack order matters: Checksummed(FaultInjecting(base)) verifies above
// the corruption source, which is the production stacking this decorator
// exists to exercise.
//
// Faults start *disarmed* so the index can be built cleanly through the
// stack (checksums stamped); arm() before the serving phase. Decision
// draws serialize on an internal mutex, so concurrent readers on several
// threads are safe (the schedule then follows the cross-thread operation
// order).

namespace lbsq::storage {

class FaultInjectingPageStore final : public PageStore {
 public:
  struct Options {
    uint64_t seed = 1;
    double read_fault_probability = 0.0;
    double read_corruption_probability = 0.0;
    double torn_write_probability = 0.0;
  };

  // Does not own `inner`.
  FaultInjectingPageStore(PageStore* inner, const Options& options);

  FaultInjectingPageStore(const FaultInjectingPageStore&) = delete;
  FaultInjectingPageStore& operator=(const FaultInjectingPageStore&) = delete;

  void arm() { armed_.store(true, std::memory_order_relaxed); }
  void disarm() { armed_.store(false, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  PageId Allocate() override { return inner_->Allocate(); }
  void Free(PageId id) override { inner_->Free(id); }
  void Read(PageId id, Page* out) override;
  void Write(PageId id, const Page& page) override;
  // On an injected fault the returned reference designates a thread-local
  // scratch page (valid until this thread's next ReadRef).
  const Page& ReadRef(PageId id) override;

  uint64_t read_count() const override { return inner_->read_count(); }
  uint64_t write_count() const override { return inner_->write_count(); }
  void ResetCounters() override { inner_->ResetCounters(); }
  size_t live_pages() const override { return inner_->live_pages(); }

  uint64_t injected_read_faults() const {
    return injected_read_faults_.load(std::memory_order_relaxed);
  }
  uint64_t injected_corruptions() const {
    return injected_corruptions_.load(std::memory_order_relaxed);
  }
  uint64_t injected_torn_writes() const {
    return injected_torn_writes_.load(std::memory_order_relaxed);
  }

 private:
  enum class ReadFault { kNone, kUnreadable, kCorrupt };

  // Draws the fate of one read: which fault (if any) and, for corruption,
  // which bit to flip.
  ReadFault DrawReadFault(uint32_t* flip_bit);
  bool DrawTornWrite();

  PageStore* inner_ LBSQ_EXCLUDED(const_after_init);
  Options options_ LBSQ_EXCLUDED(const_after_init);
  std::atomic<bool> armed_ LBSQ_EXCLUDED(relaxed_atomic){false};
  std::mutex rng_mu_;
  Rng rng_ LBSQ_GUARDED_BY(rng_mu_);
  std::atomic<uint64_t> injected_read_faults_ LBSQ_EXCLUDED(relaxed_atomic){0};
  std::atomic<uint64_t> injected_corruptions_ LBSQ_EXCLUDED(relaxed_atomic){0};
  std::atomic<uint64_t> injected_torn_writes_ LBSQ_EXCLUDED(relaxed_atomic){0};
};

}  // namespace lbsq::storage

#endif  // LBSQ_STORAGE_FAULT_INJECTING_PAGE_STORE_H_
