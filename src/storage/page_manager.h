#ifndef LBSQ_STORAGE_PAGE_MANAGER_H_
#define LBSQ_STORAGE_PAGE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/page.h"
#include "storage/page_store.h"

// An in-memory "disk": a growable array of pages with read/write counters.
// The counters are the paper's page-access (PA) metric when a buffer pool
// sits in front, and the node-access (NA) metric when reads go straight to
// the manager. Keeping the disk in memory is faithful — the paper reports
// access counts, not wall-clock I/O times. For an actual on-disk index
// use FilePageManager (file_page_manager.h).

namespace lbsq::storage {

class PageManager final : public PageStore {
 public:
  PageManager() = default;

  PageManager(const PageManager&) = delete;
  PageManager& operator=(const PageManager&) = delete;

  // Allocates a zeroed page and returns its id. Reuses freed pages.
  PageId Allocate() override;

  // Returns a freed page to the allocator. The page must not be accessed
  // again until re-allocated.
  void Free(PageId id) override;

  // Copies the page content into `out`, counting one physical read.
  void Read(PageId id, Page* out) override;

  // Overwrites the page, counting one physical write.
  void Write(PageId id, const Page& page) override;

  // Direct const access without copying; still counts one physical read.
  // Unlike the base-class contract, the reference stays valid for the
  // lifetime of the manager (page storage is stable), and concurrent
  // ReadRef/Read calls from multiple threads are safe as long as no
  // thread allocates, frees, or writes (a read-only serving phase).
  const Page& ReadRef(PageId id) override;

  uint64_t read_count() const override {
    return read_count_.load(std::memory_order_relaxed);
  }
  uint64_t write_count() const override {
    return write_count_.load(std::memory_order_relaxed);
  }
  void ResetCounters() override {
    read_count_.store(0, std::memory_order_relaxed);
    write_count_.store(0, std::memory_order_relaxed);
  }

  // Number of live (allocated, not freed) pages.
  size_t live_pages() const override {
    return pages_.size() - free_list_.size();
  }

 private:
  void CheckLive(PageId id) const;

  // unique_ptr keeps page addresses stable across vector growth so that
  // ReadRef results remain valid while the manager is alive.
  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<PageId> free_list_;
  std::vector<bool> live_;
  // Atomic so concurrent read-only threads can count accesses without a
  // data race; relaxed order suffices — the counters are read only after
  // the readers join.
  std::atomic<uint64_t> read_count_{0};
  std::atomic<uint64_t> write_count_{0};
};

}  // namespace lbsq::storage

#endif  // LBSQ_STORAGE_PAGE_MANAGER_H_
