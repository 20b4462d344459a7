#ifndef LBSQ_STORAGE_FILE_PAGE_MANAGER_H_
#define LBSQ_STORAGE_FILE_PAGE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/page.h"
#include "storage/page_store.h"

// A page store backed by a real file: pages live at fixed 4 KiB offsets,
// read with pread and written with pwrite. Page 0 of the file is a
// header holding the allocation state so a database file can be closed
// and re-opened. This is what turns the library from a simulator into an
// on-disk spatial index; the experiments keep using the in-memory store
// because the paper's metrics are access counts.
//
// File layout:
//   page 0            header: magic, page count, free-list length
//   page 1..          free-list continuation + page payloads
//
// Concurrency: Read/Write use pread/pwrite into caller-owned buffers, so
// concurrent Read calls are safe once the tree is built (read-only tree
// handles with their own buffer pools). ReadRef is NOT thread-safe — it
// shares one scratch page — so concurrent readers must go through a
// buffer pool with capacity > 0, which copies via Read instead.

namespace lbsq::storage {

class FilePageManager final : public PageStore {
 public:
  enum class Mode {
    kCreate,  // truncate / create a fresh store
    kOpen,    // open an existing store, restoring the allocation state
  };

  // Aborts (LBSQ_CHECK) if the file cannot be created/opened or, in kOpen
  // mode, if the header is malformed.
  FilePageManager(const std::string& path, Mode mode);
  ~FilePageManager() override;

  FilePageManager(const FilePageManager&) = delete;
  FilePageManager& operator=(const FilePageManager&) = delete;

  PageId Allocate() override;
  void Free(PageId id) override;
  void Read(PageId id, Page* out) override;
  void Write(PageId id, const Page& page) override;
  // Valid until the next call on this store (single internal buffer).
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
  size_t live_pages() const override {
    return next_page_ - free_list_.size();
  }

  // Persists the header/free-list; called automatically on destruction.
  void Sync();

 private:
  // On-disk offset of a logical page (header shifts everything by 1).
  static uint64_t OffsetOf(PageId id) {
    return (static_cast<uint64_t>(id) + 1) * kPageSize;
  }
  void ReadHeader();
  void WriteHeader();

  int fd_ = -1;
  PageId next_page_ = 0;  // logical pages ever allocated
  std::vector<PageId> free_list_;
  std::vector<bool> live_;
  Page scratch_;
  std::atomic<uint64_t> read_count_{0};
  std::atomic<uint64_t> write_count_{0};
};

}  // namespace lbsq::storage

#endif  // LBSQ_STORAGE_FILE_PAGE_MANAGER_H_
