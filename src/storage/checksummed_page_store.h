#ifndef LBSQ_STORAGE_CHECKSUMMED_PAGE_STORE_H_
#define LBSQ_STORAGE_CHECKSUMMED_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/page_store.h"

// Integrity decorator: keeps a per-page 64-bit checksum, stamped on every
// write-back and verified on every fetch. A mismatched page (bit rot, a
// torn write, an injected fault) is reported through the thread-local
// read-error channel (PageStore::RecordReadError) and replaced by an
// all-zero page, so a traversal over corrupt storage degrades to a
// partial answer that the query layer can flag and retry — instead of
// parsing garbage or aborting the process.
//
// The checksum table lives *beside* the pages, not inside them: pages
// keep their full 4 KiB payload, so node capacity (and the paper's
// access-count experiments) are unchanged. For file-backed stores the
// table can be persisted to a sidecar file (SaveTable/LoadTable); a
// missing sidecar simply means no page is verifiable until its next
// write-back.
//
// Concurrency matches the store it wraps: concurrent Read/ReadRef are
// safe while no thread allocates, frees, or writes (a read-only serving
// phase); the table is only mutated by those calls.

namespace lbsq::storage {

class ChecksummedPageStore final : public PageStore {
 public:
  // Does not own `inner`.
  explicit ChecksummedPageStore(PageStore* inner);

  ChecksummedPageStore(const ChecksummedPageStore&) = delete;
  ChecksummedPageStore& operator=(const ChecksummedPageStore&) = delete;

  PageId Allocate() override;
  void Free(PageId id) override;
  void Read(PageId id, Page* out) override;
  void Write(PageId id, const Page& page) override;
  // On verification failure the returned reference designates a
  // thread-local all-zero page (valid until this thread's next ReadRef).
  const Page& ReadRef(PageId id) override;

  uint64_t read_count() const override { return inner_->read_count(); }
  uint64_t write_count() const override { return inner_->write_count(); }
  void ResetCounters() override { inner_->ResetCounters(); }
  size_t live_pages() const override { return inner_->live_pages(); }

  // Fetches that failed verification since construction.
  uint64_t verification_failures() const {
    return verification_failures_.load(std::memory_order_relaxed);
  }

  // Reads every checksummed page back and verifies it; returns the number
  // of corrupt pages. Unlike Read, a scrub does not zero anything or
  // record read errors — it is a diagnostic pass (the CLI's `scrub`).
  [[nodiscard]] size_t Scrub();

  // Sidecar persistence of the checksum table (for FilePageManager-backed
  // indexes). The file carries its own trailing checksum; LoadTable fails
  // with kDataLoss when the sidecar itself is damaged.
  [[nodiscard]] Status SaveTable(const std::string& path) const;
  [[nodiscard]] Status LoadTable(const std::string& path);

 private:
  // Verifies `page` against the stamped checksum. Returns false — after
  // recording a kDataLoss read error and counting the failure — on
  // mismatch. Pages without a stamped checksum pass vacuously.
  bool Verify(PageId id, const Page& page);
  void EnsureSlot(PageId id);

  // The table is mutated only by Allocate/Free/Write/LoadTable — all
  // build-phase calls; during the read-only serving phase every worker
  // may Read/ReadRef concurrently and the table is never resized.
  PageStore* inner_ LBSQ_EXCLUDED(const_after_init);
  std::vector<uint64_t> sums_ LBSQ_EXCLUDED(build_phase_only);
  // uint8 (not vector<bool>) for plain loads.
  std::vector<uint8_t> known_ LBSQ_EXCLUDED(build_phase_only);
  std::atomic<uint64_t> verification_failures_ LBSQ_EXCLUDED(relaxed_atomic){0};
};

}  // namespace lbsq::storage

#endif  // LBSQ_STORAGE_CHECKSUMMED_PAGE_STORE_H_
