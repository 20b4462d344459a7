#ifndef LBSQ_STORAGE_PAGE_STORE_H_
#define LBSQ_STORAGE_PAGE_STORE_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "storage/page.h"

// Abstract page store: the R-tree and buffer pool address pages through
// this interface, so the same index runs on the in-memory simulated disk
// (PageManager — what the experiments use, since the paper reports access
// counts) or on a real file (FilePageManager), optionally wrapped in the
// integrity/fault decorators (checksummed_page_store.h,
// fault_injecting_page_store.h).

namespace lbsq::storage {

class PageStore {
 public:
  virtual ~PageStore() = default;

  // Allocates a zeroed page and returns its id. May reuse freed ids.
  virtual PageId Allocate() = 0;

  // Returns a freed page to the allocator. The page must not be accessed
  // again until re-allocated.
  virtual void Free(PageId id) = 0;

  // Copies the page content into `out`, counting one physical read.
  virtual void Read(PageId id, Page* out) = 0;

  // Overwrites the page, counting one physical write.
  virtual void Write(PageId id, const Page& page) = 0;

  // Read without copying into a caller buffer; the reference is valid
  // only until the next call on this store. Counts one physical read.
  virtual const Page& ReadRef(PageId id) = 0;

  virtual uint64_t read_count() const = 0;
  virtual uint64_t write_count() const = 0;
  virtual void ResetCounters() = 0;

  // Number of live (allocated, not freed) pages.
  virtual size_t live_pages() const = 0;

  // ---------------------------------------------------------------------
  // Sticky per-thread read-error channel.
  //
  // Read/ReadRef cannot return a Status without plumbing error handling
  // through every R-tree traversal, so failure detection is out-of-band:
  // a store that detects a bad read (checksum mismatch, injected fault)
  // calls RecordReadError and returns a *benign all-zero page* — which
  // parses as an empty leaf, so the traversal degrades to a partial
  // answer instead of reading garbage. The query layer brackets each
  // query with ClearReadError / TakeReadError and discards (or retries)
  // any answer produced while an error was pending.
  //
  // The channel is thread-local: threads sharing one store each
  // attribute errors to their own in-flight query. Only the
  // first error per query is kept (later failures are usually fallout of
  // the first — e.g. a checksum layer re-flagging a page an injected
  // fault already zeroed).
  // ---------------------------------------------------------------------

  // Clears this thread's pending read error (call before a query).
  static void ClearReadError();

  // This thread's pending read error, OK if none. Cheap; traversal loops
  // may poll it to bail out early.
  [[nodiscard]] static const Status& PendingReadError();

  // Returns and clears this thread's pending read error.
  [[nodiscard]] static Status TakeReadError();

  // Records `status` as this thread's pending read error unless one is
  // already pending. For store implementations/decorators only.
  static void RecordReadError(Status status);
};

}  // namespace lbsq::storage

#endif  // LBSQ_STORAGE_PAGE_STORE_H_
