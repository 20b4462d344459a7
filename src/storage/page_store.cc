#include "storage/page_store.h"

#include <utility>

namespace lbsq::storage {

namespace {

// One pending error per thread: a serving thread serves one query at a
// time, so "this thread" and "the query currently being served"
// coincide.
thread_local Status t_pending_read_error;

}  // namespace

void PageStore::ClearReadError() { t_pending_read_error = Status(); }

const Status& PageStore::PendingReadError() { return t_pending_read_error; }

Status PageStore::TakeReadError() {
  Status out = std::move(t_pending_read_error);
  t_pending_read_error = Status();
  return out;
}

void PageStore::RecordReadError(Status status) {
  if (t_pending_read_error.ok()) {
    t_pending_read_error = std::move(status);
  }
}

}  // namespace lbsq::storage
