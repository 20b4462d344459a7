#include "rtree/rtree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"

namespace lbsq::rtree {

namespace {

// R* parameters: minimum fill ratio m/M and the share of entries removed
// by forced reinsertion on first overflow per level.
constexpr double kMinFill = 0.4;
constexpr double kReinsertFraction = 0.3;

// Area enlargement of `mbr` needed to include `r`.
double Enlargement(const geo::Rect& mbr, const geo::Rect& r) {
  return mbr.ExpandedToInclude(r).Area() - mbr.Area();
}

double OverlapArea(const geo::Rect& a, const geo::Rect& b) {
  return a.Intersection(b).Area();
}

// Sum of the overlap of `candidate` with every other child of the node.
double TotalOverlap(const std::vector<ChildEntry>& children, size_t skip,
                    const geo::Rect& candidate) {
  double total = 0.0;
  for (size_t i = 0; i < children.size(); ++i) {
    if (i == skip) continue;
    total += OverlapArea(candidate, children[i].mbr);
  }
  return total;
}

// -- STR ordering ------------------------------------------------------------
//
// BulkLoad orders entries by 8-byte words: the high 32 bits of a
// coordinate's order-preserving key above the entry's index. A radix sort
// on the high half, then a comparison sort on the full key inside runs
// that share it, gives ascending coordinate order.

constexpr uint64_t kIndexMask = 0xffffffff;

// Words the radix sort's scratch buffer holds.
constexpr size_t kRadixScratch = 8192;

// Order-preserving map of a finite double onto uint64_t: a < b iff
// OrderKey(a) < OrderKey(b). -0.0 and +0.0, which `<` treats as equal,
// map to one key.
uint64_t OrderKey(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

// Digit `d` (0 = least significant) of a word's high half.
unsigned Digit(uint64_t w, int d) { return (w >> (32 + 8 * d)) & 0xff; }

// Sorts words[0, n) by their high 32 bits, whose digits above `top` are
// equal. A range that fits `scratch` (kRadixScratch words) takes LSD
// passes through it; a longer one is split in place on digit `top`
// (American flag sort) and each part sorted on the digits below. Not
// stable, and never needs a buffer the size of the input. A digit that is
// the same for every word is skipped.
void RadixSortHigh32(uint64_t* words, uint64_t* scratch, size_t n,
                     int top = 3) {
  if (n < 2) return;
  if (n <= kRadixScratch) {
    std::array<std::array<uint32_t, 256>, 4> counts{};
    for (size_t i = 0; i < n; ++i) {
      for (int d = 0; d <= top; ++d) ++counts[d][Digit(words[i], d)];
    }
    uint64_t* src = words;
    uint64_t* dst = scratch;
    for (int d = 0; d <= top; ++d) {
      std::array<uint32_t, 256>& next = counts[d];
      if (next[Digit(src[0], d)] == n) continue;
      uint32_t sum = 0;
      for (uint32_t& c : next) {
        const uint32_t count = c;
        c = sum;
        sum += count;
      }
      for (size_t i = 0; i < n; ++i) dst[next[Digit(src[i], d)]++] = src[i];
      std::swap(src, dst);
    }
    if (src != words) std::copy(src, src + n, words);
    return;
  }
  std::array<size_t, 256> count{};
  for (size_t i = 0; i < n; ++i) ++count[Digit(words[i], top)];
  if (count[Digit(words[0], top)] != n) {
    std::array<size_t, 256> next;
    std::array<size_t, 256> end;
    size_t sum = 0;
    for (unsigned b = 0; b < 256; ++b) {
      next[b] = sum;
      sum += count[b];
      end[b] = sum;
    }
    // Each word is swapped straight into the next free slot of its bucket.
    for (unsigned b = 0; b < 256; ++b) {
      while (next[b] < end[b]) {
        uint64_t w = words[next[b]];
        for (unsigned d = Digit(w, top); d != b; d = Digit(w, top)) {
          std::swap(w, words[next[d]++]);
        }
        words[next[b]++] = w;
      }
    }
  }
  if (top == 0) return;
  size_t start = 0;
  for (unsigned b = 0; b < 256; ++b) {
    RadixSortHigh32(words + start, scratch, count[b], top - 1);
    start += count[b];
  }
}

// Sorts words[0, n), whose low halves index `entries`, into ascending
// order of the entries' `coord`, using `scratch` (kRadixScratch words).
// Returns false if two of the coordinates compare equal; the order is
// then unspecified.
bool SortByCoord(const std::vector<DataEntry>& entries,
                 double geo::Point::*coord, uint64_t* words, uint64_t* scratch,
                 size_t n) {
  auto key = [&](uint64_t w) {
    return OrderKey(entries[w & kIndexMask].point.*coord);
  };
  for (size_t i = 0; i < n; ++i) {
    words[i] = (key(words[i]) & ~kIndexMask) | (words[i] & kIndexMask);
  }
  RadixSortHigh32(words, scratch, n);
  for (size_t run = 0; run < n;) {
    size_t end = run + 1;
    while (end < n && (words[end] >> 32) == (words[run] >> 32)) ++end;
    if (end - run > 1) {
      std::sort(words + run, words + end,
                [&](uint64_t a, uint64_t b) { return key(a) < key(b); });
      for (size_t i = run + 1; i < end; ++i) {
        if (key(words[i - 1]) == key(words[i])) return false;
      }
    }
    run = end;
  }
  return true;
}

bool LessX(const DataEntry& a, const DataEntry& b) {
  return a.point.x < b.point.x;
}

bool LessY(const DataEntry& a, const DataEntry& b) {
  return a.point.y < b.point.y;
}

}  // namespace

RTree::RTree(storage::PageStore* disk, size_t buffer_capacity)
    : RTree(disk, buffer_capacity, Options()) {}

RTree::RTree(storage::PageStore* disk, size_t buffer_capacity,
             const Options& options)
    : disk_(disk), buffer_(disk, buffer_capacity), options_(options) {
  LBSQ_CHECK(options_.leaf_capacity >= 2 &&
             options_.leaf_capacity <= kLeafCapacity);
  LBSQ_CHECK(options_.internal_capacity >= 2 &&
             options_.internal_capacity <= kInternalCapacity);
  Node root;
  root.level = 0;
  root_ = AllocateNode(root);
}

RTree::RTree(storage::PageStore* disk, size_t buffer_capacity,
             const Options& options, const Meta& meta)
    : disk_(disk), buffer_(disk, buffer_capacity), options_(options) {
  LBSQ_CHECK(meta.root != storage::kInvalidPageId);
  root_ = meta.root;
  root_level_ = meta.root_level;
  size_ = meta.size;
  num_nodes_ = meta.num_nodes;
  // Cheap sanity check that the meta matches the store's content.
  const Node root = ReadNode(root_);
  LBSQ_CHECK_EQ(root.level, root_level_);
}

void RTree::Meta::SerializeTo(storage::Page* page, uint32_t offset) const {
  page->WriteAt<storage::PageId>(offset, root);
  page->WriteAt<uint16_t>(offset + 4, root_level);
  page->WriteAt<uint64_t>(offset + 8, size);
  page->WriteAt<uint64_t>(offset + 16, num_nodes);
}

RTree::Meta RTree::Meta::DeserializeFrom(const storage::Page& page,
                                         uint32_t offset) {
  Meta meta;
  meta.root = page.ReadAt<storage::PageId>(offset);
  meta.root_level = page.ReadAt<uint16_t>(offset + 4);
  meta.size = page.ReadAt<uint64_t>(offset + 8);
  meta.num_nodes = page.ReadAt<uint64_t>(offset + 16);
  return meta;
}

Node RTree::ReadNode(storage::PageId id) {
  return Node::DeserializeFrom(buffer_.Fetch(id));
}

Node RTree::FetchNode(storage::PageId id) { return ReadNode(id); }

void RTree::WriteNode(storage::PageId id, const Node& node) {
  // Serialize straight into the cached frame when the pool holds one,
  // skipping the stack page and its 4 KiB copy into the pool. Clearing
  // first keeps the page bytes identical to serializing a fresh page.
  if (storage::Page* slot = buffer_.MutablePage(id)) {
    slot->Clear();
    node.SerializeTo(slot);
    return;
  }
  storage::Page page;
  node.SerializeTo(&page);
  buffer_.Write(id, page);
}

storage::PageId RTree::AllocateNode(const Node& node) {
  const storage::PageId id = disk_->Allocate();
  WriteNode(id, node);
  return id;
}

uint32_t RTree::MinFillFor(const Node& node) const {
  const uint32_t cap = CapacityFor(node);
  const auto m = static_cast<uint32_t>(kMinFill * cap);
  return std::max<uint32_t>(1, m);
}

// ---------------------------------------------------------------------------
// Insertion (R* ChooseSubtree + forced reinsert + split)
// ---------------------------------------------------------------------------

size_t RTree::ChooseSubtree(const Node& node, const geo::Rect& r) {
  LBSQ_CHECK(!node.is_leaf());
  LBSQ_CHECK(!node.children.empty());
  size_t best = 0;
  if (node.level == 1) {
    // Children are leaves: minimize overlap enlargement, then area
    // enlargement, then area (the R* criterion).
    double best_overlap_delta = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.children.size(); ++i) {
      const geo::Rect& mbr = node.children[i].mbr;
      const geo::Rect grown = mbr.ExpandedToInclude(r);
      const double overlap_delta = TotalOverlap(node.children, i, grown) -
                                   TotalOverlap(node.children, i, mbr);
      const double enlarge = grown.Area() - mbr.Area();
      const double area = mbr.Area();
      if (overlap_delta < best_overlap_delta ||
          (overlap_delta == best_overlap_delta &&
           (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)))) {
        best = i;
        best_overlap_delta = overlap_delta;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
    return best;
  }
  // Children are internal: minimize area enlargement, then area.
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.children.size(); ++i) {
    const double enlarge = Enlargement(node.children[i].mbr, r);
    const double area = node.children[i].mbr.Area();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best = i;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

void RTree::Insert(const geo::Point& p, ObjectId id) {
  if (bbox_valid_) bbox_ = bbox_.ExpandedToInclude(p);
  reinserted_levels_.assign(static_cast<size_t>(root_level_) + 2, false);
  DataEntry entry{p, id};
  InsertAtLevel(ChildEntry{}, entry, /*target_level=*/0);
  ++size_;
  ++update_epoch_;
}

void RTree::InsertAtLevel(const ChildEntry& entry, const DataEntry& data_entry,
                          uint16_t target_level) {
  geo::Rect root_mbr_out;
  auto split =
      InsertRecursive(root_, entry, data_entry, target_level, &root_mbr_out);
  if (split.has_value()) {
    Node new_root;
    new_root.level = static_cast<uint16_t>(root_level_ + 1);
    new_root.children = {split->left, split->right};
    root_ = AllocateNode(new_root);
    ++root_level_;
    ++num_nodes_;
    if (reinserted_levels_.size() < static_cast<size_t>(root_level_) + 2) {
      reinserted_levels_.resize(static_cast<size_t>(root_level_) + 2, false);
    }
  }
  // Deferred forced reinserts (processed after the path above is
  // consistent again; see ForcedReinsert note in rtree.h).
  while (!pending_reinserts_.empty()) {
    const PendingEntry pe = pending_reinserts_.back();
    pending_reinserts_.pop_back();
    InsertAtLevel(pe.child, pe.data, pe.level);
  }
}

std::optional<RTree::SplitResult> RTree::InsertRecursive(
    storage::PageId page_id, const ChildEntry& entry,
    const DataEntry& data_entry, uint16_t target_level, geo::Rect* self_mbr) {
  Node node = ReadNode(page_id);
  LBSQ_CHECK(node.level >= target_level);

  if (node.level > target_level) {
    const geo::Rect entry_mbr = target_level == 0
                                    ? geo::Rect::FromPoint(data_entry.point)
                                    : entry.mbr;
    const size_t idx = ChooseSubtree(node, entry_mbr);
    geo::Rect child_mbr;
    auto child_split = InsertRecursive(node.children[idx].child, entry,
                                       data_entry, target_level, &child_mbr);
    if (child_split.has_value()) {
      node.children[idx] = child_split->left;
      node.children.push_back(child_split->right);
    } else {
      node.children[idx].mbr = child_mbr;
    }
    if (node.size() <= CapacityFor(node)) {
      WriteNode(page_id, node);
      *self_mbr = node.ComputeMbr();
      return std::nullopt;
    }
  } else {
    // Target level reached: add the new entry.
    if (node.is_leaf()) {
      node.data.push_back(data_entry);
    } else {
      node.children.push_back(entry);
    }
    if (node.size() <= CapacityFor(node)) {
      WriteNode(page_id, node);
      *self_mbr = node.ComputeMbr();
      return std::nullopt;
    }
  }

  // Overflow treatment: forced reinsert once per level per top-level
  // insert (never at the root), otherwise split.
  if (page_id != root_ && !reinserted_levels_[node.level]) {
    reinserted_levels_[node.level] = true;
    *self_mbr = ForcedReinsert(page_id, std::move(node));
    return std::nullopt;
  }
  return SplitNode(page_id, std::move(node));
}

geo::Rect RTree::ForcedReinsert(storage::PageId page_id, Node node) {
  const geo::Point center = node.ComputeMbr().Center();
  const size_t count = node.size();
  const auto remove_count = std::max<size_t>(
      1, static_cast<size_t>(kReinsertFraction * count));

  // Order entry indices by distance of their (MBR) center from the node
  // center, farthest first.
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = i;
  auto center_of = [&node](size_t i) {
    return node.is_leaf() ? node.data[i].point : node.children[i].mbr.Center();
  };
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return geo::SquaredDistance(center_of(a), center) >
           geo::SquaredDistance(center_of(b), center);
  });

  std::vector<bool> removed(count, false);
  // Queue the farthest entries for reinsertion in *increasing* distance
  // order ("close reinsert", the variant the R* paper found best). The
  // pending list is consumed LIFO, so push farthest first.
  for (size_t i = 0; i < remove_count; ++i) {
    const size_t idx = order[i];
    removed[idx] = true;
    PendingEntry pe;
    pe.level = node.level;
    if (node.is_leaf()) {
      pe.data = node.data[idx];
    } else {
      pe.child = node.children[idx];
    }
    pending_reinserts_.push_back(pe);
  }

  Node kept;
  kept.level = node.level;
  for (size_t i = 0; i < count; ++i) {
    if (removed[i]) continue;
    if (node.is_leaf()) {
      kept.data.push_back(node.data[i]);
    } else {
      kept.children.push_back(node.children[i]);
    }
  }
  WriteNode(page_id, kept);
  return kept.ComputeMbr();
}

RTree::SplitResult RTree::SplitNode(storage::PageId page_id, Node node) {
  const size_t count = node.size();
  const uint32_t cap = CapacityFor(node);
  LBSQ_CHECK(count == cap + 1);
  const auto m =
      std::max<size_t>(1, static_cast<size_t>(kMinFill * cap));

  std::vector<geo::Rect> mbrs(count);
  for (size_t i = 0; i < count; ++i) {
    mbrs[i] = node.is_leaf() ? geo::Rect::FromPoint(node.data[i].point)
                             : node.children[i].mbr;
  }

  // R* ChooseSplitAxis / ChooseSplitIndex. For each axis we consider the
  // entries sorted by lower and by upper coordinate; for points the two
  // sorts coincide but both are evaluated for MBR entries.
  struct Candidate {
    std::vector<size_t> order;
    size_t split_at = 0;  // first `split_at` entries -> left group
    double overlap = std::numeric_limits<double>::infinity();
    double area = std::numeric_limits<double>::infinity();
  };

  auto evaluate_axis = [&](int axis, double* margin_sum,
                           Candidate* best) {
    *margin_sum = 0.0;
    for (int which = 0; which < 2; ++which) {  // 0: by lower, 1: by upper
      std::vector<size_t> order(count);
      for (size_t i = 0; i < count; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const geo::Rect& ra = mbrs[a];
        const geo::Rect& rb = mbrs[b];
        const double ka = axis == 0 ? (which == 0 ? ra.min_x : ra.max_x)
                                    : (which == 0 ? ra.min_y : ra.max_y);
        const double kb = axis == 0 ? (which == 0 ? rb.min_x : rb.max_x)
                                    : (which == 0 ? rb.min_y : rb.max_y);
        return ka < kb;
      });
      // Prefix/suffix MBRs for O(n) evaluation of all distributions.
      std::vector<geo::Rect> prefix(count), suffix(count);
      prefix[0] = mbrs[order[0]];
      for (size_t i = 1; i < count; ++i) {
        prefix[i] = prefix[i - 1].ExpandedToInclude(mbrs[order[i]]);
      }
      suffix[count - 1] = mbrs[order[count - 1]];
      for (size_t i = count - 1; i-- > 0;) {
        suffix[i] = suffix[i + 1].ExpandedToInclude(mbrs[order[i]]);
      }
      for (size_t k = m; k + m <= count; ++k) {
        const geo::Rect& left = prefix[k - 1];
        const geo::Rect& right = suffix[k];
        *margin_sum += left.Margin() + right.Margin();
        const double overlap = OverlapArea(left, right);
        const double area = left.Area() + right.Area();
        if (overlap < best->overlap ||
            (overlap == best->overlap && area < best->area)) {
          best->order = order;
          best->split_at = k;
          best->overlap = overlap;
          best->area = area;
        }
      }
    }
  };

  double margin_x = 0.0, margin_y = 0.0;
  Candidate best_x, best_y;
  evaluate_axis(0, &margin_x, &best_x);
  evaluate_axis(1, &margin_y, &best_y);
  const Candidate& chosen = margin_x <= margin_y ? best_x : best_y;

  Node left, right;
  left.level = right.level = node.level;
  for (size_t i = 0; i < count; ++i) {
    Node& dst = i < chosen.split_at ? left : right;
    if (node.is_leaf()) {
      dst.data.push_back(node.data[chosen.order[i]]);
    } else {
      dst.children.push_back(node.children[chosen.order[i]]);
    }
  }
  LBSQ_CHECK(left.size() >= m && right.size() >= m);

  WriteNode(page_id, left);
  const storage::PageId right_id = AllocateNode(right);
  ++num_nodes_;
  return SplitResult{ChildEntry{left.ComputeMbr(), page_id},
                     ChildEntry{right.ComputeMbr(), right_id}};
}

// ---------------------------------------------------------------------------
// Bulk load (Sort-Tile-Recursive)
// ---------------------------------------------------------------------------

void RTree::BulkLoad(std::vector<DataEntry> entries, double fill) {
  LBSQ_CHECK(size_ == 0);
  LBSQ_CHECK(fill > 0.0 && fill <= 1.0);
  bbox_ = geo::Rect::Empty();
  bbox_valid_ = true;
  if (entries.empty()) return;
  for (const DataEntry& e : entries) {
    bbox_ = bbox_.ExpandedToInclude(e.point);
  }
  size_ = entries.size();
  ++update_epoch_;

  const auto leaf_cap = std::max<size_t>(
      1, static_cast<size_t>(fill * options_.leaf_capacity));
  const auto int_cap = std::max<size_t>(
      2, static_cast<size_t>(fill * options_.internal_capacity));

  // Level 0: tile the points into leaf pages, x-sorted slices of
  // y-sorted runs.
  const size_t n = entries.size();
  const size_t num_leaves = (n + leaf_cap - 1) / leaf_cap;
  const auto num_slices =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t slice_size = (n + num_slices - 1) / num_slices;

  std::vector<ChildEntry> level_entries;
  level_entries.reserve(num_leaves);
  // The initial empty root page is reused as the first leaf.
  bool reused_root = false;
  // Packs a slice in STR order, entry(i) being its i-th entry.
  auto pack_slice = [&](size_t count, const auto& entry) {
    for (size_t i = 0; i < count; i += leaf_cap) {
      Node leaf;
      leaf.level = 0;
      const size_t end = std::min(count, i + leaf_cap);
      leaf.data.reserve(end - i);
      for (size_t j = i; j < end; ++j) leaf.data.push_back(entry(j));
      storage::PageId id;
      if (!reused_root) {
        id = root_;
        WriteNode(id, leaf);
        reused_root = true;
      } else {
        id = AllocateNode(leaf);
        ++num_nodes_;
      }
      level_entries.push_back(ChildEntry{leaf.ComputeMbr(), id});
    }
  };

  // The radix sort orders distinct keys as std::sort does. Equal keys
  // are where std::sort's own (unspecified but deterministic) order
  // shows, so on a tie the comparison sorts run instead: on equal x for
  // the whole build, on equal y within a slice for that slice. The tree
  // is the comparison-sort build's on every input.
  // The scratch lives on the stack: as a heap buffer freed at the end of
  // the build it raised a server's later peak RSS by ~3 MB (servebench
  // hotspot_hit, glibc malloc).
  std::vector<uint64_t> words(n);
  std::array<uint64_t, kRadixScratch> scratch;
  for (size_t i = 0; i < n; ++i) words[i] = i;
  if (n - 1 <= kIndexMask &&
      SortByCoord(entries, &geo::Point::x, words.data(), scratch.data(), n)) {
    for (size_t s = 0; s < n; s += slice_size) {
      const size_t count = std::min(n, s + slice_size) - s;
      uint64_t* slice = words.data() + s;
      if (SortByCoord(entries, &geo::Point::y, slice, scratch.data(),
                      count)) {
        pack_slice(count, [&](size_t i) -> const DataEntry& {
          return entries[slice[i] & kIndexMask];
        });
        continue;
      }
      // Equal y: std::sort the slice from its x order, which is unique.
      std::vector<DataEntry> sorted;
      sorted.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        sorted.push_back(entries[slice[i] & kIndexMask]);
      }
      std::sort(sorted.begin(), sorted.end(), LessX);
      std::sort(sorted.begin(), sorted.end(), LessY);
      pack_slice(count,
                 [&](size_t i) -> const DataEntry& { return sorted[i]; });
    }
  } else {
    words = {};
    std::sort(entries.begin(), entries.end(), LessX);
    for (size_t s = 0; s < n; s += slice_size) {
      const auto first = entries.begin() + static_cast<ptrdiff_t>(s);
      const size_t count = std::min(n, s + slice_size) - s;
      std::sort(first, first + static_cast<ptrdiff_t>(count), LessY);
      pack_slice(count, [&](size_t i) -> const DataEntry& {
        return entries[s + i];
      });
    }
  }

  // Upper levels: pack child entries (already in tile order) into nodes.
  uint16_t level = 1;
  while (level_entries.size() > 1) {
    std::vector<ChildEntry> next;
    next.reserve((level_entries.size() + int_cap - 1) / int_cap);
    for (size_t i = 0; i < level_entries.size(); i += int_cap) {
      Node inner;
      inner.level = level;
      const size_t end = std::min(level_entries.size(), i + int_cap);
      inner.children.assign(
          level_entries.begin() + static_cast<ptrdiff_t>(i),
          level_entries.begin() + static_cast<ptrdiff_t>(end));
      const storage::PageId id = AllocateNode(inner);
      ++num_nodes_;
      next.push_back(ChildEntry{inner.ComputeMbr(), id});
    }
    level_entries = std::move(next);
    ++level;
  }
  root_ = level_entries[0].child;
  root_level_ = static_cast<uint16_t>(level - 1);
}

// ---------------------------------------------------------------------------
// Deletion with condense-tree
// ---------------------------------------------------------------------------

bool RTree::Delete(const geo::Point& p, ObjectId id) {
  geo::Rect mbr;
  bool underflow = false;
  orphans_.clear();
  if (!DeleteRecursive(root_, root_level_, p, id, &mbr, &underflow)) {
    return false;
  }
  LBSQ_CHECK(!underflow);  // the root never reports underflow
  --size_;
  ++update_epoch_;

  // Shrink the root while it is internal with a single child.
  while (root_level_ > 0) {
    Node root = ReadNode(root_);
    if (root.children.size() != 1) break;
    const storage::PageId child = root.children[0].child;
    buffer_.Discard(root_);
    disk_->Free(root_);
    --num_nodes_;
    root_ = child;
    --root_level_;
  }

  // Reinsert entries of nodes dissolved by condensing, at their original
  // levels. Forced reinsertion stays enabled; each call is a fresh
  // top-level insertion.
  std::vector<Node> orphans;
  orphans.swap(orphans_);
  for (const Node& orphan : orphans) {
    reinserted_levels_.assign(static_cast<size_t>(root_level_) + 2, false);
    CondenseInsertOrphans(orphan);
  }
  return true;
}

void RTree::CondenseInsertOrphans(const Node& orphan) {
  if (orphan.is_leaf()) {
    for (const DataEntry& e : orphan.data) {
      InsertAtLevel(ChildEntry{}, e, 0);
    }
  } else {
    for (const ChildEntry& e : orphan.children) {
      InsertAtLevel(e, DataEntry{}, orphan.level);
    }
  }
}

bool RTree::DeleteRecursive(storage::PageId page_id, uint16_t node_level,
                            const geo::Point& p, ObjectId id,
                            geo::Rect* self_mbr, bool* underflow) {
  Node node = ReadNode(page_id);
  *underflow = false;

  if (node.is_leaf()) {
    auto it = std::find_if(node.data.begin(), node.data.end(),
                           [&](const DataEntry& e) {
                             return e.id == id && e.point == p;
                           });
    if (it == node.data.end()) return false;
    node.data.erase(it);
    if (page_id != root_ && node.size() < MinFillFor(node)) {
      *underflow = true;
      orphans_.push_back(std::move(node));
      return true;
    }
    WriteNode(page_id, node);
    *self_mbr = node.ComputeMbr();
    return true;
  }

  for (size_t i = 0; i < node.children.size(); ++i) {
    if (!node.children[i].mbr.Contains(p)) continue;
    geo::Rect child_mbr;
    bool child_underflow = false;
    if (!DeleteRecursive(node.children[i].child,
                         static_cast<uint16_t>(node_level - 1), p, id,
                         &child_mbr, &child_underflow)) {
      continue;
    }
    if (child_underflow) {
      buffer_.Discard(node.children[i].child);
      disk_->Free(node.children[i].child);
      --num_nodes_;
      node.children.erase(node.children.begin() +
                          static_cast<ptrdiff_t>(i));
    } else {
      node.children[i].mbr = child_mbr;
    }
    if (page_id != root_ && node.size() < MinFillFor(node)) {
      *underflow = true;
      orphans_.push_back(std::move(node));
      return true;
    }
    WriteNode(page_id, node);
    *self_mbr = node.ComputeMbr();
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Window query
// ---------------------------------------------------------------------------

namespace {

// Shared window traversal, templated on the emitter so the vector
// overload inlines its push_back (no std::function call per point).
//
// The `contained` flag marks subtrees whose MBR lies entirely inside the
// window: their leaf points are emitted without per-point Contains tests
// and their children are pushed without per-child Intersects tests. The
// fetched node set is unchanged — a contained parent's children all
// intersect the window anyway — so NA/PA stay identical to the plain
// traversal (WindowQueryLegacy), as does the emit order.
struct WindowFrame {
  storage::PageId id;
  bool contained;
};

template <typename Emit>
void WindowTraverse(RTree& tree, const geo::Rect& w, Emit&& emit) {
  // The unrolled comparisons below assume a non-empty window (legacy
  // Intersects() rejects everything for an empty one). Fetch the root
  // anyway so node-access accounting matches the legacy path exactly.
  if (w.IsEmpty()) {
    tree.FetchView(tree.root());
    return;
  }
  // Per-thread scratch: window queries are call-and-return and the emit
  // contract forbids re-entering the tree mid-scan, so one traversal
  // stack per thread avoids an allocation per query.
  thread_local std::vector<WindowFrame> stack;
  stack.clear();
  stack.push_back({tree.root(), false});
  while (!stack.empty()) {
    const WindowFrame frame = stack.back();
    stack.pop_back();
    const NodeView node = tree.FetchView(frame.id);
    const size_t n = node.size();
    if (node.is_leaf()) {
      if (frame.contained) {
        for (size_t i = 0; i < n; ++i) emit(node.data_entry(i));
      } else {
        // SoA two-pass scan: pass 1 evaluates Rect::Contains for every
        // entry as a branch-free map over the contiguous x[]/y[] arrays
        // (autovectorizes); pass 2 emits the hits in entry order — the
        // same predicate and emit order as the scalar loop.
        uint8_t hit[kLeafCapacity];
        const uint8_t* xs = node.leaf_xs();
        const uint8_t* ys = node.leaf_ys();
        for (size_t i = 0; i < n; ++i) {
          const double px = LoadF64(xs, i);
          const double py = LoadF64(ys, i);
          hit[i] = static_cast<uint8_t>((px >= w.min_x) & (px <= w.max_x) &
                                        (py >= w.min_y) & (py <= w.max_y));
        }
        for (size_t i = 0; i < n; ++i) {
          if (hit[i]) emit(node.data_entry(i));
        }
      }
    } else if (frame.contained) {
      for (size_t i = 0; i < n; ++i) {
        stack.push_back({node.child_page(i), true});
      }
    } else {
      // Pass 1: Rect::Intersects and window-contains-child masks over
      // the contiguous MBR arrays (2 = intersects and contained,
      // 1 = intersects only, 0 = disjoint); pass 2 pushes the
      // surviving children in entry order, as before.
      uint8_t overlap[kInternalCapacity];
      const uint8_t* xlo = node.child_xlos();
      const uint8_t* ylo = node.child_ylos();
      const uint8_t* xhi = node.child_xhis();
      const uint8_t* yhi = node.child_yhis();
      for (size_t i = 0; i < n; ++i) {
        const double cmin_x = LoadF64(xlo, i);
        const double cmin_y = LoadF64(ylo, i);
        const double cmax_x = LoadF64(xhi, i);
        const double cmax_y = LoadF64(yhi, i);
        const uint8_t intersects =
            static_cast<uint8_t>((cmin_x <= w.max_x) & (cmax_x >= w.min_x) &
                                 (cmin_y <= w.max_y) & (cmax_y >= w.min_y));
        const uint8_t contained =
            static_cast<uint8_t>((cmin_x >= w.min_x) & (cmax_x <= w.max_x) &
                                 (cmin_y >= w.min_y) & (cmax_y <= w.max_y));
        overlap[i] = static_cast<uint8_t>(intersects + (intersects & contained));
      }
      for (size_t i = 0; i < n; ++i) {
        if (overlap[i] == 0) continue;
        stack.push_back({node.child_page(i), overlap[i] == 2});
      }
    }
  }
}

}  // namespace

void RTree::WindowQuery(const geo::Rect& w, std::vector<DataEntry>* out) {
  out->clear();
  WindowTraverse(*this, w, [out](const DataEntry& e) { out->push_back(e); });
}

void RTree::WindowQuery(const geo::Rect& w,
                        const std::function<void(const DataEntry&)>& emit) {
  WindowTraverse(*this, w, [&emit](const DataEntry& e) { emit(e); });
}

void RTree::WindowQueryLegacy(const geo::Rect& w,
                              std::vector<DataEntry>* out) {
  out->clear();
  WindowQueryLegacy(w, [out](const DataEntry& e) { out->push_back(e); });
}

void RTree::WindowQueryLegacy(
    const geo::Rect& w, const std::function<void(const DataEntry&)>& emit) {
  std::vector<storage::PageId> stack = {root_};
  while (!stack.empty()) {
    const storage::PageId id = stack.back();
    stack.pop_back();
    const Node node = ReadNode(id);
    if (node.is_leaf()) {
      for (const DataEntry& e : node.data) {
        if (w.Contains(e.point)) emit(e);
      }
    } else {
      for (const ChildEntry& e : node.children) {
        if (w.Intersects(e.mbr)) stack.push_back(e.child);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

geo::Rect RTree::root_mbr() { return FetchView(root_).ComputeMbr(); }

geo::Rect RTree::bounding_box() {
  if (!bbox_valid_) {
    bbox_ = size_ == 0 ? geo::Rect::Empty() : root_mbr();
    bbox_valid_ = true;
  }
  return bbox_;
}

int RTree::height() { return root_level_ + 1; }

void RTree::SetBufferFraction(double fraction) {
  LBSQ_CHECK(fraction >= 0.0);
  const auto pages = static_cast<size_t>(
      fraction * static_cast<double>(num_nodes_));
  buffer_.Clear();
  buffer_.Resize(std::max<size_t>(1, pages));
}

void RTree::CheckInvariants() {
  size_t points = 0;
  size_t nodes = 0;
  CheckInvariantsRecursive(root_, geo::Rect(), /*is_root=*/true, root_level_,
                           &points, &nodes);
  LBSQ_CHECK_EQ(points, size_);
  LBSQ_CHECK_EQ(nodes, num_nodes_);
}

void RTree::CheckInvariantsRecursive(storage::PageId page_id,
                                     const geo::Rect& parent_mbr, bool is_root,
                                     uint16_t expected_level, size_t* points,
                                     size_t* nodes) {
  const Node node = ReadNode(page_id);
  ++*nodes;
  LBSQ_CHECK_EQ(node.level, expected_level);
  LBSQ_CHECK(node.size() <= CapacityFor(node));
  if (!is_root) {
    LBSQ_CHECK(node.size() >= 1);
    // The parent's entry MBR must be exactly the tight MBR of this node.
    LBSQ_CHECK(node.ComputeMbr() == parent_mbr);
  }
  if (node.is_leaf()) {
    *points += node.data.size();
    return;
  }
  LBSQ_CHECK(node.level > 0);
  for (const ChildEntry& e : node.children) {
    CheckInvariantsRecursive(e.child, e.mbr, /*is_root=*/false,
                             static_cast<uint16_t>(node.level - 1), points,
                             nodes);
  }
}

}  // namespace lbsq::rtree
