#include "src/db/btree.h"

#include <cstring>

#include "src/base/logging.h"

namespace minisql {
namespace {

constexpr uint8_t kLeafType = 1;
constexpr uint8_t kInternalType = 2;
constexpr size_t kHeader = 8;
// Leaf cell: key (8) + vlen (2) + value (kMaxValueSize).
constexpr size_t kCellSize = 8 + 2 + kMaxValueSize;
constexpr size_t kLeafCapacity = (kDbPageSize - kHeader) / kCellSize;
// Internal entry stream: child0 (4) then repeated [key (8), child (4)].
constexpr size_t kInternalCapacity = (kDbPageSize - kHeader - 4) / 12;

static_assert(kLeafCapacity >= 4, "leaf must hold at least 4 cells");
static_assert(kInternalCapacity >= 8, "internal must hold at least 8 keys");

uint8_t PageType(const std::vector<uint8_t>& page) { return page[0]; }
void SetPageType(std::vector<uint8_t>& page, uint8_t type) { page[0] = type; }

uint16_t NumKeys(const std::vector<uint8_t>& page) {
  uint16_t n = 0;
  std::memcpy(&n, page.data() + 1, 2);
  return n;
}
void SetNumKeys(std::vector<uint8_t>& page, uint16_t n) { std::memcpy(page.data() + 1, &n, 2); }

// ---- Leaf cells ----
size_t CellOff(size_t i) { return kHeader + i * kCellSize; }

uint64_t LeafKey(const std::vector<uint8_t>& page, size_t i) {
  uint64_t k = 0;
  std::memcpy(&k, page.data() + CellOff(i), 8);
  return k;
}
uint16_t LeafValueLen(const std::vector<uint8_t>& page, size_t i) {
  uint16_t len = 0;
  std::memcpy(&len, page.data() + CellOff(i) + 8, 2);
  return len;
}
std::span<const uint8_t> LeafValue(const std::vector<uint8_t>& page, size_t i) {
  return {page.data() + CellOff(i) + 10, LeafValueLen(page, i)};
}
void WriteLeafCell(std::vector<uint8_t>& page, size_t i, uint64_t key,
                   std::span<const uint8_t> value) {
  SB_CHECK(value.size() <= kMaxValueSize);
  std::memcpy(page.data() + CellOff(i), &key, 8);
  const uint16_t len = static_cast<uint16_t>(value.size());
  std::memcpy(page.data() + CellOff(i) + 8, &len, 2);
  std::memcpy(page.data() + CellOff(i) + 10, value.data(), value.size());
}
void CopyLeafCell(std::vector<uint8_t>& dst, size_t di, const std::vector<uint8_t>& src,
                  size_t si) {
  std::memcpy(dst.data() + CellOff(di), src.data() + CellOff(si), kCellSize);
}

// ---- Internal entries ----
uint32_t ChildAt(const std::vector<uint8_t>& page, size_t i) {
  uint32_t c = 0;
  std::memcpy(&c, page.data() + kHeader + i * 12, 4);
  return c;
}
void SetChildAt(std::vector<uint8_t>& page, size_t i, uint32_t child) {
  std::memcpy(page.data() + kHeader + i * 12, &child, 4);
}
uint64_t InternalKey(const std::vector<uint8_t>& page, size_t i) {
  uint64_t k = 0;
  std::memcpy(&k, page.data() + kHeader + i * 12 + 4, 8);
  return k;
}
void SetInternalKey(std::vector<uint8_t>& page, size_t i, uint64_t key) {
  std::memcpy(page.data() + kHeader + i * 12 + 4, &key, 8);
}

// First index whose key is >= `key` in a leaf.
size_t LeafLowerBound(const std::vector<uint8_t>& page, uint64_t key) {
  const size_t n = NumKeys(page);
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (LeafKey(page, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child slot to descend into for `key`.
size_t InternalChildIndex(const std::vector<uint8_t>& page, uint64_t key) {
  const size_t n = NumKeys(page);
  size_t i = 0;
  while (i < n && key >= InternalKey(page, i)) {
    ++i;
  }
  return i;
}

// Fetches an existing node `depth` levels below the root. Its bytes come from
// the fs server, so the type, the key count and every value length are
// checked here, before anything indexes the page with them, and a descent
// deeper than the file has pages must have followed a child pointer back up
// the tree (host-side checks: no simulated cycle).
sb::StatusOr<std::vector<uint8_t>*> FetchNode(Pager& pager, uint32_t pgno, uint32_t depth) {
  if (depth >= pager.num_pages()) {
    return sb::DataLoss("btree child pointers form a cycle");
  }
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* page, pager.GetPage(pgno));
  const size_t n = NumKeys(*page);
  if (PageType(*page) == kInternalType && n <= kInternalCapacity) {
    return page;
  }
  if (PageType(*page) == kLeafType && n <= kLeafCapacity) {
    size_t i = 0;
    while (i < n && LeafValueLen(*page, i) <= kMaxValueSize) {
      ++i;
    }
    if (i == n) {
      return page;
    }
  }
  return sb::DataLoss("corrupt btree page");
}

}  // namespace

sb::Status BTree::InitLeaf(Pager& pager, uint32_t pgno) {
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* page, pager.GetPage(pgno));
  std::fill(page->begin(), page->end(), 0);
  SetPageType(*page, kLeafType);
  SetNumKeys(*page, 0);
  pager.MarkDirty(pgno);
  return sb::OkStatus();
}

sb::StatusOr<std::optional<BTree::SplitResult>> BTree::InsertRec(
    uint32_t pgno, uint32_t depth, uint64_t key, std::span<const uint8_t> value) {
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* page, FetchNode(*pager_, pgno, depth));

  if (PageType(*page) == kLeafType) {
    const size_t pos = LeafLowerBound(*page, key);
    const size_t n = NumKeys(*page);
    if (pos < n && LeafKey(*page, pos) == key) {
      return sb::Status(sb::ErrorCode::kAlreadyExists, "duplicate key");
    }
    if (n < kLeafCapacity) {
      for (size_t i = n; i > pos; --i) {
        CopyLeafCell(*page, i, *page, i - 1);
      }
      WriteLeafCell(*page, pos, key, value);
      SetNumKeys(*page, static_cast<uint16_t>(n + 1));
      pager_->MarkDirty(pgno);
      return std::optional<SplitResult>{};
    }
    // Split the leaf: keep the lower half here, move the upper half right.
    SB_ASSIGN_OR_RETURN(const uint32_t right_pgno, pager_->AllocatePage());
    // AllocatePage may relocate cache entries; refetch.
    SB_ASSIGN_OR_RETURN(page, FetchNode(*pager_, pgno, depth));
    SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* right, pager_->GetPage(right_pgno));
    SB_ASSIGN_OR_RETURN(page, FetchNode(*pager_, pgno, depth));

    std::fill(right->begin(), right->end(), 0);
    SetPageType(*right, kLeafType);
    const size_t mid = (n + 1) / 2;
    for (size_t i = mid; i < n; ++i) {
      CopyLeafCell(*right, i - mid, *page, i);
    }
    SetNumKeys(*right, static_cast<uint16_t>(n - mid));
    SetNumKeys(*page, static_cast<uint16_t>(mid));
    pager_->MarkDirty(pgno);
    pager_->MarkDirty(right_pgno);

    // Insert into the proper half.
    const uint64_t separator = LeafKey(*right, 0);
    const uint32_t target = key < separator ? pgno : right_pgno;
    SB_ASSIGN_OR_RETURN(auto inner, InsertRec(target, depth, key, value));
    SB_CHECK(!inner.has_value()) << "post-split leaf insert cannot split again";
    return std::optional<SplitResult>{SplitResult{separator, right_pgno}};
  }

  // Internal node.
  const size_t slot = InternalChildIndex(*page, key);
  const uint32_t child = ChildAt(*page, slot);
  SB_ASSIGN_OR_RETURN(auto split, InsertRec(child, depth + 1, key, value));
  if (!split.has_value()) {
    return std::optional<SplitResult>{};
  }
  SB_ASSIGN_OR_RETURN(page, FetchNode(*pager_, pgno, depth));  // Refetch after descent.
  const size_t n = NumKeys(*page);
  if (n < kInternalCapacity) {
    // Shift entries right of `slot` and insert (separator, right child).
    for (size_t i = n; i > slot; --i) {
      SetInternalKey(*page, i, InternalKey(*page, i - 1));
      SetChildAt(*page, i + 1, ChildAt(*page, i));
    }
    SetInternalKey(*page, slot, split->separator);
    SetChildAt(*page, slot + 1, split->right_pgno);
    SetNumKeys(*page, static_cast<uint16_t>(n + 1));
    pager_->MarkDirty(pgno);
    return std::optional<SplitResult>{};
  }

  // Split the internal node. Gather entries (including the new one) first.
  std::vector<uint32_t> children;
  std::vector<uint64_t> keys;
  children.reserve(n + 2);
  keys.reserve(n + 1);
  for (size_t i = 0; i <= n; ++i) {
    children.push_back(ChildAt(*page, i));
    if (i < n) {
      keys.push_back(InternalKey(*page, i));
    }
  }
  // Insert the new entry at `slot`.
  keys.insert(keys.begin() + static_cast<long>(slot), split->separator);
  children.insert(children.begin() + static_cast<long>(slot) + 1, split->right_pgno);
  SB_ASSIGN_OR_RETURN(const uint32_t right_pgno, pager_->AllocatePage());
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* right, pager_->GetPage(right_pgno));
  SB_ASSIGN_OR_RETURN(page, FetchNode(*pager_, pgno, depth));
  std::fill(right->begin(), right->end(), 0);
  SetPageType(*right, kInternalType);

  const size_t total_keys = keys.size();  // == n + 1
  const size_t left_keys = total_keys / 2;
  const uint64_t up_key = keys[left_keys];

  // Left keeps keys [0, left_keys) and children [0, left_keys].
  SetNumKeys(*page, static_cast<uint16_t>(left_keys));
  for (size_t i = 0; i < left_keys; ++i) {
    SetInternalKey(*page, i, keys[i]);
    SetChildAt(*page, i, children[i]);
  }
  SetChildAt(*page, left_keys, children[left_keys]);
  // Right gets keys (left_keys, end) and children [left_keys+1, end].
  const size_t right_keys = total_keys - left_keys - 1;
  SetNumKeys(*right, static_cast<uint16_t>(right_keys));
  for (size_t i = 0; i < right_keys; ++i) {
    SetInternalKey(*right, i, keys[left_keys + 1 + i]);
    SetChildAt(*right, i, children[left_keys + 1 + i]);
  }
  SetChildAt(*right, right_keys, children[total_keys]);
  pager_->MarkDirty(pgno);
  pager_->MarkDirty(right_pgno);
  return std::optional<SplitResult>{SplitResult{up_key, right_pgno}};
}

sb::Status BTree::Insert(uint64_t key, std::span<const uint8_t> value) {
  if (value.size() > kMaxValueSize) {
    return sb::InvalidArgument("value too large");
  }
  SB_ASSIGN_OR_RETURN(auto split, InsertRec(root_, 0, key, value));
  if (!split.has_value()) {
    return sb::OkStatus();
  }
  // Root split: keep the root page number stable by moving the old root's
  // content into a new page and turning the root into an internal node.
  SB_ASSIGN_OR_RETURN(const uint32_t left_pgno, pager_->AllocatePage());
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* left, pager_->GetPage(left_pgno));
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* root, FetchNode(*pager_, root_, 0));
  *left = *root;
  std::fill(root->begin(), root->end(), 0);
  SetPageType(*root, kInternalType);
  SetNumKeys(*root, 1);
  SetChildAt(*root, 0, left_pgno);
  SetInternalKey(*root, 0, split->separator);
  SetChildAt(*root, 1, split->right_pgno);
  pager_->MarkDirty(left_pgno);
  pager_->MarkDirty(root_);
  return sb::OkStatus();
}

sb::StatusOr<BTree::Leaf> BTree::FindLeaf(uint64_t key) {
  uint32_t pgno = root_;
  for (uint32_t depth = 0;; ++depth) {
    SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* page, FetchNode(*pager_, pgno, depth));
    if (PageType(*page) == kLeafType) {
      return Leaf{pgno, page};
    }
    pgno = ChildAt(*page, InternalChildIndex(*page, key));
  }
}

sb::StatusOr<std::vector<uint8_t>> BTree::Get(uint64_t key) {
  SB_ASSIGN_OR_RETURN(const Leaf leaf, FindLeaf(key));
  const std::vector<uint8_t>& page = *leaf.page;
  const size_t pos = LeafLowerBound(page, key);
  if (pos < NumKeys(page) && LeafKey(page, pos) == key) {
    const std::span<const uint8_t> v = LeafValue(page, pos);
    return std::vector<uint8_t>(v.begin(), v.end());
  }
  return sb::NotFound("key not found");
}

sb::StatusOr<bool> BTree::Contains(uint64_t key) {
  auto v = Get(key);
  if (v.ok()) {
    return true;
  }
  if (v.status().code() == sb::ErrorCode::kNotFound) {
    return false;
  }
  return v.status();
}

sb::Status BTree::Update(uint64_t key, std::span<const uint8_t> value) {
  if (value.size() > kMaxValueSize) {
    return sb::InvalidArgument("value too large");
  }
  SB_ASSIGN_OR_RETURN(const Leaf leaf, FindLeaf(key));
  std::vector<uint8_t>& page = *leaf.page;
  const size_t pos = LeafLowerBound(page, key);
  if (pos < NumKeys(page) && LeafKey(page, pos) == key) {
    WriteLeafCell(page, pos, key, value);
    pager_->MarkDirty(leaf.pgno);
    return sb::OkStatus();
  }
  return sb::NotFound("key not found");
}

sb::Status BTree::Delete(uint64_t key) {
  SB_ASSIGN_OR_RETURN(const Leaf leaf, FindLeaf(key));
  std::vector<uint8_t>& page = *leaf.page;
  const size_t pos = LeafLowerBound(page, key);
  const size_t n = NumKeys(page);
  if (pos < n && LeafKey(page, pos) == key) {
    for (size_t i = pos; i + 1 < n; ++i) {
      CopyLeafCell(page, i, page, i + 1);
    }
    SetNumKeys(page, static_cast<uint16_t>(n - 1));
    pager_->MarkDirty(leaf.pgno);
    return sb::OkStatus();
  }
  return sb::NotFound("key not found");
}

sb::Status BTree::CollectKeys(uint32_t pgno, uint32_t depth, std::vector<uint64_t>* out) {
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* page, FetchNode(*pager_, pgno, depth));
  if (PageType(*page) == kLeafType) {
    const size_t n = NumKeys(*page);
    for (size_t i = 0; i < n; ++i) {
      out->push_back(LeafKey(*page, i));
    }
    return sb::OkStatus();
  }
  const size_t n = NumKeys(*page);
  std::vector<uint32_t> children;
  for (size_t i = 0; i <= n; ++i) {
    children.push_back(ChildAt(*page, i));
  }
  for (const uint32_t child : children) {
    SB_RETURN_IF_ERROR(CollectKeys(child, depth + 1, out));
  }
  return sb::OkStatus();
}

sb::StatusOr<std::vector<uint64_t>> BTree::Keys() {
  std::vector<uint64_t> out;
  SB_RETURN_IF_ERROR(CollectKeys(root_, 0, &out));
  return out;
}

sb::Status BTree::ScanRec(uint32_t pgno, uint32_t depth, uint64_t lo, uint64_t hi,
                          std::vector<Row>* out) {
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* page, FetchNode(*pager_, pgno, depth));
  const size_t n = NumKeys(*page);
  if (PageType(*page) == kLeafType) {
    for (size_t i = LeafLowerBound(*page, lo); i < n; ++i) {
      const uint64_t key = LeafKey(*page, i);
      if (key > hi) {
        break;
      }
      const std::span<const uint8_t> value = LeafValue(*page, i);
      out->push_back(Row{key, std::vector<uint8_t>(value.begin(), value.end())});
    }
    return sb::OkStatus();
  }
  // Visit the children whose ranges intersect [lo, hi]. Collect first: the
  // page pointer is invalidated by recursive pager calls.
  std::vector<uint32_t> children;
  for (size_t i = 0; i <= n; ++i) {
    const bool below = i < n && InternalKey(*page, i) <= lo;
    const bool above = i > 0 && InternalKey(*page, i - 1) > hi;
    if (!below && !above) {
      children.push_back(ChildAt(*page, i));
    }
  }
  for (const uint32_t child : children) {
    SB_RETURN_IF_ERROR(ScanRec(child, depth + 1, lo, hi, out));
  }
  return sb::OkStatus();
}

sb::StatusOr<std::vector<BTree::Row>> BTree::Scan(uint64_t lo, uint64_t hi) {
  std::vector<Row> out;
  if (lo > hi) {
    return out;
  }
  SB_RETURN_IF_ERROR(ScanRec(root_, 0, lo, hi, &out));
  return out;
}

sb::Status BTree::ValidateRec(uint32_t pgno, uint32_t depth, uint64_t lo, uint64_t hi,
                              bool has_lo, bool has_hi) {
  SB_ASSIGN_OR_RETURN(std::vector<uint8_t>* page, FetchNode(*pager_, pgno, depth));
  const size_t n = NumKeys(*page);
  if (PageType(*page) == kLeafType) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = LeafKey(*page, i);
      if (i > 0 && LeafKey(*page, i - 1) >= k) {
        return sb::Internal("leaf keys out of order");
      }
      if ((has_lo && k < lo) || (has_hi && k >= hi)) {
        return sb::Internal("leaf key outside separator bounds");
      }
    }
    return sb::OkStatus();
  }
  if (n == 0) {
    return sb::Internal("empty internal node");
  }
  struct ChildRange {
    uint32_t pgno;
    uint64_t lo, hi;
    bool has_lo, has_hi;
  };
  std::vector<ChildRange> ranges;
  for (size_t i = 0; i <= n; ++i) {
    ChildRange r;
    r.pgno = ChildAt(*page, i);
    r.has_lo = i > 0 || has_lo;
    r.lo = i > 0 ? InternalKey(*page, i - 1) : lo;
    r.has_hi = i < n || has_hi;
    r.hi = i < n ? InternalKey(*page, i) : hi;
    ranges.push_back(r);
    if (i > 0 && i < n && InternalKey(*page, i - 1) >= InternalKey(*page, i)) {
      return sb::Internal("internal keys out of order");
    }
  }
  for (const ChildRange& r : ranges) {
    SB_RETURN_IF_ERROR(ValidateRec(r.pgno, depth + 1, r.lo, r.hi, r.has_lo, r.has_hi));
  }
  return sb::OkStatus();
}

sb::Status BTree::Validate() { return ValidateRec(root_, 0, 0, 0, false, false); }

}  // namespace minisql
