// B+tree over pager pages: the minisql table storage engine.
//
// Fixed-size cells (u64 key, up to kMaxValueSize bytes of value) in leaf
// pages; internal pages hold alternating child pointers and separator keys.
// Splits propagate upward; the root page number never changes (a splitting
// root becomes an internal page with two fresh children). Deletes are
// tombstone-free but do not rebalance (like many embedded engines).

#ifndef SRC_DB_BTREE_H_
#define SRC_DB_BTREE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/status.h"
#include "src/db/pager.h"

namespace minisql {

inline constexpr size_t kMaxValueSize = 200;

class BTree {
 public:
  BTree(Pager* pager, uint32_t root_pgno) : pager_(pager), root_(root_pgno) {}

  // Formats `pgno` as an empty leaf (a fresh table root).
  static sb::Status InitLeaf(Pager& pager, uint32_t pgno);

  uint32_t root() const { return root_; }

  sb::Status Insert(uint64_t key, std::span<const uint8_t> value);
  // Returns NotFound if the key is absent.
  sb::Status Update(uint64_t key, std::span<const uint8_t> value);
  sb::Status Delete(uint64_t key);
  sb::StatusOr<std::vector<uint8_t>> Get(uint64_t key);
  sb::StatusOr<bool> Contains(uint64_t key);

  // In-order key scan (tests / full table scans).
  sb::StatusOr<std::vector<uint64_t>> Keys();

  // Range scan: every (key, value) with lo <= key <= hi, in key order.
  struct Row {
    uint64_t key;
    std::vector<uint8_t> value;
  };
  sb::StatusOr<std::vector<Row>> Scan(uint64_t lo, uint64_t hi);

  // Structural validation: ordering and separator invariants (tests).
  sb::Status Validate();

 private:
  struct SplitResult {
    uint64_t separator;
    uint32_t right_pgno;
  };

  struct Leaf {
    uint32_t pgno;
    std::vector<uint8_t>* page;
  };

  // The leaf whose key range holds `key`. Every descent, here and in the
  // recursive walks (`depth` levels below the root), fails with DataLoss
  // once it is deeper than the file has pages.
  sb::StatusOr<Leaf> FindLeaf(uint64_t key);
  sb::StatusOr<std::optional<SplitResult>> InsertRec(uint32_t pgno, uint32_t depth, uint64_t key,
                                                     std::span<const uint8_t> value);
  sb::Status CollectKeys(uint32_t pgno, uint32_t depth, std::vector<uint64_t>* out);
  sb::Status ScanRec(uint32_t pgno, uint32_t depth, uint64_t lo, uint64_t hi,
                     std::vector<Row>* out);
  sb::Status ValidateRec(uint32_t pgno, uint32_t depth, uint64_t lo, uint64_t hi, bool has_lo,
                         bool has_hi);

  Pager* pager_;
  uint32_t root_;
};

}  // namespace minisql

#endif  // SRC_DB_BTREE_H_
