// minisql: a small embedded relational store (the SQLite3 stand-in).
//
// A database is one file on the xv6fs server. Page 0 is the catalog; each
// table is a B+tree keyed by a u64 row key. The four operations the paper
// benchmarks map directly: Insert / Update / Query / Delete (Table 4).
//
// Like SQLite, minisql keeps an internal cache: the pager's page cache plus
// a row cache for recent reads — which is why the Query workload triggers
// far fewer IPCs than the write operations (Section 6.5).

#ifndef SRC_DB_MINISQL_H_
#define SRC_DB_MINISQL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/db/btree.h"
#include "src/db/pager.h"
#include "src/fs/fs_rpc.h"

namespace minisql {

struct DbStats {
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t queries = 0;
  uint64_t deletes = 0;
  uint64_t row_cache_hits = 0;
};

class Database;

// A handle to one table.
class Table {
 public:
  sb::Status Insert(uint64_t key, std::span<const uint8_t> value);
  sb::Status Update(uint64_t key, std::span<const uint8_t> value);
  sb::StatusOr<std::vector<uint8_t>> Query(uint64_t key);
  // SELECT ... WHERE key BETWEEN lo AND hi (in key order).
  sb::StatusOr<std::vector<BTree::Row>> Scan(uint64_t lo, uint64_t hi);
  sb::Status Delete(uint64_t key);
  sb::StatusOr<uint64_t> RowCount();

  BTree& btree() { return btree_; }

 private:
  friend class Database;
  Table(Database* db, size_t catalog_index, uint32_t root)
      : db_(db), catalog_index_(catalog_index), btree_(nullptr, root) {}

  Database* db_;
  size_t catalog_index_;
  BTree btree_;
};

class Database {
 public:
  struct Config {
    size_t pager_cache_pages = 64;
    size_t row_cache_entries = 1024;
    // Cycles charged per statement for parse/plan (SQLite-ish overhead).
    uint64_t statement_cycles = 1500;
    // Rollback journal (SQLite-style): write transactions bracket their page
    // flush with journal writes to a sibling "-journal" file, adding the FS
    // round trips a real SQLite commit performs.
    bool use_journal = true;
  };

  // Opens (creating if needed) the database file at `path` on the FS server.
  static sb::StatusOr<std::unique_ptr<Database>> Open(fsys::FsClient* fs,
                                                      const std::string& path,
                                                      Config config);
  static sb::StatusOr<std::unique_ptr<Database>> Open(fsys::FsClient* fs,
                                                      const std::string& path) {
    return Open(fs, path, Config{});
  }

  sb::StatusOr<Table*> CreateTable(const std::string& name);
  sb::StatusOr<Table*> OpenTable(const std::string& name);

  Pager& pager() { return *pager_; }
  const DbStats& stats() const { return stats_; }

  // When set, statement execution charges cycles and touches this heap
  // region on the core (the client process's working set).
  void SetChargedContext(hw::Core* core, hw::Gva heap_base) {
    core_ = core;
    heap_base_ = heap_base;
  }

 private:
  friend class Table;

  struct CatalogEntry {
    std::string name;
    uint32_t root = 0;
    uint64_t rows = 0;
  };

  Database(fsys::FsClient* fs, uint32_t inum, Config config);

  sb::Status LoadCatalog();
  sb::Status StoreCatalog();
  void ChargeStatement(bool write);
  sb::Status JournalBegin();
  sb::Status JournalEnd();

  // Row cache.
  bool RowCacheGet(uint64_t key, std::vector<uint8_t>* value);
  void RowCachePut(uint64_t key, std::vector<uint8_t> value);
  void RowCacheErase(uint64_t key);

  fsys::FsClient* fs_;
  uint32_t inum_;
  uint32_t journal_inum_ = 0;
  Config config_;
  std::unique_ptr<Pager> pager_;
  std::vector<CatalogEntry> catalog_;
  std::vector<std::unique_ptr<Table>> tables_;
  DbStats stats_;
  struct CachedRow {
    std::vector<uint8_t> value;
    std::list<uint64_t>::iterator lru_pos;  // This row's node in row_lru_.
  };
  std::unordered_map<uint64_t, CachedRow> row_cache_;
  std::list<uint64_t> row_lru_;  // Front = most recent.
  hw::Core* core_ = nullptr;
  hw::Gva heap_base_ = 0;
};

}  // namespace minisql

#endif  // SRC_DB_MINISQL_H_
