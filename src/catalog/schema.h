#ifndef QSCHED_CATALOG_SCHEMA_H_
#define QSCHED_CATALOG_SCHEMA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace qsched::catalog {

/// Storage column types; only the width matters to the cost model, but the
/// type is kept for schema fidelity and index selection.
enum class ColumnType { kInt32, kInt64, kDecimal, kDate, kChar, kVarchar };

struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt32;
  /// Average stored width in bytes.
  int width_bytes = 4;
  /// Number of distinct values; used by the cardinality estimator for
  /// equality predicates and group-by widths.
  uint64_t distinct_values = 1;
};

struct Index {
  std::string name;
  /// Leading column the index is keyed on.
  std::string column;
  bool unique = false;
  /// B-tree height estimate used for index probe I/O cost.
  int height = 3;
};

/// Table statistics as the optimizer sees them (names and magnitudes are
/// modeled after the TPC-H / TPC-C schemas).
class Table {
 public:
  Table() = default;
  Table(std::string name, uint64_t row_count, std::vector<Column> columns);

  const std::string& name() const { return name_; }
  uint64_t row_count() const { return row_count_; }
  void set_row_count(uint64_t rows) { row_count_ = rows; }

  const std::vector<Column>& columns() const { return columns_; }
  /// Returns nullptr when the column does not exist.
  const Column* FindColumn(const std::string& column_name) const;

  /// Sum of column widths plus per-row overhead (fixed at construction:
  /// the column list never changes).
  int row_bytes() const { return row_bytes_; }

  /// Number of data pages at the given page size.
  uint64_t PageCount(int page_size_bytes) const;

  void AddIndex(Index index) { indexes_.push_back(std::move(index)); }
  const std::vector<Index>& indexes() const { return indexes_; }
  /// Returns nullptr when no index leads on `column_name`.
  const Index* FindIndexOn(const std::string& column_name) const;

 private:
  // Tuple header + slot directory overhead per stored row.
  static constexpr int kPerRowOverheadBytes = 8;

  std::string name_;
  uint64_t row_count_ = 0;
  std::vector<Column> columns_;
  int row_bytes_ = kPerRowOverheadBytes;
  std::vector<Index> indexes_;
};

/// A database schema: a named set of tables with statistics. The engine
/// hosts the OLAP and OLTP catalogs as separate databases, mirroring the
/// paper's setup (separate databases to isolate buffer/lock contention).
class Catalog {
 public:
  explicit Catalog(std::string database_name)
      : database_name_(std::move(database_name)) {}

  const std::string& database_name() const { return database_name_; }

  Status AddTable(Table table);
  /// Returns nullptr when absent.
  const Table* FindTable(const std::string& name) const;
  Table* FindMutableTable(const std::string& name);

  /// Table names in ascending order.
  std::vector<std::string> TableNames() const;
  size_t num_tables() const { return tables_.size(); }

  /// Total data pages across all tables.
  uint64_t TotalPages(int page_size_bytes) const;

 private:
  std::string database_name_;
  /// Hashed: every costed statement looks its table up by name.
  std::unordered_map<std::string, Table> tables_;
};

/// TPC-H-shaped catalog (8 tables) at the given scale factor; SF 1.0 is
/// ~1 GB of raw data. The paper used a 500 MB database (SF 0.5).
Catalog MakeTpchCatalog(double scale_factor);

/// TPC-C-shaped catalog (9 tables) for the given warehouse count. The
/// paper used 50 warehouses.
Catalog MakeTpccCatalog(int warehouses);

}  // namespace qsched::catalog

#endif  // QSCHED_CATALOG_SCHEMA_H_
