#include "catalog/schema.h"

#include <algorithm>

namespace qsched::catalog {

Table::Table(std::string name, uint64_t row_count,
             std::vector<Column> columns)
    : name_(std::move(name)),
      row_count_(row_count),
      columns_(std::move(columns)) {
  for (const Column& c : columns_) row_bytes_ += c.width_bytes;
}

const Column* Table::FindColumn(const std::string& column_name) const {
  for (const Column& c : columns_) {
    if (c.name == column_name) return &c;
  }
  return nullptr;
}

uint64_t Table::PageCount(int page_size_bytes) const {
  if (page_size_bytes <= 0) return 0;
  uint64_t rows_per_page =
      std::max<uint64_t>(1, static_cast<uint64_t>(page_size_bytes) /
                                static_cast<uint64_t>(row_bytes()));
  return (row_count_ + rows_per_page - 1) / rows_per_page;
}

const Index* Table::FindIndexOn(const std::string& column_name) const {
  for (const Index& idx : indexes_) {
    if (idx.column == column_name) return &idx;
  }
  return nullptr;
}

Status Catalog::AddTable(Table table) {
  const std::string& name = table.name();
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already in catalog: " + name);
  }
  tables_.emplace(name, std::move(table));
  return Status::OK();
}

const Table* Catalog::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it != tables_.end() ? &it->second : nullptr;
}

Table* Catalog::FindMutableTable(const std::string& name) {
  auto it = tables_.find(name);
  return it != tables_.end() ? &it->second : nullptr;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

uint64_t Catalog::TotalPages(int page_size_bytes) const {
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) {
    total += table.PageCount(page_size_bytes);
  }
  return total;
}

}  // namespace qsched::catalog
