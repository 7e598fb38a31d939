#include "workload/tpcc_workload.h"

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace qsched::workload {

using optimizer::OperatorKind;
using optimizer::PlanNode;

namespace {

// Statement builders: the same single-node plans optimizer::IndexScan /
// Insert / Update return, appended in place to a reused list.
void AddStatement(std::vector<PlanNode>* stmts, OperatorKind kind,
                  const char* table, const char* column, double rows) {
  PlanNode& node = stmts->emplace_back();
  node.kind = kind;
  node.table = table;
  node.column = column;
  node.probe_rows = rows;
}

void IndexScan(std::vector<PlanNode>* stmts, const char* table,
               const char* column, double probe_rows) {
  AddStatement(stmts, OperatorKind::kIndexScan, table, column, probe_rows);
}

void Insert(std::vector<PlanNode>* stmts, const char* table, double rows) {
  AddStatement(stmts, OperatorKind::kInsert, table, "", rows);
}

void Update(std::vector<PlanNode>* stmts, const char* table, double rows) {
  AddStatement(stmts, OperatorKind::kUpdate, table, "", rows);
}

}  // namespace

TpccWorkload::TpccWorkload(const TpccWorkloadParams& params, uint64_t seed)
    : params_(params),
      catalog_(catalog::MakeTpccCatalog(params.warehouses)),
      cost_model_(&catalog_, [&params] {
        optimizer::CostModelParams p = params.cost_params;
        p.estimation_noise_sigma = params.estimation_noise_sigma;
        // OLTP probes hit the buffer pool most of the time and the DB2
        // optimizer prices that in.
        p.assumed_hit_ratio = 0.85;
        return p;
      }()),
      pool_model_(params.buffer_pool_pages, /*reuse_factor=*/4.0,
                  /*max_hit_ratio=*/0.86),
      rng_(seed) {
  RegisterTransactions();
}

void TpccWorkload::RegisterTransactions() {
  auto add = [this](std::string name, double weight,
                    std::function<void(Rng*, Statements*)> build) {
    transactions_.push_back(
        Transaction{std::move(name), weight, std::move(build)});
    mix_weights_.push_back(weight);
  };

  // NewOrder: read customer/warehouse/district, then per order line
  // (5-15) probe item + stock and update stock; insert orders/new_order/
  // order_line rows.
  add("new_order", 0.45, [](Rng* rng, Statements* stmts) {
    IndexScan(stmts, "warehouse", "w_id", 1.0);
    IndexScan(stmts, "customer", "c_w_id", 1.0);
    Update(stmts, "district", 1.0);  // bump d_next_o_id
    int lines = static_cast<int>(rng->UniformInt(5, 15));
    for (int i = 0; i < lines; ++i) {
      IndexScan(stmts, "item", "i_id", 1.0);
      Update(stmts, "stock", 1.0);
    }
    Insert(stmts, "orders", 1.0);
    Insert(stmts, "new_order", 1.0);
    Insert(stmts, "order_line", static_cast<double>(lines));
  });

  // Payment: update warehouse/district/customer balances, insert history.
  add("payment", 0.43, [](Rng* rng, Statements* stmts) {
    Update(stmts, "warehouse", 1.0);
    Update(stmts, "district", 1.0);
    if (rng->Bernoulli(0.6)) {
      // Lookup by last name scans a few matching customers.
      IndexScan(stmts, "customer", "c_last", rng->Uniform(1.0, 4.0));
    }
    Update(stmts, "customer", 1.0);
    Insert(stmts, "history", 1.0);
  });

  // OrderStatus: read-only — customer, last order, its lines.
  add("order_status", 0.04, [](Rng* rng, Statements* stmts) {
    IndexScan(stmts, "customer", "c_w_id", 1.0);
    IndexScan(stmts, "orders", "o_w_id", 1.0);
    IndexScan(stmts, "order_line", "ol_w_id", rng->Uniform(5.0, 15.0));
  });

  // Delivery: batch over the 10 districts of a warehouse.
  add("delivery", 0.04, [](Rng* rng, Statements* stmts) {
    for (int d = 0; d < 10; ++d) {
      IndexScan(stmts, "new_order", "no_w_id", 1.0);
      Update(stmts, "orders", 1.0);
      Update(stmts, "order_line", rng->Uniform(5.0, 15.0));
      Update(stmts, "customer", 1.0);
    }
  });

  // StockLevel: district probe plus a join of recent order lines to stock.
  add("stock_level", 0.04, [](Rng* rng, Statements* stmts) {
    IndexScan(stmts, "district", "d_w_id", 1.0);
    IndexScan(stmts, "order_line", "ol_w_id", rng->Uniform(180.0, 220.0));
    IndexScan(stmts, "stock", "s_w_id", rng->Uniform(180.0, 220.0));
  });

  QSCHED_CHECK(transactions_.size() == 5);
}

double TpccWorkload::HitRatioFor(const Statements& stmts) const {
  // Distinct table names, in first-use order. A transaction touches at
  // most the nine TPC-C tables, so a linear scan beats a tree; page counts
  // are whole numbers, so the summation order does not change the result.
  constexpr size_t kMaxTables = 16;
  std::array<const std::string*, kMaxTables> tables;
  size_t num_tables = 0;
  for (const PlanNode& stmt : stmts) {
    const std::string& name = stmt.table;
    if (name.empty()) continue;
    bool seen = false;
    for (size_t i = 0; i < num_tables && !seen; ++i) {
      seen = *tables[i] == name;
    }
    if (seen) continue;
    QSCHED_CHECK(num_tables < kMaxTables) << "too many TPC-C tables";
    tables[num_tables++] = &name;
  }
  double footprint = 0.0;
  for (size_t i = 0; i < num_tables; ++i) {
    const catalog::Table* table = catalog_.FindTable(*tables[i]);
    if (table != nullptr) {
      footprint += static_cast<double>(
          table->PageCount(params_.cost_params.page_size_bytes));
    }
  }
  // Transactions touch the hot working set, not whole tables.
  return pool_model_.HitProbability(footprint * params_.hot_set_fraction);
}

Query TpccWorkload::Next() {
  return MakeTransaction(rng_.Categorical(mix_weights_));
}

Query TpccWorkload::MakeTransaction(size_t index) {
  QSCHED_CHECK(index < transactions_.size());
  const Transaction& txn = transactions_[index];
  stmts_.clear();
  txn.build(&rng_, &stmts_);

  double timerons = 0.0;
  double cpu_seconds = 0.0;
  double logical_pages = 0.0;
  double write_pages = 0.0;
  for (const PlanNode& stmt : stmts_) {
    auto cost = cost_model_.Estimate(stmt, &rng_);
    QSCHED_CHECK(cost.ok()) << "cost model failed for " << txn.name << ": "
                            << cost.status().ToString();
    const optimizer::QueryCost& qc = cost.ValueOrDie();
    timerons += qc.timerons;
    cpu_seconds += qc.cpu_seconds;
    logical_pages += qc.logical_pages;
    write_pages += qc.write_pages;
  }
  double statement_cpu =
      static_cast<double>(stmts_.size()) * params_.per_statement_cpu_seconds;
  cpu_seconds += statement_cpu;
  timerons += statement_cpu / params_.cost_params.seconds_per_cpu_unit *
              params_.cost_params.timerons_per_cpu_unit;

  Query query;
  query.type = WorkloadType::kOltp;
  query.template_name = txn.name;
  query.cost_timerons = timerons;
  query.job.database = engine::DatabaseId::kOltp;
  query.job.cpu_seconds = cpu_seconds;
  query.job.logical_pages = logical_pages;
  query.job.write_pages = write_pages;
  query.job.hit_ratio = HitRatioFor(stmts_);
  return query;
}

std::vector<double> TpccWorkload::SampleCosts(int n) {
  std::vector<double> costs;
  costs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) costs.push_back(Next().cost_timerons);
  return costs;
}

}  // namespace qsched::workload
