#ifndef QSCHED_WORKLOAD_TPCC_WORKLOAD_H_
#define QSCHED_WORKLOAD_TPCC_WORKLOAD_H_

#include <functional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/rng.h"
#include "engine/buffer_pool.h"
#include "optimizer/cost_model.h"
#include "workload/query.h"

namespace qsched::workload {

struct TpccWorkloadParams {
  /// The paper's TPC-C database had 50 warehouses.
  int warehouses = 50;
  /// Fixed per-SQL-statement CPU cost (parse/optimize/latch/log), the
  /// dominant CPU term for short transactions.
  double per_statement_cpu_seconds = 0.0006;
  /// Fraction of touched tables that is hot (recent orders, popular
  /// items); determines the OLTP buffer hit ratio.
  double hot_set_fraction = 0.05;
  /// OLTP buffer pool used for the hit-ratio model (pages).
  uint64_t buffer_pool_pages = 16000;
  double estimation_noise_sigma = 0.15;
  optimizer::CostModelParams cost_params;
};

/// TPC-C-like OLTP workload: the five standard transaction types with the
/// standard mix (45% NewOrder, 43% Payment, 4% each OrderStatus, Delivery,
/// StockLevel). Transactions are multi-statement: each statement is a tiny
/// plan (index probes, updates, inserts), and their costs are summed.
/// The result is the paper's sub-second, CPU-intensive, low-variance class.
class TpccWorkload : public QueryGenerator {
 public:
  TpccWorkload(const TpccWorkloadParams& params, uint64_t seed);

  Query Next() override;
  WorkloadType type() const override { return WorkloadType::kOltp; }

  /// Draws an instance of a specific transaction type (testing).
  Query MakeTransaction(size_t index);

  size_t num_transaction_types() const { return transactions_.size(); }
  const std::string& transaction_name(size_t i) const {
    return transactions_[i].name;
  }
  const catalog::Catalog& catalog() const { return catalog_; }

  /// Draws `n` transactions and returns their timeron costs.
  std::vector<double> SampleCosts(int n);

 private:
  /// Statements (single-node plans) of one transaction instance.
  using Statements = std::vector<optimizer::PlanNode>;

  struct Transaction {
    std::string name;
    double mix_weight;
    /// Appends the statements of one instance to an empty list.
    std::function<void(Rng*, Statements*)> build;
  };

  void RegisterTransactions();
  double HitRatioFor(const Statements& stmts) const;

  TpccWorkloadParams params_;
  catalog::Catalog catalog_;
  optimizer::CostModel cost_model_;
  engine::BufferPool pool_model_;
  Rng rng_;
  std::vector<Transaction> transactions_;
  std::vector<double> mix_weights_;
  /// Reused by every MakeTransaction, so steady-state draws allocate no
  /// plan nodes.
  Statements stmts_;
};

}  // namespace qsched::workload

#endif  // QSCHED_WORKLOAD_TPCC_WORKLOAD_H_
