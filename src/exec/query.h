#ifndef SKYLINE_EXEC_QUERY_H_
#define SKYLINE_EXEC_QUERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/limit.h"
#include "exec/operator.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/select.h"
#include "exec/skyline_op.h"
#include "exec/sort_op.h"
#include "exec/winnow_op.h"
#include "relation/table.h"

namespace skyline {

/// Fluent pipeline builder over a base table — the library's highest-level
/// entry point, mirroring the paper's proposed SQL surface:
///
///   Query(env, &good_eats, "/tmp/q")
///       .Where([](const RowView& r) { return r.GetFloat64(4) < 60.0; })
///       .SkylineOf({{"S", Directive::kMax}, {"price", Directive::kMin}})
///       .Limit(3)
///       .Run(visitor);
///
/// Steps apply bottom-up in call order. Build() hands back the operator
/// tree; Run() drives it and visits each output row.
class Query {
 public:
  /// `env` and `table` must outlive the query and any built operator tree.
  Query(Env* env, const Table* table, std::string temp_prefix);

  Query(const Query&) = delete;
  Query& operator=(const Query&) = delete;
  Query(Query&&) = default;

  /// Attaches an execution context (must outlive execution). The context's
  /// worker count, telemetry sinks, and cancellation hook apply to every
  /// context-aware step (SkylineOf, OrderBy) regardless of call order.
  Query& WithContext(const ExecContext* ctx);

  /// Filters rows by `predicate`.
  Query& Where(RowPredicate predicate);

  /// Applies the skyline operator with the given criteria. A non-empty
  /// `constraint` computes the constrained skyline (skyline of the rows
  /// inside the box; see core/skyline_constraint.h) — BBS probes it
  /// against the index natively, scan algorithms pre-filter.
  Query& SkylineOf(std::vector<Criterion> criteria,
                   SkylineAlgorithm algorithm = SkylineAlgorithm::kSfs,
                   SfsOptions sfs_options = SfsOptions{},
                   BnlOptions bnl_options = {},
                   SkylineConstraint constraint = {});

  /// Keeps the rows not dominated under an arbitrary strict-partial-order
  /// preference (the winnow operator; blocking, BNL-style evaluation).
  Query& WinnowBy(PreferenceRelation prefers,
                  WinnowOptions options = WinnowOptions{});

  /// Keeps only the named columns (in the given order).
  Query& Project(std::vector<std::string> columns);

  /// Sorts by `ordering` (must outlive execution).
  Query& OrderBy(const RowOrdering* ordering,
                 SortOptions options = SortOptions{});

  /// Emits at most `n` rows, stopping the pipeline early.
  Query& Limit(uint64_t n);

  /// Builds the operator tree (Open() not yet called).
  Result<std::unique_ptr<Operator>> Build();

  /// Builds the tree and renders it as an indented EXPLAIN plan.
  Result<std::string> Explain();

  /// Builds, opens, and drives the pipeline, calling `visitor` per row.
  Status Run(const std::function<Status(const RowView&)>& visitor);

  /// Like Run(), but with per-operator wall-clock timing enabled on the
  /// tree, and — on completion (even a failed one) — fills `plan` with the
  /// collected per-operator profile (CollectPlanStats). Null `plan` just
  /// runs with timing on. The EXPLAIN ANALYZE entry point.
  Status RunProfiled(const std::function<Status(const RowView&)>& visitor,
                     std::vector<PlanNodeStats>* plan);

 private:
  using Step = std::function<Result<std::unique_ptr<Operator>>(
      std::unique_ptr<Operator>)>;

  Env* env_;
  const Table* table_;
  std::string temp_prefix_;
  const ExecContext* ctx_ = nullptr;
  uint64_t next_step_id_ = 0;
  std::vector<Step> steps_;
};

}  // namespace skyline

#endif  // SKYLINE_EXEC_QUERY_H_
