#ifndef SKYLINE_EXEC_SORT_OP_H_
#define SKYLINE_EXEC_SORT_OP_H_

#include <memory>
#include <string>

#include "common/exec_context.h"
#include "exec/operator.h"
#include "sort/comparator.h"
#include "sort/external_sort.h"
#include "storage/heap_file.h"
#include "storage/temp_file_manager.h"

namespace skyline {

/// Blocking sort: materializes the child into a temp heap file, external-
/// sorts it, then streams the result.
class SortOperator : public Operator {
 public:
  /// `env` and `ordering` must outlive the operator. Temp files live under
  /// `temp_prefix`.
  SortOperator(std::unique_ptr<Operator> child, Env* env,
               std::string temp_prefix, const RowOrdering* ordering,
               SortOptions options = SortOptions{});

  /// Attaches an execution context (must outlive the operator; set before
  /// Open): worker count, trace spans, and cancellation for the sort.
  void set_exec_context(const ExecContext* ctx) { exec_ = ctx; }

  const Status& status() const override { return status_; }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string PlanNodeLabel() const override { return "Sort (external)"; }
  const Operator* PlanChild() const override { return child_.get(); }
  void CollectOperatorDetail(PlanNodeStats* node) const override;

 protected:
  Status OpenImpl() override;
  const char* NextImpl() override;

 private:
  std::unique_ptr<Operator> child_;
  Env* env_;
  TempFileManager temp_files_;
  const RowOrdering* ordering_;
  SortOptions options_;
  const ExecContext* exec_ = nullptr;
  SortStats sort_stats_;
  std::unique_ptr<HeapFileReader> reader_;
  Status status_;
};

}  // namespace skyline

#endif  // SKYLINE_EXEC_SORT_OP_H_
