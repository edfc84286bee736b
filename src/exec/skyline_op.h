#ifndef SKYLINE_EXEC_SKYLINE_OP_H_
#define SKYLINE_EXEC_SKYLINE_OP_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "core/bnl.h"
#include "core/sfs.h"
#include "core/skyline_algorithm.h"
#include "core/skyline_constraint.h"
#include "core/skyline_spec.h"
#include "exec/operator.h"
#include "relation/table.h"
#include "storage/temp_file_manager.h"

namespace skyline {

/// The relational skyline operator (the paper's proposed `SKYLINE OF`
/// clause). Blocks on input (materializes the child, then presorts for
/// SFS), but with SFS the *output* is pipelined: rows stream out as they
/// are confirmed, enabling Limit above it to stop the computation early.
/// With BNL the output is inherently blocking and is fully materialized
/// before the first Next() returns.
class SkylineOperator : public Operator {
 public:
  /// Validates `criteria` against the child's schema. `env` must outlive
  /// the operator; temp files live under `temp_prefix`. A non-empty
  /// `constraint` computes the constrained skyline (skyline of the rows
  /// inside the box) — pushed down natively into BBS's index probe, or
  /// applied by pre-filtering for the scan algorithms.
  static Result<std::unique_ptr<SkylineOperator>> Make(
      std::unique_ptr<Operator> child, Env* env, std::string temp_prefix,
      std::vector<Criterion> criteria,
      SkylineAlgorithm algorithm = SkylineAlgorithm::kSfs,
      SfsOptions sfs_options = SfsOptions{}, BnlOptions bnl_options = {},
      SkylineConstraint constraint = {});

  /// Attaches an execution context (must outlive the operator; set before
  /// Open). Supplies the worker count, telemetry sinks, and cancellation
  /// for the skyline computation.
  void set_exec_context(const ExecContext* ctx) { exec_ = ctx; }

  const Status& status() const override { return status_; }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }

  std::string PlanNodeLabel() const override {
    const char* name = algorithm_ == SkylineAlgorithm::kBnl    ? "BNL"
                       : algorithm_ == SkylineAlgorithm::kAuto ? "auto"
                       : algorithm_ == SkylineAlgorithm::kBbs  ? "BBS"
                                                               : "SFS";
    std::string label = "Skyline[" + std::string(name) + "] " +
                        spec_.ToString();
    if (!constraint_.empty()) label += " constrained";
    return label;
  }
  const Operator* PlanChild() const override { return child_.get(); }
  void CollectOperatorDetail(PlanNodeStats* node) const override;

  /// Run statistics (valid after the stream is exhausted; for SFS the pass
  /// counters update as the stream advances).
  const SkylineRunStats& stats() const { return stats_; }

 protected:
  Status OpenImpl() override;
  const char* NextImpl() override;

 private:
  SkylineOperator(std::unique_ptr<Operator> child, Env* env,
                  std::string temp_prefix, SkylineSpec spec,
                  SkylineAlgorithm algorithm, SfsOptions sfs_options,
                  BnlOptions bnl_options, SkylineConstraint constraint);

  std::unique_ptr<Operator> child_;
  Env* env_;
  TempFileManager temp_files_;
  SkylineSpec spec_;
  SkylineAlgorithm algorithm_;
  SfsOptions sfs_options_;
  BnlOptions bnl_options_;
  SkylineConstraint constraint_;
  const ExecContext* exec_ = nullptr;
  SkylineRunStats stats_;

  /// Staged child output — only when the child is not a pure table scan
  /// (a scan's base table is used directly, keeping its sidecars
  /// reachable for the index path).
  std::optional<Table> input_table_;
  std::unique_ptr<SfsIterator> sfs_;
  /// Result table + reader for the materialized paths (BNL, the
  /// auto-selected special scans, and the block-parallel filter).
  std::optional<Table> materialized_;
  std::unique_ptr<HeapFileReader> materialized_reader_;
  bool stats_published_ = false;
  Status status_;
};

}  // namespace skyline

#endif  // SKYLINE_EXEC_SKYLINE_OP_H_
