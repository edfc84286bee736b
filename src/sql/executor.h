#ifndef SKYLINE_SQL_EXECUTOR_H_
#define SKYLINE_SQL_EXECUTOR_H_

#include <functional>
#include <map>
#include <string>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/sfs.h"
#include "exec/query.h"
#include "relation/table.h"
#include "sql/ast.h"

namespace skyline {

/// Name → table registry for SQL execution. Tables are borrowed (must
/// outlive the catalog); names are case-sensitive.
class Catalog {
 public:
  explicit Catalog(Env* env) : env_(env) {}

  /// Registers `table` under `name`; replaces an existing entry.
  void Register(const std::string& name, const Table* table) {
    tables_[name] = table;
  }

  Result<const Table*> Lookup(const std::string& name) const {
    auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound("no table named " + name);
    return it->second;
  }

  Env* env() const { return env_; }

 private:
  Env* env_;
  std::map<std::string, const Table*> tables_;
};

/// Execution knobs for SQL statements.
struct SqlOptions {
  /// Which algorithm evaluates SKYLINE OF clauses. kAuto routes 2-/3-dim
  /// specs through the windowless special-case scans.
  SkylineAlgorithm algorithm = SkylineAlgorithm::kSfs;
  /// Options for SFS-based evaluation (the kSfs and high-dim kAuto paths;
  /// sort_options also feed the special-case scans).
  SfsOptions sfs;
  /// Temp-file prefix for pipeline steps.
  std::string temp_prefix = "sql_query";
  /// Execution context threaded through every operator the statement
  /// builds: worker count (ExecContext::threads, the only thread knob),
  /// metrics/trace sinks, and the cancellation hook.
  ExecContext exec;
};

/// Renders the plan that `statement` would execute against `catalog`,
/// without running it.
Result<std::string> ExplainSql(const Catalog& catalog, const std::string& sql,
                               const SqlOptions& options = SqlOptions{});

/// Side-channel results of one statement execution, filled when the caller
/// passes it to ExecuteSelect/ExecuteSql.
///
/// For a plain statement: `executed` is true and `plan` holds the
/// per-operator profile (row counts always; wall times too, since profiled
/// execution runs with timing on).
///
/// For `EXPLAIN <query>`: nothing runs, `executed` stays false, and
/// `plan_text` holds the indented plan — the visitor never fires.
///
/// For `EXPLAIN ANALYZE <query>`: the statement runs to completion but
/// rows are consumed internally (the visitor never fires); `plan` holds
/// the profile and `plan_text` the annotated rendering.
struct SqlRunInfo {
  ExplainMode explain = ExplainMode::kNone;
  bool executed = false;
  std::string plan_text;
  std::vector<PlanNodeStats> plan;
};

/// Binds and runs `statement` against `catalog`, invoking `visitor` per
/// output row. Binding errors (unknown table/column, type-mismatched
/// predicate) surface as NotFound / InvalidArgument. A non-null `info`
/// collects the per-operator profile and makes the statement's EXPLAIN
/// mode observable (see SqlRunInfo).
Status ExecuteSelect(const Catalog& catalog, const SelectStatement& statement,
                     const SqlOptions& options,
                     const std::function<Status(const RowView&)>& visitor,
                     SqlRunInfo* info = nullptr);

/// One-shot convenience: parse + execute a SELECT. Write statements
/// (INSERT/DELETE) are rejected here — they mutate tables and must go
/// through the skyline::Session facade (sql/engine.h), which owns the
/// table-version and result-cache protocol.
Status ExecuteSql(const Catalog& catalog, const std::string& sql,
                  const SqlOptions& options,
                  const std::function<Status(const RowView&)>& visitor,
                  SqlRunInfo* info = nullptr);

}  // namespace skyline

#endif  // SKYLINE_SQL_EXECUTOR_H_
