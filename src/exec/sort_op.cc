#include "exec/sort_op.h"

#include <utility>

namespace skyline {

SortOperator::SortOperator(std::unique_ptr<Operator> child, Env* env,
                           std::string temp_prefix,
                           const RowOrdering* ordering, SortOptions options)
    : child_(std::move(child)),
      env_(env),
      temp_files_(env, std::move(temp_prefix)),
      ordering_(ordering),
      options_(options) {}

Status SortOperator::OpenImpl() {
  SKYLINE_RETURN_IF_ERROR(child_->Open());
  const size_t width = child_->output_schema().row_width();

  // Materialize the child.
  const std::string staged = temp_files_.Allocate("sort_input");
  HeapFileWriter writer(env_, staged, width, nullptr);
  SKYLINE_RETURN_IF_ERROR(writer.Open());
  while (const char* row = child_->Next()) {
    SKYLINE_RETURN_IF_ERROR(writer.Append(row));
  }
  SKYLINE_RETURN_IF_ERROR(child_->status());
  SKYLINE_RETURN_IF_ERROR(writer.Finish());

  static const ExecContext* const kNoContext = new ExecContext();
  const ExecContext& ctx = exec_ != nullptr ? *exec_ : *kNoContext;
  SKYLINE_ASSIGN_OR_RETURN(
      std::string sorted,
      SortHeapFile(env_, &temp_files_, staged, width, *ordering_, options_,
                   ctx, &sort_stats_));
  reader_ = std::make_unique<HeapFileReader>(env_, sorted, width, nullptr);
  return reader_->Open();
}

const char* SortOperator::NextImpl() {
  if (!status_.ok() || reader_ == nullptr) return nullptr;
  const char* row = reader_->Next();
  if (row == nullptr) status_ = reader_->status();
  return row;
}

void SortOperator::CollectOperatorDetail(PlanNodeStats* node) const {
  node->counters.emplace_back("runs_generated", sort_stats_.runs_generated);
  node->counters.emplace_back("merge_levels", sort_stats_.merge_levels);
  node->counters.emplace_back("threads_used", sort_stats_.threads_used);
  node->counters.emplace_back("temp_pages",
                              sort_stats_.io.pages_read +
                                  sort_stats_.io.pages_written);
}

}  // namespace skyline
