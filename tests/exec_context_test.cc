#include "common/exec_context.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/compute_skyline.h"
#include "core/sfs.h"
#include "core/sfs_parallel.h"
#include "exec/scan.h"
#include "exec/skyline_op.h"
#include "gtest/gtest.h"
#include "sql/engine.h"
#include "test_util.h"

namespace skyline {
namespace {

using testing_util::MakeUniformTable;
using testing_util::OracleSkylineMultiset;
using testing_util::ReadAll;
using testing_util::RowMultiset;

size_t Hardware() { return ClampThreadsToHardware(0); }

// ---- The thread knob's pure policy (the contract in exec_context.h) ----

// The per-call option structs carry no thread field: a context whose
// threads is left alone is sequential, as the option default was.
TEST(ExecContextTest, UnsetContextDefersToOptionField) {
  ExecContext ctx;
  EXPECT_EQ(ctx.threads, 1u);
  EXPECT_EQ(ctx.WorkerThreads(), 1u);
  EXPECT_EQ(Session::Options().threads, 1u);  // sessions default to 1 too
}

// Setting the context is the only way to change the count: 0 asks for one
// worker per hardware thread, any other value is taken up to the hardware.
TEST(ExecContextTest, SetContextOverridesOptionField) {
  ExecContext ctx;
  ctx.threads = 0;
  EXPECT_EQ(ctx.WorkerThreads(), Hardware());
  ctx.threads = 2;
  EXPECT_EQ(ctx.WorkerThreads(), ClampThreads(2, Hardware()));
  ctx.threads = 1;
  EXPECT_EQ(ctx.WorkerThreads(), 1u);
}

// WorkerThreads() clamps; the field keeps the caller's request. No workers
// start here: WorkerThreads() only evaluates the policy, so a request far
// above any host pins the clamp without spawning anything.
TEST(ExecContextTest, ResolveClampsButRequestedDoesNot) {
  ExecContext ctx;
  ctx.threads = 64 * 1024;
  EXPECT_EQ(ctx.WorkerThreads(), Hardware());
  EXPECT_EQ(ctx.WorkerThreads(), ClampThreads(64 * 1024, Hardware()));
  EXPECT_EQ(ctx.threads, 64u * 1024u);
}

TEST(ExecContextTest, TempPrefixFallsBackWhenEmpty) {
  ExecContext ctx;
  const std::string fallback = "out.tmp";
  EXPECT_EQ(ctx.TempPrefixOr(fallback), "out.tmp");
  ctx.temp_prefix = "scratch/run7";
  EXPECT_EQ(ctx.TempPrefixOr(fallback), "scratch/run7");
}

TEST(ExecContextTest, CheckCancelledFollowsTheHook) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.has_cancel_hook());
  EXPECT_TRUE(ctx.CheckCancelled().ok());
  std::atomic<bool> cancel{false};
  ctx.cancelled = [&cancel] { return cancel.load(); };
  EXPECT_TRUE(ctx.has_cancel_hook());
  EXPECT_TRUE(ctx.CheckCancelled().ok());
  cancel = true;
  EXPECT_TRUE(ctx.CheckCancelled().IsCancelled());
}

// ---- Context hooks as observed through the algorithm entry points ----

class ExecContextSfsTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv();

  SkylineSpec MaxSpec(const Table& t, int dims) {
    std::vector<Criterion> criteria;
    for (int i = 0; i < dims; ++i) {
      criteria.push_back({"a" + std::to_string(i), Directive::kMax});
    }
    auto result = SkylineSpec::Make(t.schema(), std::move(criteria));
    SKYLINE_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }
};

TEST_F(ExecContextSfsTest, ContextThreadsOverrideSfsOptions) {
  // Enough rows for two full blocks of ParallelSfsOptions::min_block_rows
  // (4096): below that the filter runs one block whatever the knob says.
  ASSERT_OK_AND_ASSIGN(Table t,
                       MakeUniformTable(env_.get(), "t", 10000, 3, 7));
  SkylineSpec spec = MaxSpec(t, 3);
  const auto oracle = OracleSkylineMultiset(t, spec);
  const SfsOptions options;  // no thread field: the context decides

  // A context left alone runs presort and filter sequentially.
  SkylineRunStats unset_stats;
  ASSERT_OK_AND_ASSIGN(Table sky, ComputeSkylineSfs(t, spec, options,
                                                    ExecContext{}, "out_seq",
                                                    &unset_stats));
  EXPECT_EQ(unset_stats.threads_used, 1u);
  EXPECT_EQ(unset_stats.sort_stats.threads_used, 1u);
  std::vector<char> rows = ReadAll(sky);
  EXPECT_EQ(RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
            oracle);

  // Two requested workers: both phases run the clamped count.
  ExecContext two;
  two.threads = 2;
  const size_t expected = ClampThreads(2, Hardware());
  SkylineRunStats parallel_stats;
  ASSERT_OK_AND_ASSIGN(
      Table sky2,
      ComputeSkylineSfs(t, spec, options, two, "out_par", &parallel_stats));
  EXPECT_EQ(parallel_stats.threads_used, expected);
  EXPECT_EQ(parallel_stats.sort_stats.threads_used, expected);
  std::vector<char> rows2 = ReadAll(sky2);
  EXPECT_EQ(
      RowMultiset(rows2.data(), sky2.row_count(), t.schema().row_width()),
      oracle);
}

TEST_F(ExecContextSfsTest, CancellationHookAbortsTheRun) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 2000, 4, 3));
  SkylineSpec spec = MaxSpec(t, 4);
  ExecContext ctx;
  ctx.cancelled = [] { return true; };
  auto result =
      ComputeSkylineSfs(t, spec, SfsOptions{}, ctx, "out_cancel", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST_F(ExecContextSfsTest, UnifiedDispatchMatchesDirectCalls) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(env_.get(), "t", 600, 4, 5));
  SkylineSpec spec = MaxSpec(t, 4);
  const auto oracle = OracleSkylineMultiset(t, spec);
  for (SkylineAlgorithm algorithm :
       {SkylineAlgorithm::kSfs, SkylineAlgorithm::kBnl,
        SkylineAlgorithm::kAuto}) {
    SkylineRunStats stats;
    ASSERT_OK_AND_ASSIGN(
        Table sky,
        ComputeSkyline(algorithm, t, spec, ExecContext(),
                       "out_unified" +
                           std::to_string(static_cast<int>(algorithm)),
                       &stats));
    std::vector<char> rows = ReadAll(sky);
    EXPECT_EQ(
        RowMultiset(rows.data(), sky.row_count(), t.schema().row_width()),
        oracle)
        << "algorithm " << static_cast<int>(algorithm);
    EXPECT_EQ(stats.output_rows, sky.row_count());
  }
  // 4 value columns: kAuto must take the SFS route, not a special scan.
  EXPECT_FALSE(SkylineAutoUsesSpecialScan(spec));
}

// ---- Sessions ----

class ExecContextSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    Engine::Options engine_options;
    engine_options.env = env_.get();
    engine_options.write_sidecars = false;
    engine_ = std::make_unique<Engine>(engine_options);
    ASSERT_OK_AND_ASSIGN(Table t,
                         MakeUniformTable(env_.get(), "sqlt", 600, 3, 11));
    ASSERT_TRUE(engine_->CreateTable("T", std::move(t)).ok());
  }

  Status Run(const Session::Options& options, TraceSink* trace,
             int* rows_out) {
    Session::Options session_options = options;
    // Force the Volcano pipeline: the cached-serve path never builds the
    // operators whose spans these tests observe.
    session_options.use_result_cache = false;
    Session session(engine_.get(), session_options);
    session.exec().trace = trace;
    int rows = 0;
    Status st = session.Execute(
        "SELECT * FROM T SKYLINE OF a0 MAX, a1 MAX, a2 MAX",
        [&rows](const RowView&) {
          ++rows;
          return Status::OK();
        });
    if (rows_out != nullptr) *rows_out = rows;
    return st;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
};

// Session::Options::threads has the context's meaning and there is no
// SfsOptions::threads left to defer to: the default (1) keeps the run
// sequential, and 0 asks for one worker per hardware thread.
TEST_F(ExecContextSessionTest, ThreadsZeroDefersToSfsOptions) {
  TraceSink sequential_trace;
  int sequential_rows = 0;
  ASSERT_TRUE(
      Run(Session::Options(), &sequential_trace, &sequential_rows).ok());
  EXPECT_GT(sequential_rows, 0);
  EXPECT_EQ(sequential_trace.CountSpans("block-scan"), 0u);
  EXPECT_EQ(sequential_trace.CountSpans("filter-pass-1"), 1u);
  EXPECT_EQ(sequential_trace.CountSpans("sql-parse"), 1u);
  EXPECT_EQ(sequential_trace.CountSpans("sql-bind"), 1u);
  EXPECT_EQ(sequential_trace.CountSpans("sql-execute"), 1u);

  TraceSink hardware_trace;
  Session::Options options;
  options.threads = 0;
  int hardware_rows = 0;
  ASSERT_TRUE(Run(options, &hardware_trace, &hardware_rows).ok());
  EXPECT_EQ(hardware_rows, sequential_rows);
  // The block-parallel filter runs exactly when there is more than one
  // hardware thread to give it.
  EXPECT_EQ(hardware_trace.CountSpans("block-scan") > 0, Hardware() > 1);
}

TEST_F(ExecContextSessionTest, NonZeroThreadsOverridesSfsOptions) {
  TraceSink trace;
  Session::Options options;
  options.threads = 2;
  int rows = 0;
  ASSERT_TRUE(Run(options, &trace, &rows).ok());
  EXPECT_GT(rows, 0);
  EXPECT_EQ(trace.CountSpans("block-scan") > 0,
            ClampThreads(2, Hardware()) > 1);
}

TEST_F(ExecContextSessionTest, ExplicitExecThreadsWinsOverSessionKnob) {
  TraceSink trace;
  Session::Options options;
  options.threads = 4;
  options.use_result_cache = false;
  Session session(engine_.get(), options);
  session.exec().trace = &trace;
  session.exec().threads = 1;  // the context pins it back to sequential
  int rows = 0;
  ASSERT_TRUE(session
                  .Execute("SELECT * FROM T SKYLINE OF a0 MAX, a1 MAX, a2 MAX",
                           [&rows](const RowView&) {
                             ++rows;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_GT(rows, 0);
  EXPECT_EQ(trace.CountSpans("block-scan"), 0u);
  EXPECT_EQ(trace.CountSpans("filter-pass-1"), 1u);
}

TEST_F(ExecContextSessionTest, CancellationSurfacesThroughSession) {
  Session session(engine_.get());
  session.exec().cancelled = [] { return true; };
  Status st = session.Execute(
      "SELECT * FROM T SKYLINE OF a0 MAX, a1 MAX, a2 MAX",
      [](const RowView&) { return Status::OK(); });
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

TEST_F(ExecContextSessionTest, MetricsPublishOnStreamExhaustion) {
  MetricsRegistry metrics;
  Session::Options options;
  options.use_result_cache = false;
  Session session(engine_.get(), options);
  session.exec().metrics = &metrics;
  int rows = 0;
  ASSERT_TRUE(session
                  .Execute("SELECT * FROM T SKYLINE OF a0 MAX, a1 MAX, a2 MAX",
                           [&rows](const RowView&) {
                             ++rows;
                             return Status::OK();
                           })
                  .ok());
  const MetricsSnapshot snapshot = metrics.Aggregate();
  EXPECT_EQ(snapshot.CounterValue("skyline.sfs.runs"), 1u);
  EXPECT_EQ(snapshot.CounterValue("skyline.sfs.output_rows"),
            static_cast<uint64_t>(rows));
}

// ---- One knob, every entry point ----

// Every phase reads ExecContext::threads: whatever the entry point, the
// presort runs WorkerThreads() workers, the block-parallel filter runs as
// many as the input's blocks allow (the sequential filters run one), and
// the output bytes do not depend on the knob.
class ExecContextThreadsTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 20000;
  static constexpr uint64_t kSeed = 19;

  struct Observed {
    std::vector<char> rows;
    uint64_t sort_threads = 0;
    uint64_t filter_threads = 0;
  };

  void SetUp() override {
    env_ = NewMemEnv();
    ASSERT_OK_AND_ASSIGN(Table t,
                         MakeUniformTable(env_.get(), "t", kRows, 4, kSeed));
    table_.emplace(std::move(t));
  }

  SkylineSpec MaxSpec(int dims) {
    std::vector<Criterion> criteria;
    for (int i = 0; i < dims; ++i) {
      criteria.push_back({"a" + std::to_string(i), Directive::kMax});
    }
    auto result = SkylineSpec::Make(table_->schema(), std::move(criteria));
    SKYLINE_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  Result<Observed> Dispatch(SkylineAlgorithm algorithm, int dims,
                            const ExecContext& ctx, const std::string& out) {
    SkylineRunStats stats;
    SKYLINE_ASSIGN_OR_RETURN(Table sky, ComputeSkyline(algorithm, *table_,
                                                       MaxSpec(dims), ctx,
                                                       out, &stats));
    return Observed{ReadAll(sky), stats.sort_stats.threads_used,
                    stats.threads_used};
  }

  /// The pipelined SkylineOperator: a residue path keeps it on the
  /// streaming sequential filter at any worker count.
  Result<Observed> PipelinedOperator(const ExecContext& ctx,
                                     const std::string& prefix) {
    SfsOptions options;
    options.residue_path = prefix + ".residue";
    SKYLINE_ASSIGN_OR_RETURN(
        std::unique_ptr<SkylineOperator> op,
        SkylineOperator::Make(std::make_unique<TableScanOperator>(&*table_),
                              env_.get(), prefix,
                              MaxSpec(4).criteria(), SkylineAlgorithm::kSfs,
                              options));
    op->set_exec_context(&ctx);
    SKYLINE_RETURN_IF_ERROR(op->Open());
    Observed observed;
    const size_t width = table_->schema().row_width();
    while (const char* row = op->Next()) {
      observed.rows.insert(observed.rows.end(), row, row + width);
    }
    SKYLINE_RETURN_IF_ERROR(op->status());
    observed.sort_threads = op->stats().sort_stats.threads_used;
    observed.filter_threads = op->stats().threads_used;
    return observed;
  }

  /// A SQL SELECT through a Session whose Options::threads carries the
  /// knob; the run's counts come back through the metrics sink.
  Result<Observed> SessionSelect(size_t threads) {
    Engine::Options engine_options;
    engine_options.env = env_.get();
    engine_options.data_prefix = "engine" + std::to_string(threads);
    engine_options.write_sidecars = false;
    Engine engine(engine_options);
    // The engine owns its table, so it gets a same-seed copy of table_.
    SKYLINE_ASSIGN_OR_RETURN(
        Table copy, MakeUniformTable(env_.get(),
                                     "sql_t" + std::to_string(threads), kRows,
                                     4, kSeed));
    SKYLINE_RETURN_IF_ERROR(engine.CreateTable("T", std::move(copy)));
    Session::Options options;
    options.threads = threads;
    Session session(&engine, options);
    MetricsRegistry metrics;
    session.exec().metrics = &metrics;
    Observed observed;
    SKYLINE_RETURN_IF_ERROR(session.Execute(
        "SELECT * FROM T SKYLINE OF a0 MAX, a1 MAX, a2 MAX, a3 MAX",
        [&observed](const RowView& row) {
          observed.rows.insert(observed.rows.end(), row.data(),
                               row.data() + row.schema().row_width());
          return Status::OK();
        }));
    const MetricsSnapshot snapshot = metrics.Aggregate();
    observed.sort_threads = static_cast<uint64_t>(
        snapshot.GaugeValue("skyline.sfs.sort_threads_used"));
    observed.filter_threads = static_cast<uint64_t>(
        snapshot.GaugeValue("skyline.sfs.threads_used"));
    return observed;
  }

  std::unique_ptr<Env> env_;
  std::optional<Table> table_;
};

TEST_F(ExecContextThreadsTest, EveryEntryPointRunsTheClampedCount) {
  // The block-parallel filter needs min_block_rows per block.
  const uint64_t max_blocks = kRows / ParallelSfsOptions().min_block_rows;
  enum Entry { kSfs, kSpecial2d, kOperator, kSession, kEntries };
  const char* const kNames[] = {"ComputeSkyline(kSfs)", "kAuto 2-d scan",
                                "pipelined operator", "session SELECT"};
  std::vector<char> sequential_rows[kEntries];
  for (size_t threads : {size_t{1}, size_t{2}, size_t{0}, 2 * Hardware()}) {
    ExecContext ctx;
    ctx.threads = threads;
    const size_t clamped = ClampThreads(threads, Hardware());
    const std::string tag = "_t" + std::to_string(threads);
    for (int entry = 0; entry < kEntries; ++entry) {
      SCOPED_TRACE(std::string(kNames[entry]) + ", threads " +
                   std::to_string(threads));
      Result<Observed> got = Status::Internal("unset");
      uint64_t filter_threads = 1;
      switch (entry) {
        case kSfs:
          got = Dispatch(SkylineAlgorithm::kSfs, 4, ctx, "sfs" + tag);
          filter_threads = std::min<uint64_t>(clamped, max_blocks);
          break;
        case kSpecial2d:
          got = Dispatch(SkylineAlgorithm::kAuto, 2, ctx, "auto2d" + tag);
          break;
        case kOperator:
          got = PipelinedOperator(ctx, "op" + tag);
          break;
        case kSession:
          got = SessionSelect(threads);
          filter_threads = std::min<uint64_t>(clamped, max_blocks);
          break;
      }
      ASSERT_OK(got.status());
      EXPECT_EQ(got->sort_threads, clamped);
      EXPECT_EQ(got->filter_threads, filter_threads);
      ASSERT_FALSE(got->rows.empty());
      if (threads == 1) {
        sequential_rows[entry] = std::move(got->rows);
      } else {
        EXPECT_TRUE(got->rows == sequential_rows[entry])
            << "output bytes moved with the thread count";
      }
    }
  }
}

}  // namespace
}  // namespace skyline
