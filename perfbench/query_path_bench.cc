// query_path_bench: one benchmark for the whole query path — the library's
// cold ComputeSkyline, cached and uncached reads over a real loopback
// socket against an in-process SkylineServer, and writes beside reads.
//
//   query_path_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--workdir <dir>]
//
// Workloads (every input is generated from --seed; the engine only ever
// sees the generated tables and SQL text):
//   lib_cold_1m       ComputeSkyline(kSfs) on 1M x 100-byte anti-correlated
//                     rows, one closed-loop caller alternating
//                     threads = min(nproc, 4) and threads = 1.
//   serve_read_100k   2 closed-loop clients, Zipf-skewed skyline SELECTs
//                     over a key population 4x the 64-entry result cache,
//                     against an anti-correlated (SFS route) and a
//                     correlated, z-ordered, indexed (BBS route) table.
//   serve_write_100k  a fixed count of single-row INSERT/DELETEs, each
//                     followed by one read of a cached skyline (a patched
//                     read), on the same server setup.
//
// Every workload reports every end-to-end metric. The two latency
// families are the workload's two request classes: "main" is the class the
// workload is built around (read: a cache hit; write: an INSERT/DELETE),
// "side" its companion (read: a cache miss; write: the read right after a
// write). lib_cold_1m has one steady class, the one-thread call, and
// reports it as both: its min(nproc, 4)-thread calls run and are printed,
// but their wall time follows the host's load, not the code. Latencies are
// gated on mean and p90, not p50: a small response waits for one or two
// 40 ms delayed-ACK stalls at close to even odds, so the median jumps
// between the two modes from run to run.
// The human-readable table printed before the result line gives every
// figure its class name (hit_p50_ms, write_p90_ms, ...).
//
// A traced run (--trace 1) also runs every request class in small numbers
// on every workload, times the benchmark's own calls into each module's
// public functions with TraceSpans, and reports the per-layer split.
//
// Correctness: every (table version, statement) the server answered is
// compared with a cold ComputeSkyline in canonical order with the same
// projection and LIMIT; library results are compared across thread
// settings and checked against an engine-independent dominance test.
// The last stdout line is the JSON result; any mismatch exits 1.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/exec_context.h"
#include "common/random.h"
#include "core/canonical_order.h"
#include "core/compute_skyline.h"
#include "core/maintenance.h"
#include "env/env.h"
#include "layer_trace.h"
#include "relation/column_store.h"
#include "relation/generator.h"
#include "server/server.h"
#include "sql/binder.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "wire_client.h"

namespace skyline::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload shape. Changing any of these changes what the benchmark
// measures; the baseline must be re-measured after such a change.

constexpr uint64_t kLibRows = 1'000'000;
constexpr uint64_t kServeRows = 100'000;
constexpr int kDims = 5;
// The paper's tuple width: 5 int32 attributes + 80-byte payload = 100 bytes.
constexpr size_t kPayloadBytes = 100 - kDims * 4;
// Rows the generator draws after the base rows; INSERTs take them in order.
constexpr uint64_t kInsertPool = 256;
constexpr int kSetupReps = 3;
// 4x the engine's default 64-entry result cache, requested with Zipf skew:
// every run has both hits and misses.
constexpr size_t kKeyPopulation = 256;
constexpr double kZipfExponent = 0.9;
constexpr int kReadClients = 2;
// Library calls per thread setting on the serve workloads' base table.
constexpr int kServeLibPairs = 6;
// Writes per serve_write_100k run: >= 10 samples beyond the p90.
constexpr int kWrites = 100;
// Cached skylines the writer's companion reader re-reads.
constexpr int kReaderKeys = 4;
constexpr int64_t kTimeoutMs = 120'000;
constexpr int kOracleWorkers = 4;
// Traced runs only: the small per-class sample run on every workload.
constexpr int kProbeReads = 16;
constexpr size_t kProbePopulation = 6;
constexpr int kProbeWrites = 2;
constexpr int kProbeReps = 3;
constexpr int kProbePings = 20;
constexpr size_t kProbeStatements = 24;
// |unattributed| / p50 above this is reported as not accounted for.
constexpr double kAttributionTolerance = 0.3;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (numpy's default); NaN when empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double total = 0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

std::vector<double> Scaled(const std::vector<double>& values, double factor) {
  std::vector<double> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(v * factor);
  return out;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(CPU_COUNT(&set));
}

size_t WideThreads() { return std::min<size_t>(AffinityCpus(), 4); }

/// Starts a new peak-RSS window (Linux clear_refs "5"), so the peak covers
/// the measured phase, not table generation or the correctness checks.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident memory since the last ResetPeakRss (VmHWM).
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "query_path_bench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) Fail(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
}

/// Runs job(i, worker) for i in [0, n) on `workers` threads.
void ParallelJobs(size_t n, int workers,
                  const std::function<void(size_t, int)>& job) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = next++; i < n; i = next++) job(i, w);
    });
  }
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Metrics output.

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char value[64];
      if (std::isfinite(e.value)) {
        std::snprintf(value, sizeof(value), "%.17g", e.value);
      } else {
        std::snprintf(value, sizeof(value), "null");
      }
      out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + value +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const Entry& e : entries_) {
      std::printf("  %-30s %16.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Tables.

/// A generated base table plus the rows its generator drew next, which the
/// write path inserts: inserted rows follow the base table's distribution.
struct BaseTable {
  std::optional<Table> table;
  std::vector<char> insert_pool;
};

BaseTable MakeBaseTable(Env* env, const std::string& path,
                        Distribution distribution, uint64_t rows,
                        uint64_t seed, bool cluster) {
  GeneratorOptions options;
  options.num_rows = rows + kInsertPool;
  options.num_attributes = kDims;
  options.payload_bytes = kPayloadBytes;
  options.distribution = distribution;
  options.seed = seed;
  const std::string generated_path = path + ".gen";
  Table generated =
      Check(GenerateTable(env, generated_path, options), "generate table");
  std::vector<char> all;
  Check(generated.ReadAllRows(&all), "read generated rows");
  const size_t width = generated.schema().row_width();

  const std::string base_path = cluster ? path + ".unclustered" : path;
  TableBuilder builder(env, base_path, generated.schema());
  Check(builder.Open(), "open base table");
  for (uint64_t r = 0; r < rows; ++r) {
    Check(builder.AppendRaw(all.data() + r * width), "append base row");
  }
  BaseTable out;
  out.table.emplace(Check(builder.Finish(), "finish base table"));
  out.insert_pool.assign(all.begin() + rows * width, all.end());
  Check(env->DeleteFile(generated_path), "delete generated table");
  if (cluster) {
    Table clustered =
        Check(ClusterTableZOrder(*out.table, path), "z-order cluster");
    out.table.emplace(std::move(clustered));
    Check(env->DeleteFile(base_path), "delete unclustered table");
  }
  return out;
}

std::vector<Criterion> AllMaxCriteria() {
  std::vector<Criterion> criteria;
  for (int d = 0; d < kDims; ++d) {
    criteria.push_back({"a" + std::to_string(d), Directive::kMax});
  }
  return criteria;
}

// ---------------------------------------------------------------------------
// Result rendering: served JSON rows and recomputed rows reduce to the same
// text, so equal results hash equal.

void AppendCell(std::string* out, const std::string& text, bool first) {
  if (!first) out->push_back('\x1f');
  out->append(text);
}

uint64_t HashJsonRows(const JsonValue& document) {
  std::string text;
  const JsonValue* rows = document.Find("rows");
  if (rows == nullptr || !rows->is_array()) return Fnv1a("no rows");
  for (const JsonValue& row : rows->array()) {
    bool first = true;
    for (const JsonValue& cell : row.array()) {
      if (cell.is_number()) {
        AppendCell(&text,
                   std::to_string(static_cast<int64_t>(cell.number_value())),
                   first);
      } else {
        AppendCell(&text, cell.string_value(), first);
      }
      first = false;
    }
    text.push_back('\x1e');
  }
  return Fnv1a(text);
}

uint64_t HashTableRows(const Schema& schema, const std::vector<char>& rows,
                       const std::vector<size_t>& projection,
                       std::optional<uint64_t> limit) {
  const size_t width = schema.row_width();
  size_t count = width == 0 ? 0 : rows.size() / width;
  if (limit.has_value()) count = std::min<size_t>(count, *limit);
  std::vector<size_t> columns = projection;
  if (columns.empty()) {
    for (size_t c = 0; c < schema.num_columns(); ++c) columns.push_back(c);
  }
  std::string text;
  for (size_t r = 0; r < count; ++r) {
    const RowView row(&schema, rows.data() + r * width);
    bool first = true;
    for (size_t c : columns) {
      switch (schema.column(c).type) {
        case ColumnType::kInt32:
          AppendCell(&text, std::to_string(row.GetInt32(c)), first);
          break;
        case ColumnType::kInt64:
          AppendCell(&text, std::to_string(row.GetInt64(c)), first);
          break;
        case ColumnType::kFixedString:
          AppendCell(&text, row.GetString(c), first);
          break;
        case ColumnType::kFloat64:
          AppendCell(&text, "float", first);  // not generated here
          break;
      }
      first = false;
    }
    text.push_back('\x1e');
  }
  return Fnv1a(text);
}

// ---------------------------------------------------------------------------
// Cold recompute: the oracle for served results, and the library call.

struct ColdResult {
  uint64_t hash = 0;
  SkylineRunStats stats;
};

/// Computes `sql`'s constrained skyline of `table` from scratch with
/// `algorithm` at one thread, puts it in canonical order, and hashes it
/// with the statement's projection and LIMIT applied.
ColdResult ColdRecompute(const Table& table, const std::string& sql,
                         SkylineAlgorithm algorithm,
                         const std::string& scratch, const LayerTrace& trace,
                         int64_t request_id) {
  SqlStatement statement = Check(ParseSql(sql), "parse oracle statement");
  const SelectStatement& select = std::get<SelectStatement>(statement);
  BoundSelect bound = Check(BindSelect(&table, select), "bind oracle");
  const SkylineSpec spec =
      Check(SkylineSpec::Make(table.schema(), select.skyline), "spec");
  ExecContext ctx;
  ctx.threads = 1;
  ctx.temp_prefix = scratch + ".tmp";
  SkylineComputeOptions options;
  options.constraint = bound.constraint;
  const std::string out_path = scratch + ".out";
  ColdResult out;
  std::vector<char> rows;
  {
    TraceSpan span = trace.Span("core.skyline", request_id);
    Table result = Check(ComputeSkyline(algorithm, table, spec, ctx, out_path,
                                        &out.stats, options),
                         "oracle ComputeSkyline");
    Check(result.ReadAllRows(&rows), "read oracle result");
  }
  Check(table.env()->DeleteFile(out_path), "delete oracle output");
  {
    TraceSpan span = trace.Span("core.canonical_sort", request_id);
    SortSkylineRowsCanonical(spec, &rows);
  }
  out.hash =
      HashTableRows(table.schema(), rows, bound.projection, bound.limit);
  return out;
}

/// Engine-independent check of an all-MAX skyline over a0..a{kDims-1}:
/// every member is an input row, sampled members dominate no member, and
/// sampled non-members are each dominated by some member.
bool CheckMaxSkyline(const Schema& schema, const std::vector<char>& input,
                     const std::vector<char>& skyline, uint64_t seed,
                     std::string* why) {
  const size_t width = schema.row_width();
  auto values = [&](const char* row) {
    std::array<int32_t, kDims> v;
    for (int d = 0; d < kDims; ++d) {
      std::memcpy(&v[d], row + schema.offset(d), sizeof(int32_t));
    }
    return v;
  };
  auto dominates = [](const std::array<int32_t, kDims>& p,
                      const std::array<int32_t, kDims>& q) {
    bool better = false;
    for (int d = 0; d < kDims; ++d) {
      if (p[d] < q[d]) return false;
      if (p[d] > q[d]) better = true;
    }
    return better;
  };
  const size_t members = skyline.size() / width;
  std::vector<std::array<int32_t, kDims>> member_values;
  std::unordered_set<std::string_view> member_rows;
  for (size_t i = 0; i < members; ++i) {
    member_values.push_back(values(skyline.data() + i * width));
    member_rows.insert(std::string_view(skyline.data() + i * width, width));
  }
  std::unordered_set<std::string_view> found;
  std::vector<size_t> non_members;
  for (size_t r = 0; r < input.size() / width; ++r) {
    const std::string_view row(input.data() + r * width, width);
    if (member_rows.count(row)) {
      found.insert(row);
    } else {
      non_members.push_back(r);
    }
  }
  if (found.size() != member_rows.size()) {
    *why = "a skyline row is not an input row";
    return false;
  }
  Random rng(seed);
  for (int s = 0; s < 500 && members > 0; ++s) {
    const auto& p = member_values[rng.Uniform(members)];
    for (const auto& q : member_values) {
      if (dominates(q, p)) {
        *why = "a skyline member is dominated by another member";
        return false;
      }
    }
  }
  for (int s = 0; s < 1000 && !non_members.empty(); ++s) {
    const auto q = values(input.data() +
                          non_members[rng.Uniform(non_members.size())] * width);
    bool dominated = false;
    for (const auto& p : member_values) {
      if (dominates(p, q)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      *why = "an input row outside the skyline is not dominated";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Library phase.

struct LibCall {
  size_t threads = 1;
  double wall = 0;
  bool traced = false;
  SkylineRunStats stats;
  uint64_t hash = 0;
};

/// One ComputeSkyline(kSfs) call on the full all-MAX spec; the output is
/// hashed in canonical order so every call can be compared.
LibCall LibOnce(const Table& table, const SkylineSpec& spec, size_t threads,
                const std::string& scratch, const LayerTrace& trace,
                int64_t request_id, std::vector<char>* rows_out = nullptr) {
  LibCall call;
  call.threads = threads;
  call.traced = request_id >= 0;
  ExecContext ctx;
  ctx.threads = threads;
  ctx.temp_prefix = scratch + ".tmp";
  const std::string out_path = scratch + ".out";
  const auto start = Clock::now();
  std::optional<Table> result;
  {
    TraceSpan span = trace.Span("core.compute", request_id);
    result.emplace(Check(ComputeSkyline(SkylineAlgorithm::kSfs, table, spec,
                                        ctx, out_path, &call.stats),
                         "ComputeSkyline"));
  }
  call.wall = SecondsSince(start);
  std::vector<char> rows;
  Check(result->ReadAllRows(&rows), "read skyline");
  Check(table.env()->DeleteFile(out_path), "delete skyline output");
  SortSkylineRowsCanonical(spec, &rows);
  call.hash = Fnv1a(std::string_view(rows.data(), rows.size()));
  if (rows_out != nullptr) *rows_out = std::move(rows);
  return call;
}

struct LibPhase {
  std::vector<LibCall> calls;
  double busy_seconds = 0;
  double peak_rss_mib = 0;
  bool correct = true;
  std::string why;
};

/// Alternates threads = min(nproc, 4) and threads = 1 until `seconds` have
/// passed (at least `min_pairs` pairs), then checks every result equal and
/// the result correct against the engine-independent dominance test.
LibPhase RunLib(const Table& table, const std::string& scratch,
                double seconds, int min_pairs, uint64_t seed,
                const LayerTrace& trace, std::atomic<int64_t>* request_ids) {
  const SkylineSpec spec =
      Check(SkylineSpec::Make(table.schema(), AllMaxCriteria()), "lib spec");
  LibPhase phase;
  // One untimed pair first: the first calls after set-up run measurably
  // slower than later ones, which is not what a steady caller sees.
  for (size_t threads : {WideThreads(), size_t{1}}) {
    LibOnce(table, spec, threads, scratch, LayerTrace(false), -1);
  }
  const auto start = Clock::now();
  // The last call's rows are kept for the dominance check.
  std::vector<char> skyline;
  for (int pair = 0; pair < min_pairs || SecondsSince(start) < seconds;
       ++pair) {
    for (size_t threads : {WideThreads(), size_t{1}}) {
      const int64_t id = (*request_ids)++;
      // Traced runs trace every other pair: the rest measure the overhead.
      const bool traced = trace.enabled() && pair % 2 == 1;
      phase.calls.push_back(LibOnce(table, spec, threads, scratch, trace,
                                    traced ? id : -1, &skyline));
    }
  }
  phase.busy_seconds = SecondsSince(start);
  phase.peak_rss_mib = PeakRssMiB();
  for (const LibCall& call : phase.calls) {
    if (call.hash != phase.calls.back().hash) {
      phase.correct = false;
      phase.why = "library results differ across calls";
    }
  }
  std::vector<char> input;
  Check(table.ReadAllRows(&input), "read lib input");
  std::string why;
  if (!CheckMaxSkyline(table.schema(), input, skyline, seed, &why)) {
    phase.correct = false;
    phase.why = why;
  }
  return phase;
}

// ---------------------------------------------------------------------------
// The served engine.

struct ServeState {
  std::unique_ptr<Env> env;
  std::string data_dir;
  std::map<std::string, std::vector<char>> insert_pools;
  std::unique_ptr<Engine> engine;
  // Declared after the engine: destroyed (and stopped) first.
  std::unique_ptr<SkylineServer> server;
};

/// Registers `tables` with a fresh engine over `data_dir` (the engine
/// writes the column-file and block-index sidecars) and starts a server
/// on an ephemeral loopback port with session defaults except
/// algorithm = kAuto.
std::unique_ptr<ServeState> StartServe(
    std::unique_ptr<Env> env, const std::string& data_dir,
    std::vector<std::pair<std::string, BaseTable>> tables) {
  auto state = std::make_unique<ServeState>();
  state->env = std::move(env);
  state->data_dir = data_dir;
  Engine::Options engine_options;
  engine_options.env = state->env.get();
  engine_options.data_prefix = data_dir;
  state->engine = std::make_unique<Engine>(engine_options);
  for (auto& [name, base] : tables) {
    state->insert_pools[name] = std::move(base.insert_pool);
    Check(state->engine->CreateTable(name, std::move(*base.table)),
          "create table");
  }
  SkylineServer::Options server_options;
  server_options.engine = state->engine.get();
  server_options.session.algorithm = SkylineAlgorithm::kAuto;
  state->server = std::make_unique<SkylineServer>(server_options);
  Check(state->server->Start(), "start server");
  return state;
}

/// Loads each table's sidecars into the zone cache: one 5-criterion query
/// per table through the server, whose predicate (a0 > min) no statement of
/// the read mix uses, so it fills no key the mix requests.
void WarmUp(const ServeState& state) {
  WireClient client;
  Check(client.Connect(state.server->port()), "connect warm-up");
  for (const std::string& name : state.engine->TableNames()) {
    const auto table = Check(state.engine->Snapshot(name), "snapshot").table;
    std::string criteria;
    for (const Criterion& c : AllMaxCriteria()) {
      criteria += (criteria.empty() ? "" : ", ") + c.column + " MAX";
    }
    std::string payload;
    Check(client.RoundTrip(
              QueryRequest("SELECT a0 FROM " + name + " WHERE a0 > " +
                               std::to_string(static_cast<int64_t>(
                                   table->stats(0).min)) +
                               " SKYLINE OF " + criteria + " LIMIT 1",
                           kTimeoutMs),
              &payload),
          "warm-up query");
  }
}

std::shared_ptr<const Table> CurrentTable(const ServeState& state,
                                          const std::string& name) {
  return Check(state.engine->Snapshot(name), "snapshot").table;
}

// ---------------------------------------------------------------------------
// Statements.

struct Statement {
  std::string table;
  std::string sql;
};

std::string IntText(double v) {
  return std::to_string(static_cast<int64_t>(std::llround(v)));
}

/// The shape of one statement: which table, how many criteria, whether a
/// WHERE predicate, which projection, which LIMIT.
struct Shape {
  int table = 0;       // index into the population's tables
  int criteria = 3;    // 3..5 of a0..a4
  int where = 0;       // 0 none, 1 lower bound, 2 upper bound, 3 box
  int projection = 0;  // 0 *, 1 criteria columns, 2 criteria + payload
  int limit = 0;       // index into kLimits
  // All criteria MIN or all MAX: on anti-correlated data the large, slow
  // skylines; mixed directions make some attributes correlated and the
  // skyline small. Always set on the correlated table.
  bool one_direction = false;
};

constexpr int kLimits[] = {0, 10, 100, 1000};  // 0 = no LIMIT

/// Shapes by popularity rank: each property follows its own Weyl sequence
/// (a seeded offset plus rank times an irrational step), so every run of
/// consecutive ranks — the hot keys in particular — covers each property's
/// values evenly whatever the seed. Seeds change which columns, directions
/// and bounds a statement uses, not the mix of shapes the cache sees.
Shape ShapeOfRank(size_t rank, size_t tables, const double offsets[6]) {
  static constexpr double kSteps[6] = {0.41421356237, 0.73205080757,
                                       0.23606797750, 0.64575131106,
                                       0.31662479036, 0.12310562562};
  auto pick = [&](int property, int values) {
    const double x =
        offsets[property] + static_cast<double>(rank) * kSteps[property];
    return static_cast<int>((x - std::floor(x)) * values);
  };
  Shape shape;
  shape.table = pick(0, static_cast<int>(tables));
  shape.criteria = 3 + pick(1, 3);
  shape.where = pick(2, 6);  // half of the statements carry a predicate
  if (shape.where > 3) shape.where = 0;
  shape.projection = pick(3, 3);
  shape.limit = pick(4, 4);
  shape.one_direction = pick(5, 3) == 0;
  return shape;
}

/// One skyline SELECT of `shape`: a random subset of a0..a4 with MIN/MAX
/// each, an optional pushable WHERE on a criterion column, the projection
/// and the LIMIT. Returns the cache-key part (table, criteria, predicate)
/// in `key`.
Statement MakeStatement(Random* rng, const Shape& shape,
                        const std::string& table_name, const Table& table,
                        std::string* key) {
  std::vector<int> dims = {0, 1, 2, 3, 4};
  for (int i = kDims - 1; i > 0; --i) {
    std::swap(dims[i], dims[rng->Uniform(i + 1)]);
  }
  dims.resize(shape.criteria);
  std::sort(dims.begin(), dims.end());
  // On the correlated table a user asks for "good on every criterion", so
  // all criteria share one direction (the BBS route's small skylines).
  const bool one_direction = table_name == "corr" || shape.one_direction;
  std::vector<bool> max(dims.size(), rng->OneIn(0.5));
  auto mixed = [&] {
    const size_t n = static_cast<size_t>(std::count(max.begin(), max.end(), true));
    return n > 0 && n < max.size();
  };
  while (!one_direction && !mixed()) {
    for (size_t i = 0; i < max.size(); ++i) max[i] = rng->OneIn(0.5);
  }
  std::string criteria;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (!criteria.empty()) criteria += ", ";
    criteria += "a" + std::to_string(dims[i]) + (max[i] ? " MAX" : " MIN");
  }
  std::string where;
  if (shape.where != 0) {
    const int d = dims[rng->Uniform(dims.size())];
    const ColumnStats& stats = table.stats(d);
    const double span = stats.max - stats.min;
    const std::string col = "a" + std::to_string(d);
    const std::string lo =
        col + " >= " + IntText(stats.min + (0.05 + 0.4 * rng->UniformDouble()) * span);
    const std::string hi =
        col + " <= " + IntText(stats.min + (0.55 + 0.4 * rng->UniformDouble()) * span);
    where = " WHERE " + (shape.where == 1   ? lo
                         : shape.where == 2 ? hi
                                            : lo + " AND " + hi);
  }
  std::string projection = "*";
  if (shape.projection > 0) {
    projection.clear();
    for (int d : dims) {
      projection += (projection.empty() ? "a" : ", a") + std::to_string(d);
    }
    if (shape.projection == 2) projection += ", payload";
  }
  const std::string limit =
      kLimits[shape.limit] == 0
          ? ""
          : " LIMIT " + std::to_string(kLimits[shape.limit]);
  *key = table_name + "|" + criteria + "|" + where;
  return {table_name, "SELECT " + projection + " FROM " + table_name + where +
                          " SKYLINE OF " + criteria + limit};
}

/// `count` statements with distinct cache keys over `tables`, in
/// popularity-rank order.
std::vector<Statement> MakePopulation(
    Random* rng, const ServeState& state,
    const std::vector<std::string>& tables, size_t count) {
  double offsets[6];
  for (double& offset : offsets) offset = rng->UniformDouble();
  std::vector<Statement> population;
  std::set<std::string> keys;
  for (size_t attempt = 0; population.size() < count; ++attempt) {
    const Shape shape = ShapeOfRank(attempt, tables.size(), offsets);
    const std::string& name = tables[shape.table];
    std::string key;
    Statement statement =
        MakeStatement(rng, shape, name, *CurrentTable(state, name), &key);
    if (keys.insert(key).second) population.push_back(std::move(statement));
  }
  return population;
}

/// Full-row skyline reads of the write table, one per distinct criteria
/// set: the cached skylines the writer's companion reader re-reads.
std::vector<Statement> MakeReaderStatements(Random* rng,
                                            const std::string& table,
                                            int count) {
  std::vector<Statement> statements;
  std::set<std::string> seen;
  while (static_cast<int>(statements.size()) < count) {
    std::string criteria;
    const int skip = static_cast<int>(rng->Uniform(kDims + 1));  // 5 = none
    for (int d = 0; d < kDims; ++d) {
      if (d == skip) continue;
      if (!criteria.empty()) criteria += ", ";
      criteria +=
          "a" + std::to_string(d) + (rng->OneIn(0.5) ? " MAX" : " MIN");
    }
    if (!seen.insert(criteria).second) continue;
    statements.push_back(
        {table, "SELECT * FROM " + table + " SKYLINE OF " + criteria});
  }
  return statements;
}

/// Zipf(kZipfExponent) over ranks; rank r is population[r].
class ZipfPicker {
 public:
  explicit ZipfPicker(size_t n) {
    double total = 0;
    for (size_t r = 1; r <= n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Pick(Random* rng) const {
    const double u = rng->UniformDouble();
    return std::min<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Served responses and their oracle check.

/// Response hashes per (statement, table version), with the table
/// snapshot each version was served from.
class ServedResults {
 public:
  void Record(size_t statement, std::shared_ptr<const Table> table,
              uint64_t version, uint64_t hash) {
    std::lock_guard<std::mutex> lock(mu_);
    Key& key = keys_[{statement, version}];
    key.table = std::move(table);
    ++key.hashes[hash];
  }

  /// Recomputes every distinct (statement, version) cold and relabels each
  /// response whose rows differ as an oracle mismatch. Returns the
  /// mismatching responses.
  uint64_t Verify(const std::vector<Statement>& statements,
                  const std::string& scratch, OutcomeCounts* counts) {
    std::vector<std::pair<const std::pair<size_t, uint64_t>, Key>*> jobs;
    for (auto& entry : keys_) jobs.push_back(&entry);
    std::atomic<uint64_t> mismatches{0};
    ParallelJobs(jobs.size(), kOracleWorkers, [&](size_t i, int worker) {
      auto& [id, key] = *jobs[i];
      const ColdResult expected = ColdRecompute(
          *key.table, statements[id.first].sql, SkylineAlgorithm::kSfs,
          scratch + "_oracle" + std::to_string(worker), LayerTrace(false), -1);
      for (const auto& [hash, count] : key.hashes) {
        if (hash != expected.hash) mismatches += count;
      }
    });
    for (uint64_t i = 0; i < mismatches; ++i) counts->MarkMismatch();
    return mismatches;
  }

  size_t distinct() const { return keys_.size(); }

 private:
  struct Key {
    std::shared_ptr<const Table> table;
    std::map<uint64_t, uint64_t> hashes;
  };
  std::mutex mu_;
  std::map<std::pair<size_t, uint64_t>, Key> keys_;
};

struct ReadSample {
  size_t statement = 0;
  std::string label;
  double rtt = 0;
  double exec = 0;
  size_t bytes = 0;
  bool traced = false;
};

struct ReadPhase {
  std::vector<ReadSample> samples;
  OutcomeCounts counts;
  double busy_seconds = 0;
  Engine::CacheCounters cache_before;
  Engine::CacheCounters cache_after;
};

/// Closed-loop readers: each client sends its next Zipf-drawn statement
/// when the previous response has arrived, until `seconds` have passed
/// (or, with `max_requests` > 0, that many requests in total).
ReadPhase RunReads(const ServeState& state,
                   const std::vector<Statement>& population, int clients,
                   double seconds, int max_requests, uint64_t seed,
                   const LayerTrace& trace, std::atomic<int64_t>* request_ids,
                   ServedResults* served) {
  ReadPhase phase;
  phase.cache_before = state.engine->cache_counters();
  const ZipfPicker zipf(population.size());
  std::vector<std::string> requests;
  std::map<std::string, std::shared_ptr<const Table>> tables;
  for (const Statement& s : population) {
    requests.push_back(QueryRequest(s.sql, kTimeoutMs));
    tables[s.table] = CurrentTable(state, s.table);
  }
  std::mutex mu;
  std::atomic<int> issued{0};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Random rng(seed * 7919 + static_cast<uint64_t>(c) + 1);
      WireClient client;
      (void)client.Connect(state.server->port());
      std::vector<ReadSample> samples;
      OutcomeCounts counts;
      std::string payload;
      while (true) {
        if (max_requests > 0 ? issued++ >= max_requests
                             : SecondsSince(start) >= seconds) {
          break;
        }
        const size_t s = zipf.Pick(&rng);
        const int64_t id = (*request_ids)++;
        const bool traced = trace.enabled() && id % 2 == 1;
        const auto sent = Clock::now();
        Status io;
        {
          TraceSpan span = trace.Span("server.frame", traced ? id : -1);
          io = client.RoundTrip(requests[s], &payload);
        }
        const double rtt = SecondsSince(sent);
        const QueryResponse response = ParseQueryResponse(io, payload);
        counts.Add(response.outcome, response.error_code);
        if (response.outcome != OpOutcome::kOk) continue;
        samples.push_back({s, response.cache_label, rtt,
                           response.exec_seconds, response.response_bytes,
                           traced});
        served->Record(s, tables.at(population[s].table), 1,
                       HashJsonRows(response.document));
      }
      std::lock_guard<std::mutex> lock(mu);
      phase.samples.insert(phase.samples.end(), samples.begin(),
                           samples.end());
      phase.counts.Merge(counts);
    });
  }
  for (std::thread& t : threads) t.join();
  phase.busy_seconds = SecondsSince(start);
  phase.cache_after = state.engine->cache_counters();
  return phase;
}

// ---------------------------------------------------------------------------
// Writes beside reads.

using RowKey = std::array<int32_t, 3>;

struct RowKeyHash {
  size_t operator()(const RowKey& k) const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(k[0]) << 32) ^
                                 static_cast<uint32_t>(k[1]) ^
                                 (static_cast<uint64_t>(k[2]) << 17));
  }
};

RowKey KeyOfRow(const Schema& schema, const char* row) {
  const RowView view(&schema, row);
  return {view.GetInt32(0), view.GetInt32(1), view.GetInt32(2)};
}

std::string InsertSql(const std::string& table, const Schema& schema,
                      const char* row) {
  const RowView view(&schema, row);
  std::string sql = "INSERT INTO " + table + " VALUES (";
  for (int d = 0; d < kDims; ++d) {
    sql += std::to_string(view.GetInt32(d)) + ", ";
  }
  return sql + "'" + view.GetString(kDims) + "')";
}

std::string DeleteSql(const std::string& table, const RowKey& key) {
  return "DELETE FROM " + table + " WHERE a0 = " + std::to_string(key[0]) +
         " AND a1 = " + std::to_string(key[1]) +
         " AND a2 = " + std::to_string(key[2]);
}

struct WritePhase {
  std::vector<double> write_rtt, write_exec, read_rtt;
  std::vector<bool> write_traced;
  OutcomeCounts counts;
  double busy_seconds = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t member_deletes = 0;
  uint64_t entries_patched = 0;
  uint64_t entries_repaired = 0;
  uint64_t entries_invalidated = 0;
  uint64_t bytes_before = 0;
  uint64_t bytes_after = 0;
  /// Writes whose rows_affected was not 1.
  uint64_t wrong_writes = 0;
};

double ReportNumber(const JsonValue& document, const char* name) {
  const JsonValue* report = document.Find("report");
  const JsonValue* numbers = report ? report->Find("numbers") : nullptr;
  return numbers ? numbers->GetNumber(name, 0) : 0;
}

/// Lockstep writer and reader on two connections: each single-row write
/// (half INSERTs of the generator's next rows, half DELETEs, half of those
/// aimed at a current skyline member) is followed by one read of a cached
/// skyline, served patched from the cache.
WritePhase RunWrites(ServeState* state, const std::string& table_name,
                     const std::vector<Statement>& readers,
                     size_t reader_offset, int writes, uint64_t seed,
                     const LayerTrace& trace,
                     std::atomic<int64_t>* request_ids,
                     ServedResults* served) {
  WritePhase phase;
  Random rng(seed * 104729 + 17);
  WireClient writer;
  WireClient reader;
  Check(writer.Connect(state->server->port()), "connect writer");
  Check(reader.Connect(state->server->port()), "connect reader");
  std::shared_ptr<const Table> table = CurrentTable(*state, table_name);
  const Schema schema = table->schema();
  const size_t width = schema.row_width();
  const std::vector<char>& pool = state->insert_pools[table_name];
  size_t next_insert = 0;

  std::vector<char> rows;
  Check(table->ReadAllRows(&rows), "read write table");
  std::unordered_set<RowKey, RowKeyHash> live;
  std::vector<RowKey> live_list;
  for (size_t r = 0; r < rows.size() / width; ++r) {
    live.insert(KeyOfRow(schema, rows.data() + r * width));
    live_list.push_back(KeyOfRow(schema, rows.data() + r * width));
  }
  // Latest members of each reader skyline, from its last response.
  std::vector<std::vector<RowKey>> members(readers.size());
  std::string payload;
  auto read = [&](size_t r, uint64_t version, double* rtt) {
    const auto sent = Clock::now();
    const Status io = reader.RoundTrip(QueryRequest(readers[r].sql,
                                                    kTimeoutMs),
                                       &payload);
    *rtt = SecondsSince(sent);
    const QueryResponse response = ParseQueryResponse(io, payload);
    phase.counts.Add(response.outcome, response.error_code);
    if (response.outcome != OpOutcome::kOk) return false;
    served->Record(reader_offset + r, CurrentTable(*state, table_name),
                   version, HashJsonRows(response.document));
    members[r].clear();
    if (const JsonValue* got = response.document.Find("rows")) {
      for (const JsonValue& row : got->array()) {
        members[r].push_back(
            {static_cast<int32_t>(row.array()[0].number_value()),
             static_cast<int32_t>(row.array()[1].number_value()),
             static_cast<int32_t>(row.array()[2].number_value())});
      }
    }
    return true;
  };
  // Fill the cache with the reader skylines (untimed).
  uint64_t version = Check(state->engine->Snapshot(table_name), "snapshot")
                         .version;
  for (size_t r = 0; r < readers.size(); ++r) {
    double rtt = 0;
    read(r, version, &rtt);
  }

  // A fixed mix in seeded order — half INSERTs, a quarter DELETEs aimed at
  // a skyline member, a quarter at any live row — so runs differ in which
  // rows they touch, not in how many of each kind.
  enum Op { kInsert, kDeleteMember, kDeleteAny };
  std::vector<Op> schedule;
  const int inserts = writes / 2;
  const int member_deletes = (writes - inserts + 1) / 2;
  for (int w = 0; w < writes; ++w) {
    schedule.push_back(w < inserts ? kInsert
                       : w < inserts + member_deletes ? kDeleteMember
                                                       : kDeleteAny);
  }
  for (int w = writes - 1; w > 0; --w) {
    std::swap(schedule[w], schedule[rng.Uniform(w + 1)]);
  }

  phase.bytes_before = DirectoryBytes(state->data_dir);
  const auto start = Clock::now();
  for (int w = 0; w < writes; ++w) {
    std::string sql;
    const bool is_insert = schedule[w] == kInsert;
    RowKey target{};
    if (is_insert) {
      const char* row = pool.data() + next_insert++ * width;
      sql = InsertSql(table_name, schema, row);
      target = KeyOfRow(schema, row);
    } else {
      const std::vector<RowKey>& list = members[rng.Uniform(members.size())];
      const bool member = schedule[w] == kDeleteMember && !list.empty();
      // The member list can be a few writes old: skip rows already gone,
      // and fall back to any live row if the list has run dry.
      for (int attempt = 0;; ++attempt) {
        target = member && attempt < 64
                     ? list[rng.Uniform(list.size())]
                     : live_list[rng.Uniform(live_list.size())];
        if (live.count(target)) break;
      }
      sql = DeleteSql(table_name, target);
    }
    const int64_t id = (*request_ids)++;
    const bool traced = trace.enabled() && w % 2 == 1;
    const auto sent = Clock::now();
    Status io;
    {
      TraceSpan span = trace.Span("server.frame", traced ? id : -1);
      io = writer.RoundTrip(QueryRequest(sql, kTimeoutMs), &payload);
    }
    const double rtt = SecondsSince(sent);
    const QueryResponse response = ParseQueryResponse(io, payload);
    phase.counts.Add(response.outcome, response.error_code);
    if (response.outcome != OpOutcome::kOk) continue;
    if (response.rows_affected != 1) {
      std::fprintf(stderr, "write affected %" PRIu64 " rows: %s\n",
                   response.rows_affected, sql.c_str());
      phase.counts.MarkMismatch();
      ++phase.wrong_writes;
    }
    phase.write_rtt.push_back(rtt);
    phase.write_exec.push_back(response.exec_seconds);
    phase.write_traced.push_back(traced);
    version = response.table_version;
    const uint64_t repaired = static_cast<uint64_t>(
        ReportNumber(response.document, "entries_repaired"));
    phase.entries_patched += static_cast<uint64_t>(
        ReportNumber(response.document, "entries_patched"));
    phase.entries_repaired += repaired;
    phase.entries_invalidated += static_cast<uint64_t>(
        ReportNumber(response.document, "entries_invalidated"));
    if (is_insert) {
      ++phase.inserts;
      live.insert(target);
      live_list.push_back(target);
    } else {
      ++phase.deletes;
      if (repaired > 0) ++phase.member_deletes;
      live.erase(target);
    }
    double read_rtt = 0;
    if (read(static_cast<size_t>(w) % readers.size(), version, &read_rtt)) {
      phase.read_rtt.push_back(read_rtt);
    }
  }
  phase.busy_seconds = SecondsSince(start);
  phase.bytes_after = DirectoryBytes(state->data_dir);
  return phase;
}

// ---------------------------------------------------------------------------
// Traced-run layer probes: the benchmark's own calls into each module's
// public functions, on the live engine for read-only calls and on its own
// copy of the table in a separate env for everything that writes.

struct ProbeResult {
  std::vector<double> ping_rtt;
  std::map<std::string, double> route_counts;
  uint64_t bbs_blocks = 0;
  uint64_t bbs_blocks_skipped = 0;
};

void ProbePing(const ServeState& state, const LayerTrace& trace,
               std::atomic<int64_t>* request_ids, ProbeResult* out) {
  WireClient client;
  Check(client.Connect(state.server->port()), "connect ping");
  std::string payload;
  for (int i = 0; i < kProbePings; ++i) {
    const auto sent = Clock::now();
    {
      TraceSpan span = trace.Span("server.ping", (*request_ids)++);
      Check(client.RoundTrip("{\"op\": \"ping\"}", &payload), "ping");
    }
    out->ping_rtt.push_back(SecondsSince(sent));
  }
}

/// Parse, bind and cache lookup of served statements, most requested first.
void ProbeSql(const ServeState& state, const std::vector<Statement>& population,
              const std::vector<size_t>& order, const LayerTrace& trace,
              std::atomic<int64_t>* request_ids) {
  SqlOptions options;
  options.algorithm = SkylineAlgorithm::kAuto;
  for (size_t i = 0; i < std::min(order.size(), kProbeStatements); ++i) {
    const Statement& statement = population[order[i]];
    const int64_t id = (*request_ids)++;
    std::optional<SqlStatement> parsed;
    {
      TraceSpan span = trace.Span("sql.parse", id);
      parsed.emplace(Check(ParseSql(statement.sql), "probe parse"));
    }
    const SelectStatement& select = std::get<SelectStatement>(*parsed);
    const std::shared_ptr<const Table> table =
        CurrentTable(state, statement.table);
    std::optional<BoundSelect> bound;
    {
      TraceSpan span = trace.Span("sql.bind", id);
      bound.emplace(Check(BindSelect(table.get(), select), "probe bind"));
    }
    // The first lookup fills the entry if it was evicted; the second is
    // the timed hit.
    bool hit = false;
    Check(state.engine->QuerySkyline(statement.table, select.skyline,
                                     bound->constraint, options, &hit),
          "probe fill");
    TraceSpan span = trace.Span("sql.cache_lookup", id);
    Check(state.engine->QuerySkyline(statement.table, select.skyline,
                                     bound->constraint, options, &hit),
          "probe lookup");
  }
}

/// Recomputes served misses through kAuto at the session's thread setting
/// to see the route each took, its compute time and canonical ordering.
void ProbeRoutes(const ServeState& state,
                 const std::vector<Statement>& population,
                 const std::vector<size_t>& misses, const std::string& scratch,
                 const LayerTrace& trace, std::atomic<int64_t>* request_ids,
                 ProbeResult* out) {
  for (size_t i = 0; i < std::min(misses.size(), kProbeStatements); ++i) {
    const Statement& statement = population[misses[i]];
    const std::shared_ptr<const Table> table =
        CurrentTable(state, statement.table);
    const ColdResult result =
        ColdRecompute(*table, statement.sql, SkylineAlgorithm::kAuto,
                      scratch + "_route", trace, (*request_ids)++);
    const std::string path = result.stats.access_path;
    const std::string route =
        path == "bbs" ? "bbs"
                      : (path.rfind("special", 0) == 0 ? "special" : "sfs");
    out->route_counts[route] += 1;
    if (route == "bbs") {
      out->bbs_blocks += (table->row_count() + 63) / 64;
      out->bbs_blocks_skipped += result.stats.index_blocks_skipped;
    }
  }
}

/// The write path's pieces, each on the benchmark's own copy: read all
/// rows, rewrite them, rebuild sidecars, patch the reader skylines, and
/// Engine::InsertRows / DeleteWhere on a private engine.
void ProbeWritePath(const ServeState& state, const std::string& table_name,
                    const std::vector<Statement>& readers,
                    const std::string& dir, const LayerTrace& trace,
                    std::atomic<int64_t>* request_ids) {
  fs::create_directories(dir);
  std::unique_ptr<Env> env = NewPosixEnv();
  const std::shared_ptr<const Table> live = CurrentTable(state, table_name);
  const Schema schema = live->schema();
  const size_t width = schema.row_width();
  const std::vector<char>& pool = state.insert_pools.at(table_name);

  // At 1M rows each sidecar rebuild takes seconds: one repetition there.
  const int reps = live->row_count() >= kLibRows ? 1 : kProbeReps;
  std::vector<char> rows;
  std::optional<Table> copy;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t id = (*request_ids)++;
    {
      TraceSpan span = trace.Span("storage.read_all", id);
      Check(live->ReadAllRows(&rows), "probe read all");
    }
    const std::string path = dir + "/copy" + std::to_string(rep);
    {
      TraceSpan span = trace.Span("relation.rewrite", id);
      TableBuilder builder(env.get(), path, schema);
      Check(builder.Open(), "probe rewrite open");
      for (size_t r = 0; r < rows.size() / width; ++r) {
        Check(builder.AppendRaw(rows.data() + r * width), "probe rewrite");
      }
      copy.emplace(Check(builder.Finish(), "probe rewrite finish"));
    }
    {
      TraceSpan span = trace.Span("relation.sidecar", id);
      Check(WriteTableColumnFile(*copy), "probe column file");
      Check(WriteTableBlockIndex(*copy), "probe block index");
    }
  }

  // A private engine over the last copy, its cache holding the reader
  // skylines, as the live one does.
  Engine::Options options;
  options.env = env.get();
  options.data_prefix = dir;
  Engine engine(options);
  Check(engine.CreateTable(table_name, std::move(*copy)), "probe engine");
  SqlOptions sql_options;
  sql_options.algorithm = SkylineAlgorithm::kAuto;
  std::vector<std::vector<Criterion>> criteria;
  for (const Statement& reader : readers) {
    SqlStatement parsed = Check(ParseSql(reader.sql), "parse reader");
    criteria.push_back(std::get<SelectStatement>(parsed).skyline);
    Check(engine.QuerySkyline(table_name, criteria.back(),
                              SkylineConstraint(), sql_options, nullptr),
          "probe fill reader");
  }
  const ExecContext ctx;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t id = (*request_ids)++;
    const char* insert_row = pool.data() + (kInsertPool - 1 - rep) * width;
    // Maintenance alone: adopt each cached skyline, offer the new row,
    // remove a member.
    std::vector<std::shared_ptr<const Engine::CachedSkyline>> entries;
    for (const auto& c : criteria) {
      entries.push_back(Check(engine.QuerySkyline(table_name, c,
                                                  SkylineConstraint(),
                                                  sql_options, nullptr),
                              "probe entry"));
    }
    {
      TraceSpan span = trace.Span("core.maintain", id);
      for (const auto& entry : entries) {
        SkylineMaintainer maintainer = SkylineMaintainer::FromComputedSkyline(
            entry->spec.get(), entry->rows.data(), entry->count);
        maintainer.Insert(insert_row);
        if (entry->count > 0) maintainer.Remove(entry->rows.data());
      }
    }
    const std::vector<char> insert(insert_row, insert_row + width);
    {
      TraceSpan span = trace.Span("sql.insert", id);
      Check(engine.InsertRows(table_name, insert, ctx), "probe insert");
    }
    // Delete a member of the first reader skyline.
    const auto& entry = entries.front();
    const RowKey key = KeyOfRow(schema, entry->rows.data());
    std::vector<SqlPredicate> predicates;
    for (int d = 0; d < 3; ++d) {
      predicates.push_back({"a" + std::to_string(d), CompareOp::kEq,
                            static_cast<double>(key[d])});
    }
    {
      TraceSpan span = trace.Span("sql.delete", id);
      Check(engine.DeleteWhere(table_name, predicates, ctx), "probe delete");
    }
  }
}

// ---------------------------------------------------------------------------
// Workloads.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_work";
};

struct RunOutput {
  MetricList end_to_end;
  MetricList per_layer;
  MetricList class_names;  // end-to-end metrics under their class names
  OutcomeCounts counts;
  bool correct = true;
  std::vector<std::string> notes;
  std::map<std::string, std::string> config;
};

/// Per-layer metrics shared by every workload's traced run.
struct LayerInputs {
  const LibPhase* lib = nullptr;
  const ReadPhase* reads = nullptr;
  const WritePhase* writes = nullptr;
  const ProbeResult* probe = nullptr;
  const LayerTrace* trace = nullptr;
  double main_overhead_ms = 0;
};

std::vector<double> LibWalls(const LibPhase& lib, size_t threads,
                             std::optional<bool> traced = std::nullopt) {
  std::vector<double> out;
  for (const LibCall& call : lib.calls) {
    if (call.threads != threads) continue;
    if (traced.has_value() && call.traced != *traced) continue;
    out.push_back(call.wall);
  }
  return out;
}

std::vector<double> ReadField(const ReadPhase& reads, const std::string& label,
                              double ReadSample::*field) {
  std::vector<double> out;
  for (const ReadSample& s : reads.samples) {
    if (s.label == label) out.push_back(s.*field);
  }
  return out;
}

std::vector<double> ReadWire(const ReadPhase& reads, const std::string& label) {
  std::vector<double> out;
  for (const ReadSample& s : reads.samples) {
    if (s.label == label) out.push_back(s.rtt - s.exec);
  }
  return out;
}

/// Time to open and record one span, measured on a private sink.
double SpanCostSeconds() {
  constexpr int kSpans = 20000;
  TraceSink sink(kSpans);
  const auto start = Clock::now();
  for (int i = 0; i < kSpans; ++i) TraceSpan span(&sink, "server.frame", i);
  return SecondsSince(start) / kSpans;
}

void AddLayerMetrics(const LayerInputs& in, RunOutput* out) {
  MetricList& m = out->per_layer;
  const auto self = in.trace->SelfSeconds();
  auto self_median = [&](const std::string& name, double scale) {
    auto it = self.find(name);
    return it == self.end() ? std::nan("") : Median(it->second) * scale;
  };
  const LibPhase& lib = *in.lib;
  const ReadPhase& reads = *in.reads;
  const WritePhase& writes = *in.writes;

  // Server.
  m.Add("server.ping_rtt_ms", Median(in.probe->ping_rtt) * 1e3, "ms");
  std::vector<double> write_wire;
  for (size_t i = 0; i < writes.write_rtt.size(); ++i) {
    write_wire.push_back(writes.write_rtt[i] - writes.write_exec[i]);
  }
  const double wire_hit = Median(ReadWire(reads, "hit")) * 1e3;
  const double wire_miss = Median(ReadWire(reads, "miss")) * 1e3;
  const double wire_write = Median(write_wire) * 1e3;
  m.Add("server.wire_ms.hit", wire_hit, "ms");
  m.Add("server.wire_ms.miss", wire_miss, "ms");
  m.Add("server.wire_ms.write", wire_write, "ms");
  m.Add("server.exec_ms.hit",
        Median(ReadField(reads, "hit", &ReadSample::exec)) * 1e3, "ms");
  m.Add("server.exec_ms.miss",
        Median(ReadField(reads, "miss", &ReadSample::exec)) * 1e3, "ms");
  m.Add("server.exec_ms.write", Median(writes.write_exec) * 1e3, "ms");
  auto kib = [&](const std::string& label) {
    std::vector<double> bytes;
    for (const ReadSample& s : reads.samples) {
      if (s.label == label) bytes.push_back(static_cast<double>(s.bytes));
    }
    return Median(bytes) / 1024.0;
  };
  m.Add("server.response_kb.hit", kib("hit"), "KiB");
  m.Add("server.response_kb.miss", kib("miss"), "KiB");

  // SQL.
  const double parse_us = self_median("sql.parse", 1e6);
  const double bind_us = self_median("sql.bind", 1e6);
  const double lookup_us = self_median("sql.cache_lookup", 1e6);
  m.Add("sql.parse_us", parse_us, "us");
  m.Add("sql.bind_us", bind_us, "us");
  m.Add("sql.cache_lookup_us", lookup_us, "us");
  const double hits =
      static_cast<double>(reads.cache_after.hits - reads.cache_before.hits);
  const double misses = static_cast<double>(reads.cache_after.misses -
                                            reads.cache_before.misses);
  m.Add("sql.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
        "ratio");
  m.Add("sql.cache_evictions",
        static_cast<double>(reads.cache_after.evictions -
                            reads.cache_before.evictions),
        "count");

  // Sort and core, from the min(nproc, 4)-thread library calls.
  std::vector<double> sort_s, share, filter_s, window, merge, used;
  for (const LibCall& call : lib.calls) {
    if (call.threads != WideThreads()) continue;
    sort_s.push_back(call.stats.sort_seconds);
    share.push_back(call.stats.sort_seconds / call.wall);
    filter_s.push_back(call.stats.filter_seconds);
    window.push_back(static_cast<double>(call.stats.window_comparisons));
    merge.push_back(static_cast<double>(call.stats.merge_comparisons));
    used.push_back(static_cast<double>(call.stats.threads_used));
  }
  m.Add("sort.presort_s", Median(sort_s), "s");
  m.Add("sort.presort_share", Median(share), "ratio");
  m.Add("core.filter_s", Median(filter_s), "s");
  m.Add("core.window_comparisons", Median(window), "count");
  m.Add("core.merge_comparisons", Median(merge), "count");
  m.Add("core.threads_used", Median(used), "count");
  // Ungated: the min(nproc, 4)-thread library rate.
  m.Add("core.rows_per_s_wide",
        static_cast<double>(lib.calls.empty() ? 0 : lib.calls[0].stats.input_rows) /
            Median(LibWalls(lib, WideThreads())),
        "rows/s");
  const double canonical_ms = self_median("core.canonical_sort", 1e3);
  m.Add("core.canonical_sort_ms", canonical_ms, "ms");
  double routed = 0;
  for (const auto& [route, count] : in.probe->route_counts) routed += count;
  for (const char* route : {"sfs", "bbs", "special"}) {
    auto it = in.probe->route_counts.find(route);
    const double count = it == in.probe->route_counts.end() ? 0 : it->second;
    m.Add(std::string("core.route_") + route + "_frac",
          routed > 0 ? count / routed : 0, "ratio");
  }
  m.Add("index.blocks_skipped_frac",
        in.probe->bbs_blocks > 0
            ? static_cast<double>(in.probe->bbs_blocks_skipped) /
                  static_cast<double>(in.probe->bbs_blocks)
            : 0,
        "ratio");

  // Write path.
  const double n_writes = static_cast<double>(writes.write_rtt.size());
  m.Add("sql.insert_ms", self_median("sql.insert", 1e3), "ms");
  m.Add("sql.delete_ms", self_median("sql.delete", 1e3), "ms");
  m.Add("sql.entries_patched",
        n_writes > 0 ? static_cast<double>(writes.entries_patched) / n_writes
                     : 0,
        "count");
  m.Add("sql.entries_repaired",
        n_writes > 0 ? static_cast<double>(writes.entries_repaired) / n_writes
                     : 0,
        "count");
  m.Add("sql.entries_invalidated",
        n_writes > 0
            ? static_cast<double>(writes.entries_invalidated) / n_writes
            : 0,
        "count");
  const double maintain_us = self_median("core.maintain", 1e6);
  const double read_all_ms = self_median("storage.read_all", 1e3);
  const double rewrite_ms = self_median("relation.rewrite", 1e3);
  const double sidecar_ms = self_median("relation.sidecar", 1e3);
  m.Add("core.maintain_us", maintain_us, "us");
  m.Add("storage.read_all_ms", read_all_ms, "ms");
  m.Add("relation.rewrite_ms", rewrite_ms, "ms");
  m.Add("relation.sidecar_ms", sidecar_ms, "ms");
  m.Add("storage.bytes_per_write",
        n_writes > 0 ? static_cast<double>(writes.bytes_after -
                                           writes.bytes_before) /
                           n_writes
                     : 0,
        "B");

  // What the layer self-times leave of each class's end-to-end p50. A
  // write's engine share is the private engine's InsertRows/DeleteWhere,
  // which also pays for repairs after member deletes.
  std::vector<double> engine_writes;
  for (const char* name : {"sql.insert", "sql.delete"}) {
    auto it = self.find(name);
    if (it != self.end()) {
      engine_writes.insert(engine_writes.end(), it->second.begin(),
                           it->second.end());
    }
  }
  const double engine_write_ms = Median(engine_writes) * 1e3;
  const double lib_p50 = Median(LibWalls(lib, WideThreads())) * 1e3;
  const double hit_p50 =
      Median(ReadField(reads, "hit", &ReadSample::rtt)) * 1e3;
  const double miss_p50 =
      Median(ReadField(reads, "miss", &ReadSample::rtt)) * 1e3;
  const double write_p50 = Median(writes.write_rtt) * 1e3;
  const std::map<std::string, std::pair<double, double>> classes = {
      {"lib", {lib_p50, (Median(sort_s) + Median(filter_s)) * 1e3}},
      {"hit", {hit_p50, wire_hit + (parse_us + bind_us + lookup_us) / 1e3}},
      {"miss",
       {miss_p50, wire_miss + (parse_us + bind_us) / 1e3 +
                      self_median("core.skyline", 1e3) + canonical_ms}},
      {"write", {write_p50, wire_write + parse_us / 1e3 + engine_write_ms}},
  };
  for (const auto& [name, parts] : classes) {
    const double unattributed = parts.first - parts.second;
    m.Add("unattributed_ms." + name, unattributed, "ms");
    if (std::fabs(unattributed) > kAttributionTolerance * parts.first) {
      out->notes.push_back("layer self-times leave " +
                           std::to_string(unattributed) + " ms of the " +
                           name + " p50 (" + std::to_string(parts.first) +
                           " ms) unattributed, beyond the tolerance");
    }
  }
  // Traced-minus-untraced: mean of the main class's traced requests minus
  // that of its untraced ones (they alternate), and the cost of one span.
  m.Add("trace.overhead_ms", in.main_overhead_ms, "ms");
  m.Add("trace.span_cost_us", SpanCostSeconds() * 1e6, "us");
  if (in.trace->dropped() > 0) {
    out->notes.push_back(std::to_string(in.trace->dropped()) +
                         " spans dropped: the span buffer overflowed");
  }
}

double LibRate(uint64_t rows, const LibPhase& lib, size_t threads) {
  return static_cast<double>(rows) / Median(LibWalls(lib, threads));
}

/// The gated end-to-end metrics, and the same figures under their request
/// class names for the printed table. `main_ms`/`side_ms` are the
/// workload's two classes; lib_cold_1m has one steady class, the
/// one-thread call, and passes it as both.
void AddEndToEnd(RunOutput* out, const std::string& workload,
                 const LibPhase& lib, uint64_t lib_rows,
                 const std::vector<double>& main_ms,
                 const std::vector<double>& side_ms, double ops_per_s,
                 double space_amp, double peak_rss_mib,
                 const std::vector<double>& setup_s) {
  const double lib_rate = LibRate(lib_rows, lib, WideThreads());
  const double lib_rate_1t = LibRate(lib_rows, lib, 1);
  MetricList& m = out->end_to_end;
  // lib_rows_per_s (min(nproc, 4) threads) is printed but not gated: on a
  // shared host its median moves up to 2x with the neighbours' load.
  m.Add("lib_rows_per_s_1t", lib_rate_1t, "rows/s");
  m.Add("main_mean_ms", Mean(main_ms), "ms");
  m.Add("main_p90_ms", Quantile(main_ms, 0.9), "ms");
  m.Add("side_mean_ms", Mean(side_ms), "ms");
  m.Add("side_p90_ms", Quantile(side_ms, 0.9), "ms");
  m.Add("ops_per_s", ops_per_s, "1/s");
  m.Add("space_amp", space_amp, "ratio");
  m.Add("peak_rss_mb", peak_rss_mib, "MiB");
  m.Add("setup_s", Median(setup_s), "s");

  MetricList& n = out->class_names;
  n.Add("lib_rows_per_s", lib_rate, "rows/s");
  n.Add("lib_rows_per_s_1t", lib_rate_1t, "rows/s");
  auto add_class = [&](const std::string& name, const std::vector<double>& ms) {
    n.Add(name + "_p50_ms", Median(ms), "ms");
    n.Add(name + "_mean_ms", Mean(ms), "ms");
    n.Add(name + "_p90_ms", Quantile(ms, 0.9), "ms");
    n.Add(name + "_samples", static_cast<double>(ms.size()), "count");
  };
  if (workload == "lib_cold_1m") {
    add_class("lib_call_1t", main_ms);
    add_class("lib_call", Scaled(LibWalls(lib, WideThreads()), 1e3));
  } else if (workload == "serve_read_100k") {
    add_class("hit", main_ms);
    add_class("miss", side_ms);
  } else {
    add_class("write", main_ms);
    add_class("patched_read", side_ms);
  }
  n.Add(workload == "serve_read_100k" ? "read_qps" : "ops_per_s", ops_per_s,
        "1/s");
  n.Add("space_amp", space_amp, "ratio");
  n.Add("peak_rss_mb", peak_rss_mib, "MiB");
  n.Add("setup_s", Median(setup_s), "s");
  n.Add("failed_ops_frac",
        out->counts.attempted() > 0
            ? static_cast<double>(out->counts.failed()) /
                  static_cast<double>(out->counts.attempted())
            : 0,
        "ratio");
}

/// Every workload's traced run: a small sample of each request class it
/// does not run at scale, then the layer probes.
struct TracedExtras {
  ReadPhase reads;
  WritePhase writes;
  ProbeResult probe;
};

void RunTracedExtras(ServeState* state, const std::string& work,
                     const std::vector<Statement>& population,
                     const ReadPhase* reads_at_scale,
                     const WritePhase* writes_at_scale,
                     const std::vector<Statement>& readers,
                     size_t reader_offset, uint64_t seed,
                     const LayerTrace& trace,
                     std::atomic<int64_t>* request_ids, ServedResults* served,
                     TracedExtras* extras) {
  const ReadPhase& reads =
      reads_at_scale != nullptr ? *reads_at_scale : extras->reads;
  if (reads_at_scale == nullptr) {
    // The most popular few statements only, so the sample has hits.
    const std::vector<Statement> hot(
        population.begin(),
        population.begin() + std::min(population.size(), kProbePopulation));
    extras->reads = RunReads(*state, hot, 1, 0, kProbeReads, seed + 1, trace,
                             request_ids, served);
  }
  if (writes_at_scale == nullptr) {
    extras->writes = RunWrites(state, "anti", readers, reader_offset,
                               kProbeWrites, seed + 2, trace, request_ids,
                               served);
  }
  ProbePing(*state, trace, request_ids, &extras->probe);
  std::map<size_t, int> frequency;
  std::set<size_t> missed;
  for (const ReadSample& s : reads.samples) {
    ++frequency[s.statement];
    if (s.label == "miss") missed.insert(s.statement);
  }
  std::vector<size_t> order;
  for (const auto& [s, count] : frequency) order.push_back(s);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return frequency[a] > frequency[b];
  });
  std::vector<size_t> misses(missed.begin(), missed.end());
  ProbeSql(*state, population, order, trace, request_ids);
  ProbeRoutes(*state, population, misses, work + "/probe", trace, request_ids,
              &extras->probe);
  ProbeWritePath(*state, "anti", readers, work + "/shadow", trace,
                 request_ids);
}

void RecordConfig(const Args& args, RunOutput* out) {
  out->config["workload"] = args.workload;
  out->config["seed"] = std::to_string(args.seed);
  out->config["seconds"] = std::to_string(args.seconds);
  out->config["trace"] = args.trace ? "1" : "0";
  out->config["nproc"] = std::to_string(AffinityCpus());
  out->config["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  out->config["build_type"] = QPB_BUILD_TYPE;
  out->config["result_cache_capacity"] =
      std::to_string(Engine::Options().result_cache_capacity);
  out->config["env"] = "posix";
  out->config["flush_policy"] = "none (no fsync; page cache)";
  out->config["tuple_bytes"] = "100";
}

RunOutput RunLibWorkload(const Args& args, const std::string& work) {
  RunOutput out;
  RecordConfig(args, &out);
  out.config["threads"] = "alternating " + std::to_string(WideThreads()) +
                          " and 1";
  out.config["tables"] = "anti-correlated " + std::to_string(kLibRows) +
                         " rows x 5 attributes";
  std::vector<double> setup_s;
  BaseTable base;
  std::unique_ptr<Env> env;
  std::string data_dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!data_dir.empty()) fs::remove_all(data_dir);
    base = BaseTable();
    env = NewPosixEnv();
    data_dir = work + "/setup" + std::to_string(rep);
    fs::create_directories(data_dir);
    const auto start = Clock::now();
    base = MakeBaseTable(env.get(), data_dir + "/anti",
                         Distribution::kAntiCorrelated, kLibRows, args.seed,
                         false);
    setup_s.push_back(SecondsSince(start));
  }
  LayerTrace trace(args.trace);
  std::atomic<int64_t> request_ids{0};
  ResetPeakRss();
  const LibPhase lib = RunLib(*base.table, work + "/lib", args.seconds, 3,
                              args.seed, trace, &request_ids);
  out.correct = lib.correct;
  if (!lib.correct) out.notes.push_back(lib.why);
  for (size_t i = 0; i < lib.calls.size(); ++i) out.counts.Add(OpOutcome::kOk);
  const double space_amp =
      static_cast<double>(DirectoryBytes(data_dir)) /
      static_cast<double>(base.table->row_count() *
                          base.table->schema().row_width());
  const std::vector<double> one_thread_ms = Scaled(LibWalls(lib, 1), 1e3);
  AddEndToEnd(&out, args.workload, lib, base.table->row_count(),
              one_thread_ms, one_thread_ms, 1e3 / Mean(one_thread_ms),
              space_amp, lib.peak_rss_mib, setup_s);

  if (trace.enabled()) {
    // Serve the 1M table too, and run each request class a few times.
    std::vector<std::pair<std::string, BaseTable>> tables;
    tables.emplace_back("anti", std::move(base));
    auto state = StartServe(std::move(env), data_dir, std::move(tables));
    WarmUp(*state);
    Random rng(args.seed + 11);
    const std::vector<Statement> population =
        MakePopulation(&rng, *state, {"anti"}, kProbePopulation);
    std::vector<Statement> statements = population;
    const std::vector<Statement> readers =
        MakeReaderStatements(&rng, "anti", 2);
    statements.insert(statements.end(), readers.begin(), readers.end());
    ServedResults served;
    TracedExtras extras;
    RunTracedExtras(state.get(), work, population, nullptr, nullptr, readers,
                    population.size(), args.seed, trace, &request_ids,
                    &served, &extras);
    const uint64_t mismatches =
        served.Verify(statements, work + "/verify", &extras.reads.counts);
    out.counts.Merge(extras.reads.counts);
    out.counts.Merge(extras.writes.counts);
    if (mismatches > 0 || extras.writes.wrong_writes > 0) out.correct = false;
    LayerInputs in;
    in.lib = &lib;
    in.reads = &extras.reads;
    in.writes = &extras.writes;
    in.probe = &extras.probe;
    in.trace = &trace;
    in.main_overhead_ms = (Mean(LibWalls(lib, WideThreads(), true)) -
                           Mean(LibWalls(lib, WideThreads(), false))) *
                          1e3;
    AddLayerMetrics(in, &out);
    (void)trace.WriteChromeTrace(args.workdir + "/trace_" + args.workload +
                                 ".json");
  }
  return out;
}

/// Both serve workloads: an anti-correlated table (SFS route) and a
/// correlated, z-order clustered one (BBS route), both with sidecars.
std::unique_ptr<ServeState> SetUpServe(const std::string& dir, uint64_t seed) {
  std::unique_ptr<Env> env = NewPosixEnv();
  fs::create_directories(dir);
  std::vector<std::pair<std::string, BaseTable>> tables;
  tables.emplace_back("anti", MakeBaseTable(env.get(), dir + "/anti.base",
                                            Distribution::kAntiCorrelated,
                                            kServeRows, seed, false));
  tables.emplace_back("corr", MakeBaseTable(env.get(), dir + "/corr.base",
                                            Distribution::kCorrelated,
                                            kServeRows, seed + 1, true));
  auto state = StartServe(std::move(env), dir, std::move(tables));
  WarmUp(*state);
  return state;
}

RunOutput RunServeWorkload(const Args& args, const std::string& work) {
  RunOutput out;
  RecordConfig(args, &out);
  const bool reads_at_scale = args.workload == "serve_read_100k";
  out.config["threads"] = "session default (1); library calls alternate " +
                          std::to_string(WideThreads()) + " and 1";
  out.config["tables"] = "anti-correlated and correlated (z-ordered) " +
                         std::to_string(kServeRows) + " rows x 5 attributes";
  std::vector<double> setup_s;
  std::unique_ptr<ServeState> state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (state) {
      const std::string old_dir = state->data_dir;
      state.reset();
      fs::remove_all(old_dir);
    }
    const auto start = Clock::now();
    state = SetUpServe(work + "/setup" + std::to_string(rep), args.seed);
    setup_s.push_back(SecondsSince(start));
  }
  LayerTrace trace(args.trace);
  std::atomic<int64_t> request_ids{0};
  Random rng(args.seed + 7);
  const std::vector<Statement> population =
      MakePopulation(&rng, *state, {"anti", "corr"}, kKeyPopulation);
  const std::vector<Statement> readers =
      MakeReaderStatements(&rng, "anti", kReaderKeys);
  std::vector<Statement> statements = population;
  statements.insert(statements.end(), readers.begin(), readers.end());
  ServedResults served;

  // Library calls on the anti-correlated base table.
  const std::shared_ptr<const Table> anti = CurrentTable(*state, "anti");
  const LibPhase lib = RunLib(*anti, work + "/lib", 0, kServeLibPairs,
                              args.seed, trace, &request_ids);
  out.correct = lib.correct;
  if (!lib.correct) out.notes.push_back(lib.why);

  ReadPhase reads;
  WritePhase writes;
  std::vector<double> main_ms, side_ms;
  double ops_per_s = 0;
  ResetPeakRss();
  if (reads_at_scale) {
    reads = RunReads(*state, population, kReadClients, args.seconds, 0,
                     args.seed, trace, &request_ids, &served);
    main_ms = Scaled(ReadField(reads, "hit", &ReadSample::rtt), 1e3);
    side_ms = Scaled(ReadField(reads, "miss", &ReadSample::rtt), 1e3);
    ops_per_s = static_cast<double>(reads.samples.size()) / reads.busy_seconds;
    const double hits = static_cast<double>(main_ms.size());
    out.notes.push_back("hit ratio " +
                        std::to_string(hits / static_cast<double>(
                                                  reads.samples.size())) +
                        " over " + std::to_string(reads.samples.size()) +
                        " reads");
  } else {
    writes = RunWrites(state.get(), "anti", readers, population.size(),
                       kWrites, args.seed, trace, &request_ids, &served);
    main_ms = Scaled(writes.write_rtt, 1e3);
    side_ms = Scaled(writes.read_rtt, 1e3);
    ops_per_s = static_cast<double>(writes.write_rtt.size() +
                                    writes.read_rtt.size()) /
                writes.busy_seconds;
    out.notes.push_back(
        "member-delete share " +
        std::to_string(writes.deletes > 0
                           ? static_cast<double>(writes.member_deletes) /
                                 static_cast<double>(writes.deletes)
                           : 0) +
        " of " + std::to_string(writes.deletes) + " deletes, " +
        std::to_string(writes.inserts) + " inserts");
  }
  const double peak_rss_mib = PeakRssMiB();
  uint64_t live_bytes = 0;
  for (const std::string& name : state->engine->TableNames()) {
    const auto table = CurrentTable(*state, name);
    live_bytes += table->row_count() * table->schema().row_width();
  }
  const double space_amp =
      static_cast<double>(DirectoryBytes(state->data_dir)) /
      static_cast<double>(live_bytes);

  TracedExtras extras;
  if (trace.enabled()) {
    RunTracedExtras(state.get(), work, population,
                    reads_at_scale ? &reads : nullptr,
                    reads_at_scale ? nullptr : &writes, readers,
                    population.size(), args.seed, trace, &request_ids,
                    &served, &extras);
  }
  OutcomeCounts counts = reads.counts;
  counts.Merge(writes.counts);
  counts.Merge(extras.reads.counts);
  counts.Merge(extras.writes.counts);
  const uint64_t mismatches =
      served.Verify(statements, work + "/verify", &counts);
  if (mismatches > 0) {
    out.correct = false;
    out.notes.push_back(std::to_string(mismatches) +
                        " served responses differ from the cold recompute");
  }
  if (writes.wrong_writes + extras.writes.wrong_writes > 0) {
    out.correct = false;
    out.notes.push_back("a single-row write did not affect exactly one row");
  }
  out.notes.push_back("oracle checked " + std::to_string(served.distinct()) +
                      " distinct (statement, version) results");
  for (size_t i = 0; i < lib.calls.size(); ++i) counts.Add(OpOutcome::kOk);
  out.counts = counts;
  AddEndToEnd(&out, args.workload, lib, anti->row_count(), main_ms, side_ms,
              ops_per_s, space_amp, peak_rss_mib, setup_s);

  if (trace.enabled()) {
    LayerInputs in;
    in.lib = &lib;
    in.reads = reads_at_scale ? &reads : &extras.reads;
    in.writes = reads_at_scale ? &extras.writes : &writes;
    in.probe = &extras.probe;
    in.trace = &trace;
    if (reads_at_scale) {
      std::vector<double> on, off;
      for (const ReadSample& s : reads.samples) {
        if (s.label == "hit") (s.traced ? on : off).push_back(s.rtt);
      }
      in.main_overhead_ms = (Mean(on) - Mean(off)) * 1e3;
    } else {
      std::vector<double> on, off;
      for (size_t i = 0; i < writes.write_rtt.size(); ++i) {
        (writes.write_traced[i] ? on : off).push_back(writes.write_rtt[i]);
      }
      in.main_overhead_ms = (Mean(on) - Mean(off)) * 1e3;
    }
    AddLayerMetrics(in, &out);
    (void)trace.WriteChromeTrace(args.workdir + "/trace_" + args.workload +
                                 ".json");
  }
  return out;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.workload != "lib_cold_1m" && args.workload != "serve_read_100k" &&
      args.workload != "serve_write_100k") {
    Fail("--workload must be lib_cold_1m, serve_read_100k or "
         "serve_write_100k");
  }
  if (!(args.seconds > 0)) Fail("--seconds must be positive");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::string work = args.workdir + "/" + args.workload + "-" +
                           std::to_string(::getpid());
  fs::create_directories(work);
  const RunOutput out = args.workload == "lib_cold_1m"
                            ? RunLibWorkload(args, work)
                            : RunServeWorkload(args, work);
  fs::remove_all(work);

  std::printf("config:");
  for (const auto& [key, value] : out.config) {
    std::printf(" %s=%s;", key.c_str(), value.c_str());
  }
  std::printf("\noutcomes:");
  for (const auto& [name, count] : out.counts.by_outcome()) {
    std::printf(" %s=%" PRIu64, name.c_str(), count);
  }
  std::printf("\n");
  for (const std::string& note : out.notes) std::printf("note: %s\n", note.c_str());
  out.class_names.Print("end-to-end (by request class):");
  if (args.trace) out.per_layer.Print("per-layer:");
  const MetricList& metrics = args.trace ? out.per_layer : out.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              out.correct ? "true" : "false", out.counts.attempted(),
              out.counts.failed(), metrics.Json().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace skyline::perfbench

int main(int argc, char** argv) {
  return skyline::perfbench::Main(argc, argv);
}
