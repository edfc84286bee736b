#ifndef SKYLINE_SQL_ENGINE_H_
#define SKYLINE_SQL_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/skyline_constraint.h"
#include "core/skyline_spec.h"
#include "relation/table.h"
#include "sql/ast.h"
#include "sql/executor.h"

namespace skyline {

class SkylineMaintainer;

/// Process-wide query engine: owns the storage env binding, the table
/// registry (name → versioned immutable Table), and the skyline result
/// cache, and runs the incremental-maintenance write path. One Engine per
/// process/server; per-connection state lives in Session.
///
/// Versioning model: tables are immutable. A mutation rewrites the heap
/// file to a new versioned path (sidecars built from the rows already in
/// memory), swaps the registry's shared_ptr, and bumps the table version;
/// in-flight readers keep their snapshot. A superseded version the engine
/// wrote itself (a rewrite, or a CSV load) is reclaimed — heap file and
/// sidecars deleted — when its last snapshot drops; a table handed to
/// CreateTable is never deleted, nor is the current version when the
/// Engine is destroyed. Cache entries are keyed by
/// (table, version, spec, constraint), so a stale entry can never be
/// served — on mutation, entries are either patched forward to the new
/// version (`SkylineMaintainer::Insert`, cheap), repaired by recomputing
/// the dominance region of the deleted skyline members (the paper's
/// expensive direction), or invalidated.
///
/// Cached skylines are stored and served in *canonical order*
/// (core/canonical_order.h), not presort order: entropy presorting depends
/// on table stats, which mutations change, so canonical order is what
/// keeps a patched entry byte-identical to a from-scratch recompute.
class Engine {
 public:
  struct Options {
    /// Storage env for table files; borrowed, required.
    Env* env = nullptr;
    /// Path prefix for engine-managed files (versioned table rewrites,
    /// cache-fill outputs).
    std::string data_prefix = "engine";
    /// Result cache capacity in entries (LRU beyond that). 0 disables.
    size_t result_cache_capacity = 64;
    /// On deletion of a cached skyline member with no surviving duplicate:
    /// true repairs the entry inline from the new table version,
    /// recomputing only the region the deleted members dominated; false
    /// drops it (lazy invalidation — the next query refills).
    bool repair_deletes = true;
    /// Write the column-file and block-index sidecars after table loads
    /// and mutations, keeping the index path warm across versions.
    bool write_sidecars = true;
    /// Algorithm for maintenance-time repairs (the result set is
    /// algorithm-independent; this only picks the compute path).
    SkylineAlgorithm repair_algorithm = SkylineAlgorithm::kSfs;
  };

  /// One immutable cached result: the constrained skyline of `table` at
  /// `version`, rows in canonical order. Never mutated after publication —
  /// patching produces a new entry — so concurrent readers share it
  /// lock-free via shared_ptr.
  struct CachedSkyline {
    std::string table;
    uint64_t version = 0;
    /// Shared because SkylineSpec has no default constructor and patched
    /// entries reuse the original's spec unchanged.
    std::shared_ptr<const SkylineSpec> spec;
    SkylineConstraint constraint;
    std::vector<char> rows;
    size_t count = 0;
  };

  struct CacheCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Entries dropped by mutations (unpatchable or unpatched).
    uint64_t invalidations = 0;
    /// Entries carried across a mutation by in-place patching.
    uint64_t patched = 0;
    /// Entries carried across a deletion by inline recomputation.
    uint64_t repaired = 0;
    /// Entries dropped by LRU capacity pressure.
    uint64_t evictions = 0;
  };

  /// Per-statement outcome of a mutation.
  struct MutationStats {
    uint64_t rows_affected = 0;
    /// Table version after the mutation.
    uint64_t version = 0;
    size_t entries_patched = 0;
    size_t entries_repaired = 0;
    size_t entries_invalidated = 0;
  };

  struct TableSnapshot {
    std::shared_ptr<const Table> table;
    uint64_t version = 0;
  };

  explicit Engine(const Options& options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Env* env() const { return options_.env; }
  const Options& options() const { return options_; }

  /// Adopts `table` under `name` at version 1, replacing any existing
  /// binding (and invalidating its cache entries). The table must live in
  /// this engine's env; its files stay the caller's and are never deleted.
  Status CreateTable(const std::string& name, Table table);

  /// Parses CSV text into an engine-owned table registered under `name`.
  Status CreateTableFromCsv(const std::string& name,
                            const std::string& csv_text);

  /// Current version of `name`'s table; readers hold the snapshot's
  /// shared_ptr for as long as they read.
  Result<TableSnapshot> Snapshot(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Serves the constrained skyline of `name`'s current version in
  /// canonical order — from the result cache when possible, computing and
  /// filling on miss. `options` supplies the compute path (algorithm,
  /// SFS knobs, ExecContext) for a cold fill; the cached result itself is
  /// algorithm-independent. Sets `*cache_hit` (may be null).
  Result<std::shared_ptr<const CachedSkyline>> QuerySkyline(
      const std::string& name, const std::vector<Criterion>& criteria,
      const SkylineConstraint& constraint, const SqlOptions& options,
      bool* cache_hit);

  /// Appends `rows` (dense schema-layout buffer) to `name`, rewriting the
  /// heap file to the next version and patching this table's cache entries
  /// in place (SkylineMaintainer::Insert — inserts never force a
  /// recompute).
  Result<MutationStats> InsertRows(const std::string& name,
                                   const std::vector<char>& rows,
                                   const ExecContext& ctx);

  /// Deletes the rows matching every predicate (all rows when empty),
  /// rewriting to the next version. Cache entries lose deleted members via
  /// SkylineMaintainer::Remove; member removals with no surviving
  /// duplicate are the recompute-needed case — repaired inline (one
  /// recompute over the box the lost members dominated) or invalidated
  /// per Options::repair_deletes.
  Result<MutationStats> DeleteWhere(const std::string& name,
                                    const std::vector<SqlPredicate>& predicates,
                                    const ExecContext& ctx);

  CacheCounters cache_counters() const;
  size_t cache_size() const;

 private:
  struct TableState {
    std::shared_ptr<const Table> table;
    uint64_t version = 1;
    /// Engine-written versions only (null for a caller's table): set when
    /// a newer version replaces this one, which arms the deletion of its
    /// files once the last snapshot drops.
    std::shared_ptr<std::atomic<bool>> superseded;
  };

  using CacheEntry = std::shared_ptr<const CachedSkyline>;
  using LruList = std::list<std::pair<std::string, CacheEntry>>;

  /// data_prefix/<name>.v<version>, suffixed when a file of an earlier
  /// binding still holds that path.
  std::string VersionedPath(const std::string& name, uint64_t version) const;

  /// Wraps an engine-written table so its files are reclaimed once it is
  /// superseded and unreferenced.
  static TableState OwnedState(Table table, uint64_t version);

  /// Installs `state` as `name`'s binding, superseding the previous one and
  /// dropping its cache entries (locked).
  void Bind(const std::string& name, TableState state);

  /// Replaces `name`'s binding with `state` and arms the reclamation of the
  /// replaced version, which is returned so the caller can drop it after
  /// releasing mu_. Caller holds mu_.
  TableState SwapBindingLocked(const std::string& name, TableState state);

  /// Computes the constrained skyline of `table` into a fresh entry
  /// (canonical order). `algorithm`/`sfs` pick the compute path.
  Result<CacheEntry> ComputeEntry(const std::string& name,
                                  const Table& table, uint64_t version,
                                  SkylineSpec spec,
                                  const SkylineConstraint& constraint,
                                  SkylineAlgorithm algorithm,
                                  const SfsOptions& sfs,
                                  const ExecContext& ctx);

  /// Writes `name`'s `version` from the dense `keep` row bytes, plus its
  /// sidecars (per options) from the same buffer. Caller holds write_mu_.
  Result<TableState> RewriteTable(const std::string& name, uint64_t version,
                                  const Schema& schema,
                                  const std::vector<char>& keep);

  /// Restores `entry`'s skyline at `table` (`version`) after `lost`
  /// members — deleted, no surviving duplicate — left `maintainer`: one
  /// compute over the entry's box narrowed to the lost members' dominance
  /// region, merged into the remaining members.
  Status RepairLostMembers(const std::string& name, const Table& table,
                           uint64_t version, const CachedSkyline& entry,
                           const std::vector<const char*>& lost,
                           const ExecContext& ctx,
                           SkylineMaintainer* maintainer);

  /// Collects this table's cache entries (locked).
  std::vector<CacheEntry> EntriesForTable(const std::string& name) const;

  /// Replaces the table binding and this table's cache entries with
  /// `carried` (already rekeyed to the new version); every other entry of
  /// the table is invalidated. Fills stats->entries_invalidated and folds
  /// the mutation's patch/repair/invalidation counts into the cache
  /// counters (locked).
  void PublishMutation(const std::string& name, TableState state,
                       std::vector<CacheEntry> carried, MutationStats* stats);

  void CacheInsertLocked(const std::string& key, CacheEntry entry);

  Options options_;
  /// Serializes mutations end-to-end (file rewrite + patch + publish).
  std::mutex write_mu_;
  /// Guards tables_, the cache structures, and counters_.
  mutable std::mutex mu_;
  std::map<std::string, TableState> tables_;
  LruList lru_;  // front = most recent
  std::map<std::string, LruList::iterator> cache_index_;
  CacheCounters counters_;
  uint64_t query_seq_ = 0;
};

/// Per-connection execution facade over an Engine: owns the session's
/// options (algorithm, SFS knobs, the single user-facing `threads` knob,
/// temp prefix) and its ExecContext (cancellation hook, telemetry sinks),
/// and executes statements — SELECTs through the result cache when
/// eligible or the Volcano pipeline otherwise, INSERT/DELETE through the
/// engine's maintenance write path.
class Session {
 public:
  struct Options {
    SkylineAlgorithm algorithm = SkylineAlgorithm::kSfs;
    SfsOptions sfs;
    /// Worker threads for every statement, with ExecContext::threads
    /// meaning: 1 (default) = sequential, 0 = one per hardware thread.
    /// Copied into exec() once, at construction; set exec().threads to
    /// change it afterwards.
    size_t threads = 1;
    /// Temp-file prefix for pipeline steps.
    std::string temp_prefix = "session";
    /// Serve eligible skyline SELECTs from the engine's result cache.
    bool use_result_cache = true;
  };

  /// Per-statement outcome beyond the row stream.
  struct Outcome {
    SqlRunInfo info;
    /// True for INSERT/DELETE.
    bool write = false;
    uint64_t rows_affected = 0;
    /// SELECT only: the statement qualified for the result cache
    /// (skyline clause, fully pushed predicates, no ORDER BY).
    bool cache_eligible = false;
    bool cache_hit = false;
    /// Rows emitted to the visitor.
    uint64_t rows_emitted = 0;
    Engine::MutationStats mutation;
  };

  explicit Session(Engine* engine) : Session(engine, Options()) {}
  Session(Engine* engine, Options options);

  Engine* engine() const { return engine_; }
  const Options& options() const { return options_; }

  /// Mutable per-session context: install a cancellation hook, metrics or
  /// trace sinks, or change the worker count Options::threads seeded.
  ExecContext& exec() { return exec_; }

  /// Parses and executes one statement, invoking `visitor` per output row
  /// (never for writes or EXPLAIN). `outcome` may be null.
  Status Execute(const std::string& sql,
                 const std::function<Status(const RowView&)>& visitor,
                 Outcome* outcome = nullptr);

  /// Renders the plan a SELECT would execute, without running it.
  Result<std::string> Explain(const std::string& sql);

 private:
  /// The one SqlOptions assembly point: folds Options + exec() into the
  /// executor's options struct.
  SqlOptions BuildSqlOptions() const;

  Status ExecuteSelectStatement(
      const SelectStatement& statement,
      const std::function<Status(const RowView&)>& visitor, Outcome* outcome);
  /// Streams a cached entry through projection/limit to the visitor.
  Status ServeCachedSkyline(
      const SelectStatement& statement, const Engine::CachedSkyline& entry,
      const std::function<Status(const RowView&)>& visitor, Outcome* outcome);

  Engine* engine_;
  Options options_;
  ExecContext exec_;
};

}  // namespace skyline

#endif  // SKYLINE_SQL_ENGINE_H_
