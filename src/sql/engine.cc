#include "sql/engine.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <utility>

#include "core/canonical_order.h"
#include "core/compute_skyline.h"
#include "core/maintenance.h"
#include "relation/canonical_key.h"
#include "relation/column_store.h"
#include "relation/csv.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace skyline {
namespace {

/// Cache key: table identity + version + canonical spec/constraint text.
/// Bounds are sorted by column so semantically equal boxes key equal.
std::string MakeCacheKey(const std::string& table, uint64_t version,
                         const SkylineSpec& spec,
                         const SkylineConstraint& constraint) {
  std::string key = table;
  key.push_back('\n');
  key += std::to_string(version);
  key.push_back('\n');
  key += spec.ToString();
  key.push_back('\n');
  std::vector<SkylineConstraint::Bound> bounds = constraint.bounds;
  std::sort(bounds.begin(), bounds.end(),
            [](const SkylineConstraint::Bound& a,
               const SkylineConstraint::Bound& b) {
              return a.column < b.column;
            });
  for (const auto& bound : bounds) {
    key += std::to_string(bound.column);
    key.push_back(':');
    key += std::to_string(bound.lo);
    key.push_back(':');
    key += std::to_string(bound.hi);
    key.push_back(';');
  }
  return key;
}

std::string CacheKeyFor(const Engine::CachedSkyline& entry) {
  return MakeCacheKey(entry.table, entry.version, *entry.spec,
                      entry.constraint);
}

/// Copies the maintainer's members back into the entry and restores the
/// canonical serve order.
void AdoptMaintainerRows(const SkylineMaintainer& maintainer,
                         Engine::CachedSkyline* entry) {
  const size_t width = entry->spec->schema().row_width();
  entry->count = maintainer.size();
  entry->rows.resize(entry->count * width);
  for (size_t i = 0; i < entry->count; ++i) {
    std::memcpy(entry->rows.data() + i * width, maintainer.MemberAt(i), width);
  }
  SortSkylineRowsCanonical(*entry->spec, &entry->rows);
}

/// The box of canonical keys holding every row that one of the `lost`
/// members dominated or duplicated, intersected with the entry's own box
/// `base`: per MAX criterion at most the lost members' largest key, per
/// MIN criterion at least their smallest, per numeric DIFF column within
/// their [min, max] (string DIFF columns stay unbounded). Any row outside
/// it was dominated by a member that is still there.
SkylineConstraint LostDominanceBox(const SkylineSpec& spec,
                                   const SkylineConstraint& base,
                                   const std::vector<const char*>& lost) {
  const Schema& schema = spec.schema();
  SkylineConstraint box = base;
  auto narrow = [&](size_t column, bool bound_lo, bool bound_hi) {
    const ColumnType type = schema.column(column).type;
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    for (const char* row : lost) {
      const int64_t key = CanonicalKeyOf(type, row + schema.offset(column));
      lo = std::min(lo, key);
      hi = std::max(hi, key);
    }
    auto it = std::find_if(box.bounds.begin(), box.bounds.end(),
                           [column](const SkylineConstraint::Bound& b) {
                             return b.column == column;
                           });
    if (it == box.bounds.end()) {
      it = box.bounds.insert(box.bounds.end(), {column, INT64_MIN, INT64_MAX});
    }
    if (bound_lo) it->lo = std::max(it->lo, lo);
    if (bound_hi) it->hi = std::min(it->hi, hi);
  };
  for (const auto& value : spec.value_columns()) {
    narrow(value.column, /*bound_lo=*/!value.max, /*bound_hi=*/value.max);
  }
  for (size_t column : spec.diff_columns()) {
    if (schema.column(column).type == ColumnType::kFixedString) continue;
    narrow(column, /*bound_lo=*/true, /*bound_hi=*/true);
  }
  return box;
}

}  // namespace

Engine::Engine(const Options& options) : options_(options) {}

std::string Engine::VersionedPath(const std::string& name,
                                  uint64_t version) const {
  // A superseded version still held by a snapshot (of an earlier binding
  // of the name) keeps its path until released: never write over it.
  const std::string base =
      options_.data_prefix + "/" + name + ".v" + std::to_string(version);
  std::string path = base;
  for (int k = 1; options_.env->FileExists(path); ++k) {
    path = base + "-" + std::to_string(k);
  }
  return path;
}

Engine::TableState Engine::OwnedState(Table table, uint64_t version) {
  TableState state;
  state.version = version;
  state.superseded = std::make_shared<std::atomic<bool>>(false);
  // Once superseded, the last reference to drop deletes the sidecars and
  // then the heap file — heap file last, because VersionedPath probes the
  // heap file's existence.
  state.table = std::shared_ptr<const Table>(
      new Table(std::move(table)),
      [superseded = state.superseded](const Table* t) {
        if (superseded->load(std::memory_order_acquire)) {
          Env* env = t->env();
          (void)env->DeleteFile(ColumnFilePathFor(t->path()));
          (void)env->DeleteFile(BlockIndexPathFor(t->path()));
          (void)env->DeleteFile(t->path());
        }
        delete t;
      });
  return state;
}

Status Engine::CreateTable(const std::string& name, Table table) {
  if (options_.write_sidecars) {
    SKYLINE_RETURN_IF_ERROR(WriteTableSidecars(table, nullptr));
  }
  TableState state;
  state.table = std::make_shared<const Table>(std::move(table));
  Bind(name, std::move(state));
  return Status::OK();
}

Status Engine::CreateTableFromCsv(const std::string& name,
                                  const std::string& csv_text) {
  SKYLINE_ASSIGN_OR_RETURN(
      Table table, CsvToTable(options_.env, VersionedPath(name, 1), csv_text));
  if (options_.write_sidecars) {
    SKYLINE_RETURN_IF_ERROR(WriteTableSidecars(table, nullptr));
  }
  Bind(name, OwnedState(std::move(table), 1));
  return Status::OK();
}

Engine::TableState Engine::SwapBindingLocked(const std::string& name,
                                             TableState state) {
  TableState& slot = tables_[name];
  if (slot.superseded != nullptr) slot.superseded->store(true);
  return std::exchange(slot, std::move(state));
}

void Engine::Bind(const std::string& name, TableState state) {
  TableState replaced;  // dropped after the lock: may delete its files
  std::lock_guard<std::mutex> lock(mu_);
  replaced = SwapBindingLocked(name, std::move(state));
  // Any cached results of a previous binding under this name are dead.
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->second->table == name) {
      cache_index_.erase(it->first);
      it = lru_.erase(it);
      ++counters_.invalidations;
    } else {
      ++it;
    }
  }
}

Result<Engine::TableSnapshot> Engine::Snapshot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + name);
  }
  return TableSnapshot{it->second.table, it->second.version};
}

std::vector<std::string> Engine::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, state] : tables_) names.push_back(name);
  return names;
}

Result<Engine::CacheEntry> Engine::ComputeEntry(
    const std::string& name, const Table& table, uint64_t version,
    SkylineSpec spec, const SkylineConstraint& constraint,
    SkylineAlgorithm algorithm, const SfsOptions& sfs,
    const ExecContext& ctx) {
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = ++query_seq_;
  }
  const std::string output_path =
      options_.data_prefix + "/" + name + ".q" + std::to_string(seq);
  SkylineComputeOptions compute;
  compute.sfs = sfs;
  compute.constraint = constraint;
  SkylineRunStats stats;
  SKYLINE_ASSIGN_OR_RETURN(
      Table result,
      ComputeSkyline(algorithm, table, spec, ctx, output_path, &stats,
                     compute));
  auto entry = std::make_shared<CachedSkyline>();
  entry->table = name;
  entry->version = version;
  entry->spec = std::make_shared<const SkylineSpec>(std::move(spec));
  entry->constraint = constraint;
  SKYLINE_RETURN_IF_ERROR(result.ReadAllRows(&entry->rows));
  entry->count = result.row_count();
  SortSkylineRowsCanonical(*entry->spec, &entry->rows);
  // The result file was only a staging area for the cache entry.
  (void)options_.env->DeleteFile(output_path);
  return CacheEntry(std::move(entry));
}

Result<std::shared_ptr<const Engine::CachedSkyline>> Engine::QuerySkyline(
    const std::string& name, const std::vector<Criterion>& criteria,
    const SkylineConstraint& constraint, const SqlOptions& options,
    bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  SKYLINE_ASSIGN_OR_RETURN(TableSnapshot snapshot, Snapshot(name));
  SKYLINE_ASSIGN_OR_RETURN(
      SkylineSpec spec, SkylineSpec::Make(snapshot.table->schema(), criteria));
  const std::string key =
      MakeCacheKey(name, snapshot.version, spec, constraint);
  if (options_.result_cache_capacity > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_index_.find(key);
    if (it != cache_index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++counters_.hits;
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second->second;
    }
  }
  SKYLINE_RETURN_IF_ERROR(options.exec.CheckCancelled());
  SKYLINE_ASSIGN_OR_RETURN(
      CacheEntry entry,
      ComputeEntry(name, *snapshot.table, snapshot.version, std::move(spec),
                   constraint, options.algorithm, options.sfs, options.exec));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.misses;
    // Cache only if the table hasn't moved on while we computed — a stale
    // fill would never be served (the key embeds the version) but would
    // squat in the LRU.
    auto table_it = tables_.find(name);
    if (options_.result_cache_capacity > 0 && table_it != tables_.end() &&
        table_it->second.version == snapshot.version) {
      CacheInsertLocked(key, entry);
    }
  }
  return entry;
}

Result<Engine::TableState> Engine::RewriteTable(
    const std::string& name, uint64_t version, const Schema& schema,
    const std::vector<char>& keep) {
  TableBuilder builder(options_.env, VersionedPath(name, version), schema);
  SKYLINE_RETURN_IF_ERROR(builder.Open());
  const size_t width = schema.row_width();
  const size_t count = width == 0 ? 0 : keep.size() / width;
  for (size_t i = 0; i < count; ++i) {
    SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(keep.data() + i * width));
  }
  SKYLINE_ASSIGN_OR_RETURN(Table table, builder.Finish());
  if (options_.write_sidecars) {
    // The rows are still in memory: build both sidecars from them.
    SKYLINE_RETURN_IF_ERROR(WriteTableSidecars(table, keep.data()));
  }
  return OwnedState(std::move(table), version);
}

std::vector<Engine::CacheEntry> Engine::EntriesForTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CacheEntry> entries;
  for (const auto& [key, entry] : lru_) {
    if (entry->table == name) entries.push_back(entry);
  }
  return entries;
}

void Engine::PublishMutation(const std::string& name, TableState state,
                             std::vector<CacheEntry> carried,
                             MutationStats* stats) {
  TableState replaced;  // dropped after the lock: may delete its files
  std::lock_guard<std::mutex> lock(mu_);
  replaced = SwapBindingLocked(name, std::move(state));
  size_t removed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->second->table == name) {
      cache_index_.erase(it->first);
      it = lru_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  // Concurrent reads may have evicted collected entries before publish, so
  // clamp rather than trust removed >= carried.
  stats->entries_invalidated =
      removed > carried.size() ? removed - carried.size() : 0;
  counters_.invalidations += stats->entries_invalidated;
  counters_.patched += stats->entries_patched;
  counters_.repaired += stats->entries_repaired;
  for (auto& entry : carried) {
    // Key first: the arguments would otherwise race the move.
    std::string key = CacheKeyFor(*entry);
    CacheInsertLocked(std::move(key), std::move(entry));
  }
}

void Engine::CacheInsertLocked(const std::string& key, CacheEntry entry) {
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    lru_.erase(it->second);
    cache_index_.erase(it);
  }
  lru_.emplace_front(key, std::move(entry));
  cache_index_[key] = lru_.begin();
  while (lru_.size() > options_.result_cache_capacity) {
    cache_index_.erase(lru_.back().first);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

Result<Engine::MutationStats> Engine::InsertRows(const std::string& name,
                                                 const std::vector<char>& rows,
                                                 const ExecContext& ctx) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());
  SKYLINE_ASSIGN_OR_RETURN(TableSnapshot snapshot, Snapshot(name));
  const Schema& schema = snapshot.table->schema();
  const size_t width = schema.row_width();
  if (width == 0 || rows.size() % width != 0) {
    return Status::InvalidArgument("insert buffer is not a whole number of "
                                   "rows");
  }
  MutationStats stats;
  stats.rows_affected = rows.size() / width;
  if (stats.rows_affected == 0) {
    stats.version = snapshot.version;
    return stats;
  }

  std::vector<char> all;
  SKYLINE_RETURN_IF_ERROR(snapshot.table->ReadAllRows(&all));
  all.insert(all.end(), rows.begin(), rows.end());
  const uint64_t new_version = snapshot.version + 1;
  SKYLINE_ASSIGN_OR_RETURN(TableState new_state,
                           RewriteTable(name, new_version, schema, all));

  // Inserts never force a recompute: each cached skyline absorbs the new
  // rows through the maintainer (dominated rows vanish, dominating rows
  // join and evict).
  std::vector<CacheEntry> carried;
  for (const CacheEntry& old_entry : EntriesForTable(name)) {
    if (old_entry->version != snapshot.version) continue;
    auto patched = std::make_shared<CachedSkyline>(*old_entry);
    SkylineMaintainer maintainer = SkylineMaintainer::FromComputedSkyline(
        patched->spec.get(), patched->rows.data(), patched->count);
    for (size_t i = 0; i < stats.rows_affected; ++i) {
      const char* row = rows.data() + i * width;
      if (!patched->constraint.empty() &&
          !patched->constraint.Matches(schema, row)) {
        continue;  // outside the entry's box: cannot affect it
      }
      maintainer.Insert(row);
    }
    AdoptMaintainerRows(maintainer, patched.get());
    patched->version = new_version;
    carried.push_back(std::move(patched));
    ++stats.entries_patched;
  }

  stats.version = new_version;
  PublishMutation(name, std::move(new_state), std::move(carried), &stats);
  return stats;
}

Result<Engine::MutationStats> Engine::DeleteWhere(
    const std::string& name, const std::vector<SqlPredicate>& predicates,
    const ExecContext& ctx) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  SKYLINE_RETURN_IF_ERROR(ctx.CheckCancelled());
  SKYLINE_ASSIGN_OR_RETURN(TableSnapshot snapshot, Snapshot(name));
  const Schema& schema = snapshot.table->schema();
  const size_t width = schema.row_width();
  SKYLINE_ASSIGN_OR_RETURN(std::vector<BoundPredicate> bound,
                           BindPredicates(schema, predicates));

  std::vector<char> all;
  SKYLINE_RETURN_IF_ERROR(snapshot.table->ReadAllRows(&all));
  std::vector<char> keep;
  std::vector<char> deleted;
  const size_t count = width == 0 ? 0 : all.size() / width;
  for (size_t i = 0; i < count; ++i) {
    const char* row = all.data() + i * width;
    if (EvalPredicates(bound, RowView(&schema, row))) {
      deleted.insert(deleted.end(), row, row + width);
    } else {
      keep.insert(keep.end(), row, row + width);
    }
  }

  MutationStats stats;
  stats.rows_affected = width == 0 ? 0 : deleted.size() / width;
  if (stats.rows_affected == 0) {
    stats.version = snapshot.version;
    return stats;
  }
  const uint64_t new_version = snapshot.version + 1;
  SKYLINE_ASSIGN_OR_RETURN(TableState new_state,
                           RewriteTable(name, new_version, schema, keep));

  // Deleting a dominated row never changes a skyline; deleting a member
  // with a surviving duplicate keeps it exact. Deleting the last copy of a
  // member ("lost" member) is the direction the paper warns about: rows
  // only it dominated may resurface. Those rows lie in its dominance
  // region, so the repair recomputes just the box around the lost members.
  std::vector<CacheEntry> carried;
  for (const CacheEntry& old_entry : EntriesForTable(name)) {
    if (old_entry->version != snapshot.version) continue;
    auto patched = std::make_shared<CachedSkyline>(*old_entry);
    SkylineMaintainer maintainer = SkylineMaintainer::FromComputedSkyline(
        patched->spec.get(), patched->rows.data(), patched->count);
    std::vector<const char*> lost;
    for (size_t i = 0; i < stats.rows_affected; ++i) {
      const char* row = deleted.data() + i * width;
      if (!patched->constraint.empty() &&
          !patched->constraint.Matches(schema, row)) {
        continue;
      }
      if (maintainer.Remove(row) ==
          SkylineMaintainer::RemoveResult::kMemberRemovedRecomputeNeeded) {
        lost.push_back(row);
      }
    }
    if (!lost.empty()) {
      if (!options_.repair_deletes) continue;  // lazy: drop the entry
      Status repaired = RepairLostMembers(name, *new_state.table, new_version,
                                          *patched, lost, ctx, &maintainer);
      if (!repaired.ok()) {
        if (repaired.IsCancelled()) return repaired;
        continue;  // repair failed: fall back to invalidation
      }
      ++stats.entries_repaired;
    } else {
      ++stats.entries_patched;
    }
    AdoptMaintainerRows(maintainer, patched.get());
    patched->version = new_version;
    carried.push_back(std::move(patched));
  }

  stats.version = new_version;
  PublishMutation(name, std::move(new_state), std::move(carried), &stats);
  return stats;
}

Status Engine::RepairLostMembers(const std::string& name, const Table& table,
                                 uint64_t version, const CachedSkyline& entry,
                                 const std::vector<const char*>& lost,
                                 const ExecContext& ctx,
                                 SkylineMaintainer* maintainer) {
  const SkylineSpec& spec = *entry.spec;
  const SkylineConstraint box =
      LostDominanceBox(spec, entry.constraint, lost);
  SKYLINE_ASSIGN_OR_RETURN(
      CacheEntry region,
      ComputeEntry(name, table, version, SkylineSpec(spec), box,
                   options_.repair_algorithm, SfsOptions{}, ctx));
  // Surviving members inside the box are undominated there too, so the
  // region's skyline already holds them: keep only the members outside,
  // then offer the region's skyline.
  const Schema& schema = spec.schema();
  const size_t width = schema.row_width();
  std::vector<char> outside;
  for (size_t i = 0; i < maintainer->size(); ++i) {
    const char* member = maintainer->MemberAt(i);
    if (!box.Matches(schema, member)) {
      outside.insert(outside.end(), member, member + width);
    }
  }
  maintainer->Seed(outside.data(), outside.size() / width);
  for (size_t i = 0; i < region->count; ++i) {
    maintainer->Insert(region->rows.data() + i * width);
  }
  return Status::OK();
}

Engine::CacheCounters Engine::cache_counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

size_t Engine::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

// ---------------------------------------------------------------------------
// Session

Session::Session(Engine* engine, Options options)
    : engine_(engine), options_(std::move(options)) {
  exec_.threads = options_.threads;
}

SqlOptions Session::BuildSqlOptions() const {
  SqlOptions options;
  options.algorithm = options_.algorithm;
  options.sfs = options_.sfs;
  options.temp_prefix = options_.temp_prefix;
  options.exec = exec_;
  return options;
}

Status Session::Execute(const std::string& sql,
                        const std::function<Status(const RowView&)>& visitor,
                        Outcome* outcome) {
  SKYLINE_RETURN_IF_ERROR(exec_.CheckCancelled());
  TraceSpan parse_span(exec_.trace, "sql-parse");
  SKYLINE_ASSIGN_OR_RETURN(SqlStatement statement, ParseSql(sql));
  parse_span.End();

  if (const auto* select = std::get_if<SelectStatement>(&statement)) {
    return ExecuteSelectStatement(*select, visitor, outcome);
  }
  const SqlOptions options = BuildSqlOptions();
  if (const auto* insert = std::get_if<InsertStatement>(&statement)) {
    SKYLINE_ASSIGN_OR_RETURN(Engine::TableSnapshot snapshot,
                             engine_->Snapshot(insert->table));
    SKYLINE_ASSIGN_OR_RETURN(
        std::vector<char> rows,
        BindInsertRows(snapshot.table->schema(), insert->rows));
    SKYLINE_ASSIGN_OR_RETURN(
        Engine::MutationStats stats,
        engine_->InsertRows(insert->table, rows, options.exec));
    if (outcome != nullptr) {
      outcome->write = true;
      outcome->rows_affected = stats.rows_affected;
      outcome->mutation = stats;
    }
    return Status::OK();
  }
  const auto& del = std::get<DeleteStatement>(statement);
  SKYLINE_ASSIGN_OR_RETURN(
      Engine::MutationStats stats,
      engine_->DeleteWhere(del.table, del.predicates, options.exec));
  if (outcome != nullptr) {
    outcome->write = true;
    outcome->rows_affected = stats.rows_affected;
    outcome->mutation = stats;
  }
  return Status::OK();
}

Status Session::ExecuteSelectStatement(
    const SelectStatement& statement,
    const std::function<Status(const RowView&)>& visitor, Outcome* outcome) {
  const SqlOptions options = BuildSqlOptions();
  SKYLINE_ASSIGN_OR_RETURN(Engine::TableSnapshot snapshot,
                           engine_->Snapshot(statement.table));
  if (outcome != nullptr) outcome->info.explain = statement.explain;

  // Result-cache eligibility: a skyline query whose WHERE clause pushed
  // down completely (the cache key captures the whole box) and whose
  // output order is ours to choose (no ORDER BY — cached entries serve in
  // canonical order). Projection and LIMIT apply on the way out.
  if (options_.use_result_cache && statement.explain == ExplainMode::kNone &&
      !statement.skyline.empty() && statement.order_by.empty()) {
    SKYLINE_ASSIGN_OR_RETURN(BoundSelect bound,
                             BindSelect(snapshot.table.get(), statement));
    if (bound.residual.empty()) {
      bool hit = false;
      SKYLINE_ASSIGN_OR_RETURN(
          std::shared_ptr<const Engine::CachedSkyline> entry,
          engine_->QuerySkyline(statement.table, statement.skyline,
                                bound.constraint, options, &hit));
      if (outcome != nullptr) {
        outcome->cache_eligible = true;
        outcome->cache_hit = hit;
        outcome->info.executed = true;
      }
      return ServeCachedSkyline(statement, *entry, visitor, outcome);
    }
  }

  Catalog catalog(engine_->env());
  catalog.Register(statement.table, snapshot.table.get());
  auto counting_visitor = [&visitor, outcome](const RowView& row) {
    if (outcome != nullptr) ++outcome->rows_emitted;
    return visitor(row);
  };
  return ExecuteSelect(catalog, statement, options, counting_visitor,
                       outcome != nullptr ? &outcome->info : nullptr);
}

Status Session::ServeCachedSkyline(
    const SelectStatement& statement, const Engine::CachedSkyline& entry,
    const std::function<Status(const RowView&)>& visitor, Outcome* outcome) {
  const Schema& schema = entry.spec->schema();
  const size_t width = schema.row_width();
  const uint64_t limit =
      statement.limit.has_value() ? *statement.limit : UINT64_MAX;

  std::vector<size_t> projection;
  Schema projected;
  if (!statement.columns.empty()) {
    std::vector<ColumnDef> defs;
    defs.reserve(statement.columns.size());
    for (const auto& name : statement.columns) {
      SKYLINE_ASSIGN_OR_RETURN(size_t index, schema.ColumnIndex(name));
      projection.push_back(index);
      defs.push_back(schema.column(index));
    }
    SKYLINE_ASSIGN_OR_RETURN(projected, Schema::Make(std::move(defs)));
  }
  RowBuffer projected_row(projection.empty() ? &schema : &projected);

  uint64_t emitted = 0;
  for (size_t i = 0; i < entry.count && emitted < limit; ++i) {
    if ((i & 1023u) == 0) {
      SKYLINE_RETURN_IF_ERROR(exec_.CheckCancelled());
    }
    const char* row = entry.rows.data() + i * width;
    Status status;
    if (projection.empty()) {
      status = visitor(RowView(&schema, row));
    } else {
      for (size_t c = 0; c < projection.size(); ++c) {
        std::memcpy(projected_row.mutable_data() + projected.offset(c),
                    row + schema.offset(projection[c]),
                    schema.column_width(projection[c]));
      }
      status = visitor(projected_row.View());
    }
    SKYLINE_RETURN_IF_ERROR(status);
    ++emitted;
  }
  if (outcome != nullptr) outcome->rows_emitted = emitted;
  return Status::OK();
}

Result<std::string> Session::Explain(const std::string& sql) {
  SKYLINE_ASSIGN_OR_RETURN(SelectStatement statement, ParseSelect(sql));
  SKYLINE_ASSIGN_OR_RETURN(Engine::TableSnapshot snapshot,
                           engine_->Snapshot(statement.table));
  Catalog catalog(engine_->env());
  catalog.Register(statement.table, snapshot.table.get());
  return ExplainSql(catalog, sql, BuildSqlOptions());
}

}  // namespace skyline
