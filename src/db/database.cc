#include "db/database.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <string_view>

#include "common/check.h"
#include "cost/access_cost.h"
#include "db/query_parser.h"
#include "optimizer/predicate.h"

namespace mmdb {

namespace {

/// The paged indexes' buffer pool replaces at random, the policy of the
/// paper's fault model (DESIGN.md §5).
constexpr ReplacementPolicy kBufferPolicy = ReplacementPolicy::kRandom;
/// Stable memory of the transaction plane: the first-update table and, for
/// WalKind::kStable, the log buffer.
constexpr int64_t kStableMemoryBytes = 16 << 20;

/// Whether the B+-tree can key a column of `type`. Its keys compare by
/// memcmp, and only INT64 and CHAR have an order-preserving encoding.
bool BTreeKeys(ValueType type) {
  return type == ValueType::kInt64 || type == ValueType::kString;
}

/// The widest B+-tree key BuildIndex makes (CHAR keys are cut to 32 bytes).
constexpr int32_t kMaxBTreeKeyWidth = 32;

/// Writes `key` as the B+-tree's `width` key bytes to `out`. An INT64 key
/// is 8 bytes: big-endian with the sign bit flipped, so memcmp order is
/// numeric order over every INT64, negative keys included.
Status EncodeBTreeKey(const Value& key, int32_t width, char* out) {
  if (const int64_t* i = std::get_if<int64_t>(&key)) {
    const uint64_t u = static_cast<uint64_t>(*i) ^ (uint64_t{1} << 63);
    for (int b = 0; b < 8; ++b) out[b] = static_cast<char>(u >> (56 - 8 * b));
  } else if (const std::string* s = std::get_if<std::string>(&key)) {
    BPlusTree::EncodeStringKey(*s, out, width);
  } else {
    return Status::InvalidArgument("unsupported B+-tree key type");
  }
  return Status::OK();
}

}  // namespace

Database::Database(Options options)
    : options_(options),
      clock_(options.cost_params),
      disk_(options.page_size, &clock_, &metrics_),
      pool_(&disk_, options.buffer_pool_pages, kBufferPolicy,
            /*seed=*/42, &metrics_),
      catalog_(options.page_size) {
  exec_ctx_.disk = &disk_;
  exec_ctx_.clock = &clock_;
  exec_ctx_.memory_pages = options.memory_pages;
  exec_ctx_.fudge = options.cost_params.fudge;
  exec_ctx_.metrics = &metrics_;
  if (options.reuse_cache_bytes > 0) {
    ReuseCache::Options ro;
    ro.budget_bytes = options.reuse_cache_bytes;
    ro.min_cost_seconds = options.reuse_min_cost_seconds;
    reuse_cache_ = std::make_unique<ReuseCache>(ro, &metrics_);
    // Entries must not cross execution environments: the memory grant,
    // fudge factor and page size all change a hybrid join's spill split
    // and therefore its emission order.
    char tag[96];
    std::snprintf(tag, sizeof(tag), "m%lldf%.3gp%lld",
                  static_cast<long long>(options.memory_pages),
                  options.cost_params.fudge,
                  static_cast<long long>(options.page_size));
    reuse_cache_->SetEnvTag(tag);
    exec_ctx_.reuse_cache = reuse_cache_.get();
  }
}

std::string Database::MetricsJson() { return metrics_.ToJson(); }

Status Database::CreateTable(const std::string& name, Schema schema) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  return CreateTableLocked(name, std::move(schema));
}

Status Database::CreateTableLocked(const std::string& name, Schema schema) {
  if (tables_.count(name)) return Status::AlreadyExists("table " + name);
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table needs at least one column");
  }
  TableHolder holder;
  holder.relation = Relation(std::move(schema));
  tables_[name] = std::move(holder);
  InvalidateCatalog();
  return Status::OK();
}

Status Database::InsertRecords(const std::string& name, const Relation& rows) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  TableHolder& table = it->second;
  if (!(rows.schema() == table.relation.schema())) {
    return Status::InvalidArgument("schema mismatch in insert into " + name);
  }
  Status status = Status::OK();
  for (int64_t i = 0; i < rows.num_tuples() && status.ok(); ++i) {
    const char* rec = rows.record(i);
    const int64_t ordinal = table.relation.num_tuples();
    table.relation.Append(rec);
    // An index whose insert fails is dropped, frames and all, as a failed
    // rebuild's is: with no index delete it cannot be made whole, and a
    // column left unindexed is answered by a scan, never wrongly. The
    // row still goes into the table's other indexes.
    for (auto entry = table.indexes.begin(); entry != table.indexes.end();) {
      const Field key = Field::Of(rows.schema(), entry->second.column);
      const Status s = AddToIndex(&entry->second, key.Read(rec), ordinal);
      if (s.ok()) {
        ++entry;
        continue;
      }
      DropFrames(entry->second);
      entry = table.indexes.erase(entry);
      InvalidateCatalog();
      if (status.ok()) status = s;
    }
  }
  // The rows appended up to a failing index insert stay in the table, so
  // even a failed insert may have changed it.
  if (rows.num_tuples() > 0) {
    MarkStatisticsStale();
    if (reuse_cache_ != nullptr) reuse_cache_->InvalidateTable(name);
  }
  return status;
}

Status Database::BulkLoad(const std::string& name, const Relation& relation) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  return InsertRecords(name, relation);
}

StatusOr<const Relation*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return &it->second.relation;
}

AccessModelParams Database::ModelFor(const TableHolder& table,
                                     int column) const {
  AccessModelParams p;
  p.num_tuples = std::max<int64_t>(1, table.relation.num_tuples());
  p.tuple_width = table.relation.schema().record_size();
  p.key_width = table.relation.schema().column(column).width;
  p.page_size = options_.page_size;
  return p;
}

StatusOr<Database::IndexType> Database::PickIndexType(
    const std::string& table_name, const std::string& column) const {
  auto it = tables_.find(table_name);
  if (it == tables_.end()) return Status::NotFound("table " + table_name);
  MMDB_ASSIGN_OR_RETURN(int col,
                        it->second.relation.schema().ColumnIndex(column));
  if (!BTreeKeys(it->second.relation.schema().column(col).type)) {
    return IndexType::kAvl;
  }
  const AccessModelParams p = ModelFor(it->second, col);
  // H = fraction of the structure (≈ the database) resident given our
  // buffer budget; AVL wins only above the §2 break-even threshold.
  const double structure_pages =
      double(p.num_tuples) * (p.tuple_width + 2.0 * p.pointer_width) /
      double(p.page_size);
  const double h =
      std::min(1.0, double(options_.buffer_pool_pages) / structure_pages);
  return h >= BreakEvenH(p) ? IndexType::kAvl : IndexType::kBTree;
}

Status Database::BuildIndex(TableHolder* table, const std::string& table_name,
                            const std::string& column, IndexType type) {
  MMDB_ASSIGN_OR_RETURN(int col,
                        table->relation.schema().ColumnIndex(column));
  const Column& col_def = table->relation.schema().column(col);
  if (type == IndexType::kBTree && !BTreeKeys(col_def.type)) {
    return Status::InvalidArgument("a B+-tree cannot key column " + column +
                                   " (INT64 and CHAR only)");
  }
  IndexHolder index;
  index.type = type;
  index.column = col;
  index.key_width = col_def.type == ValueType::kString
                        ? std::min<int32_t>(col_def.width, kMaxBTreeKeyWidth)
                        : 8;
  switch (type) {
    case IndexType::kAvl:
      index.avl = std::make_unique<AvlTree>();
      break;
    case IndexType::kBTree: {
      index.btree_file = std::make_unique<PageFile>(
          &disk_, "btree_" + table_name + "_" + column);
      BTreeOptions bopts;
      bopts.key_width = index.key_width;
      bopts.payload_width = 8;
      index.btree = std::make_unique<BPlusTree>(&pool_, index.btree_file.get(),
                                                bopts);
      break;
    }
    case IndexType::kHash:
      index.hash = std::make_unique<HashIndex>();
      break;
    case IndexType::kAuto:
      return Status::Internal("kAuto must be resolved by caller");
  }
  const Field key = Field::Of(table->relation.schema(), col);
  Status status = Status::OK();
  for (int64_t i = 0; i < table->relation.num_tuples() && status.ok(); ++i) {
    status = AddToIndex(&index, key.Read(table->relation.record(i)), i);
  }
  if (!status.ok()) {
    DropFrames(index);
    return status;
  }
  table->indexes[column] = std::move(index);
  return Status::OK();
}

void Database::DropFrames(const IndexHolder& index) {
  if (index.btree_file == nullptr) return;
  // Only a pinned frame fails the drop, and under the exclusive latch no
  // statement holds one.
  const Status s = pool_.DropFile(index.btree_file->id());
  MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
}

Status Database::AddToIndex(IndexHolder* index, const Value& key,
                            int64_t ordinal) {
  switch (index->type) {
    case IndexType::kAvl:
      index->avl->Insert(key, ordinal);
      return Status::OK();
    case IndexType::kBTree: {
      char kbuf[kMaxBTreeKeyWidth];
      MMDB_RETURN_IF_ERROR(EncodeBTreeKey(key, index->key_width, kbuf));
      char payload[sizeof(ordinal)];
      std::memcpy(payload, &ordinal, sizeof(ordinal));
      return index->btree->Insert(kbuf, payload);
    }
    case IndexType::kHash:
      index->hash->Insert(key, ordinal);
      return Status::OK();
    case IndexType::kAuto:
      break;
  }
  return Status::Internal("unresolved index type");
}

Status Database::CreateIndex(const std::string& table_name,
                             const std::string& column, IndexType type) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  auto it = tables_.find(table_name);
  if (it == tables_.end()) return Status::NotFound("table " + table_name);
  if (it->second.indexes.count(column)) {
    return Status::AlreadyExists("index on " + table_name + "." + column);
  }
  if (type == IndexType::kAuto) {
    MMDB_ASSIGN_OR_RETURN(type, PickIndexType(table_name, column));
  }
  MMDB_RETURN_IF_ERROR(BuildIndex(&it->second, table_name, column, type));
  InvalidateCatalog();  // the planner must learn about the new index
  return Status::OK();
}

const Catalog& Database::catalog() {
  RefreshCatalog(/*statistics=*/true);
  return catalog_;
}

void Database::RefreshCatalog(bool statistics) {
  // Double-checked rebuild: concurrent read statements may all ask for the
  // catalog; only the first rebuilds (under catalog_mu_), the rest either
  // wait on the mutex or see the release-published clean flags. The flags
  // only turn stale under the exclusive latch, so a statement that found
  // them clean keeps a stable catalog for as long as it holds the latch.
  auto current = [&] {
    return !catalog_dirty_.load(std::memory_order_acquire) &&
           (!statistics || !stats_stale_.load(std::memory_order_acquire));
  };
  if (current()) return;
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  if (!current()) {
    catalog_ = Catalog(options_.page_size);
    for (const auto& [name, table] : tables_) {
      Status s = catalog_.RegisterTable(name, &table.relation);
      MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
      for (const auto& [column, index] : table.indexes) {
        IndexKind kind = IndexKind::kHash;
        switch (index.type) {
          case IndexType::kAvl:
            kind = IndexKind::kAvl;
            break;
          case IndexType::kBTree:
            kind = IndexKind::kBTree;
            break;
          case IndexType::kHash:
          case IndexType::kAuto:
            kind = IndexKind::kHash;
            break;
        }
        s = catalog_.RegisterIndex(name, column, kind);
        MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
      }
    }
    stats_stale_.store(false, std::memory_order_release);
    catalog_dirty_.store(false, std::memory_order_release);
  }
}

StatusOr<std::vector<int64_t>> Database::IndexOrdinals(
    const std::string& table_name, const Predicate& pred, CostClock* clock) {
  auto it = tables_.find(table_name);
  if (it == tables_.end()) return Status::NotFound("table " + table_name);
  auto idx_it = it->second.indexes.find(pred.column);
  if (idx_it == it->second.indexes.end()) {
    return Status::NotFound("no index on " + table_name + "." + pred.column);
  }
  IndexHolder& index = idx_it->second;
  const Relation& records = it->second.relation;
  const bool prefix = pred.op == CmpOp::kPrefix;
  if (!prefix && pred.op != CmpOp::kEq) {
    return Status::InvalidArgument("an index serves = and LIKE only");
  }
  if (prefix && index.type == IndexType::kHash) {
    return Status::FailedPrecondition("hash index cannot serve a prefix");
  }
  // Concurrent statements serialize on the index latch (the structures
  // mutate their operation counters on lookup) but charge their own clock.
  std::lock_guard<std::mutex> index_latch(*index.latch);
  if (clock == nullptr) clock = &clock_;
  std::vector<int64_t> out;
  Status status = Status::OK();
  // An index payload names a record of the table.
  auto in_table = [&](int64_t ordinal) {
    if (ordinal >= 0 && ordinal < records.num_tuples()) return true;
    status = Status::Internal("index payload out of range");
    return false;
  };

  if (index.type == IndexType::kHash) {
    const int64_t comps_before = index.hash->stats().comparisons;
    clock->Hash();
    index.hash->FindAll(pred.literal, [&](int64_t ordinal) {
      if (status.ok() && in_table(ordinal)) out.push_back(ordinal);
    });
    clock->Comp(index.hash->stats().comparisons - comps_before);
  } else if (index.type == IndexType::kAvl && !prefix) {
    const int64_t comps_before = index.avl->stats().comparisons;
    index.avl->ScanFrom(pred.literal, [&](const Value& key, int64_t ordinal) {
      if (!ValuesEqual(key, pred.literal) || !in_table(ordinal)) return false;
      out.push_back(ordinal);
      return true;
    });
    clock->Comp(index.avl->stats().comparisons - comps_before);
  } else {
    // Ordered scans: B+-tree equality, and AVL/B+-tree prefix queries, one
    // Comp per record visited. Whether `key` qualifies when both it and
    // the literal are cut to their first `width` bytes: the B+-tree keys a
    // CHAR column by its first key_width bytes, so its scan runs while
    // that prefix qualifies, and each row's full value decides whether it
    // is selected.
    auto qualifies = [&](const Value& key, size_t width) {
      if (TypeOf(key) != ValueType::kString) {
        return !prefix && ValuesEqual(key, pred.literal);
      }
      const std::string_view s =
          std::string_view(std::get<std::string>(key)).substr(0, width);
      const std::string_view p = std::string_view(
          std::get<std::string>(pred.literal)).substr(0, width);
      return prefix ? s.substr(0, p.size()) == p : s == p;
    };
    const size_t scan_width = index.type == IndexType::kBTree
                                  ? size_t(index.key_width)
                                  : std::string_view::npos;
    const Field key_field = Field::Of(records.schema(), index.column);
    auto visit = [&](int64_t ordinal) {
      if (!in_table(ordinal)) return false;
      clock->Comp();
      const Value key = key_field.Read(records.record(ordinal));
      if (!qualifies(key, scan_width)) return false;  // past range
      if (qualifies(key, std::string_view::npos)) out.push_back(ordinal);
      return true;
    };
    if (index.type == IndexType::kAvl) {
      index.avl->ScanFrom(pred.literal, [&](const Value&, int64_t ordinal) {
        return visit(ordinal);
      });
    } else {
      char kbuf[kMaxBTreeKeyWidth];
      MMDB_RETURN_IF_ERROR(
          EncodeBTreeKey(pred.literal, index.key_width, kbuf));
      MMDB_RETURN_IF_ERROR(index.btree->ScanFrom(
          kbuf, [&](const char*, const char* payload) {
            int64_t ordinal;
            std::memcpy(&ordinal, payload, sizeof(ordinal));
            return visit(ordinal);
          }));
    }
  }
  if (!status.ok()) return status;
  return out;
}

OptimizerOptions Database::PlannerOptions() const {
  OptimizerOptions opts;
  opts.memory_pages = options_.memory_pages;
  opts.cost_params = options_.cost_params;
  opts.w_cpu = options_.w_cpu;
  opts.hash_only = options_.planner_hash_only;
  opts.reuse_cache = reuse_cache_.get();
  opts.reuse_cost_discounts = options_.reuse_plan_discounts;
  return opts;
}

StatusOr<QueryResult> Database::ExecuteWith(const Query& query,
                                            ExecContext* ctx,
                                            PlanRunTrace* trace,
                                            const AggregateSpec* aggregate,
                                            AggStats* agg_stats) {
  return RunQuery(query, catalog(), PlannerOptions(), ctx, this, trace,
                  aggregate, agg_stats);
}

StatusOr<Database::SqlResult> Database::ExecuteSql(const std::string& sql) {
  TxnId durable_txn = kInvalidTxn;
  StatusOr<SqlResult> result = ExecuteSqlPreCommit(sql, &durable_txn);
  WaitSqlDurable(durable_txn);
  return result;
}

StatusOr<Database::SqlResult> Database::ExecuteSqlPreCommit(
    const std::string& sql, TxnId* durable_txn) {
  *durable_txn = kInvalidTxn;
  MMDB_ASSIGN_OR_RETURN(ParsedStatement stmt, PrepareSql(sql));
  return ExecutePrepared(std::move(stmt), durable_txn);
}

StatusOr<ParsedStatement> Database::PrepareSql(const std::string& sql) {
  // Parse under the SHARED latch (the parser only reads the catalog), so
  // concurrent writers overlap their parse work and the exclusive section
  // shrinks to the statement's actual apply. Name resolution is re-done
  // under the execute step's latch, and tables are never dropped, so a DDL
  // racing in between can only turn this statement into a clean error,
  // never corrupt it. The parse needs schemas and index sets, not
  // statistics: after an INSERT it leaves the statistics rebuild to the
  // next planning statement (a rebuild per INSERT made loading quadratic),
  // and it holds catalog_mu_ shared so a reader's rebuild cannot overlap it.
  std::shared_lock<std::shared_mutex> shared(latch_);
  RefreshCatalog(/*statistics=*/false);
  std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
  return ParseStatement(sql, catalog_);
}

StatusOr<Database::SqlResult> Database::ExecutePrepared(ParsedStatement stmt,
                                                        TxnId* durable_txn) {
  *durable_txn = kInvalidTxn;
  if (!stmt.is_write()) {
    std::shared_lock<std::shared_mutex> lock(latch_);
    return ExecuteSqlReadLocked(stmt);
  }
  std::unique_lock<std::shared_mutex> lock(latch_);
  StatusOr<SqlResult> result = ExecuteSqlWriteLocked(std::move(stmt));
  // §5.2 pre-commit at statement granularity: with the transactional
  // plane enabled, a successful write statement appends a commit record
  // while still holding the latch — log order therefore matches latch
  // order, so a later statement that read this one's effects commits
  // after it — and leaves the durability wait to the caller. Concurrent
  // sessions' waits then land in the same group-commit flush, the
  // paper's mechanism for beating one-log-write-per-commit.
  if (result.ok() && txn_enabled_ && wal_ != nullptr) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn_id = next_sql_stmt_txn_.fetch_add(1, std::memory_order_relaxed);
    wal_->AppendCommit(rec, {});
    *durable_txn = rec.txn_id;
  }
  return result;
}

void Database::WaitSqlDurable(TxnId txn) {
  if (txn == kInvalidTxn || wal_ == nullptr) return;
  wal_->WaitCommitDurable(txn);
}

bool Database::RowLockEligible(
    const std::string& table, const std::string& where_column,
    const std::vector<std::string>& set_columns) const {
  std::shared_lock<std::shared_mutex> lock(latch_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return false;
  const Schema& schema = it->second.relation.schema();
  if (schema.num_columns() == 0) return false;
  const std::string& key_column = schema.column(0).name;
  if (where_column != key_column) return false;
  for (const std::string& set_column : set_columns) {
    if (set_column == key_column) return false;
  }
  return true;
}

StatusOr<Database::SqlResult> Database::ExecuteSqlReadLocked(
    const ParsedStatement& stmt) {
  // Statement-local context: each concurrent reader charges a private
  // clock and metrics shard, merged when the statement finishes. Addition
  // commutes, so N statements produce the same totals in any interleaving
  // as they would serially.
  CostClock local_clock(options_.cost_params);
  MetricsRegistry local_metrics;
  ExecContext ctx = exec_ctx_;
  ctx.clock = &local_clock;
  ctx.metrics = &local_metrics;
  struct MergeOnExit {
    Database* db;
    CostClock* clock;
    MetricsRegistry* shard;
    ~MergeOnExit() {
      // The disk owns the only lock that already serializes charges to the
      // global clock (the checkpointer's I/O), so merge through it.
      db->disk_.MergeClock(*clock);
      db->metrics_.MergeFrom(*shard);
    }
  } merge{this, &local_clock, &local_metrics};

  SqlResult result;
  switch (stmt.kind) {
    case ParsedStatement::Kind::kExplain: {
      Optimizer optimizer(&catalog(), PlannerOptions());
      MMDB_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan,
                            optimizer.Optimize(stmt.query));
      result.plan_text = plan->ToString();
      return result;
    }
    case ParsedStatement::Kind::kExplainAnalyze:
    case ParsedStatement::Kind::kSelect: {
      const bool analyze = stmt.kind == ParsedStatement::Kind::kExplainAnalyze;
      // Aggregation and DISTINCT run as the plan's terminal step (§4: hash
      // aggregation composes freely over any join order).
      PlanRunTrace trace;
      AggStats agg_stats;
      MMDB_ASSIGN_OR_RETURN(
          QueryResult qr,
          ExecuteWith(stmt.query, &ctx, analyze ? &trace : nullptr,
                      stmt.aggregate.has_value() ? &*stmt.aggregate : nullptr,
                      &agg_stats));
      result.relation = std::move(qr.relation);
      result.plan_text = std::move(qr.plan_text);
      result.analyzed = analyze;
      if (analyze && stmt.aggregate.has_value()) {
        // Summarize the aggregation as one extra line so EXPLAIN ANALYZE
        // covers the whole statement.
        char buf[160];
        std::snprintf(
            buf, sizeof(buf),
            "%s\n    (actual groups=%lld %s partitions=%lld cost=%.3fs)\n",
            stmt.aggregate->aggregates.empty() ? "ProjectDistinct"
                                               : "HashAggregate",
            static_cast<long long>(agg_stats.groups),
            agg_stats.one_pass ? "one-pass" : "partitioned",
            static_cast<long long>(agg_stats.partitions),
            agg_stats.cost_seconds);
        result.plan_text += buf;
      }
      return result;
    }
    case ParsedStatement::Kind::kBegin:
    case ParsedStatement::Kind::kCommit:
    case ParsedStatement::Kind::kRollback:
      return Status::InvalidArgument(
          "BEGIN, COMMIT and ROLLBACK need a server session");
    case ParsedStatement::Kind::kCreateTable:
    case ParsedStatement::Kind::kInsert:
    case ParsedStatement::Kind::kUpdate:
      return Status::Internal("statement classification mismatch: write "
                              "statement on the read path");
  }
  return Status::Internal("unhandled statement kind");
}

StatusOr<Database::SqlResult> Database::ExecuteSqlWriteLocked(
    ParsedStatement&& stmt) {
  SqlResult result;
  switch (stmt.kind) {
    case ParsedStatement::Kind::kCreateTable: {
      MMDB_RETURN_IF_ERROR(CreateTableLocked(stmt.table_name, stmt.schema));
      return result;
    }
    case ParsedStatement::Kind::kInsert: {
      MMDB_RETURN_IF_ERROR(InsertRecords(stmt.table_name, stmt.rows));
      result.rows_affected = stmt.rows.num_tuples();
      return result;
    }
    case ParsedStatement::Kind::kUpdate: {
      MMDB_RETURN_IF_ERROR(ExecuteUpdateLocked(stmt, &result.rows_affected));
      return result;
    }
    case ParsedStatement::Kind::kSelect:
    case ParsedStatement::Kind::kExplain:
    case ParsedStatement::Kind::kExplainAnalyze:
    case ParsedStatement::Kind::kBegin:
    case ParsedStatement::Kind::kCommit:
    case ParsedStatement::Kind::kRollback:
      return Status::Internal("statement classification mismatch: read "
                              "statement on the write path");
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::ExecuteUpdateLocked(const ParsedStatement& stmt,
                                     int64_t* rows_affected) {
  auto it = tables_.find(stmt.table_name);
  if (it == tables_.end()) return Status::NotFound("table " + stmt.table_name);
  TableHolder& table = it->second;
  const Schema& schema = table.relation.schema();
  // Each assignment as the field bytes it writes, encoded (and checked
  // against the column: type and CHAR width) before any record changes.
  struct Set {
    int column;
    int32_t offset;
    std::vector<char> bytes;
  };
  std::vector<Set> sets;
  sets.reserve(stmt.set_clauses.size());
  for (const ParsedStatement::SetClause& sc : stmt.set_clauses) {
    MMDB_ASSIGN_OR_RETURN(int idx, schema.ColumnIndex(sc.column));
    Set set{idx, schema.offset(idx),
            std::vector<char>(static_cast<size_t>(schema.column(idx).width))};
    MMDB_RETURN_IF_ERROR(
        WriteField(schema.column(idx), sc.value, set.bytes.data()));
    sets.push_back(std::move(set));
  }
  std::vector<BoundPredicate> filters;
  filters.reserve(stmt.query.filters.size());
  for (const Predicate& p : stmt.query.filters) {
    MMDB_ASSIGN_OR_RETURN(int idx, schema.ColumnIndex(p.column));
    filters.emplace_back(p, schema, idx);
  }
  // Point-update fast path (DESIGN.md §11): a single equality predicate on
  // a hash- or AVL-indexed column resolves its target ordinals through the
  // index instead of scanning the table, shrinking the exclusive-latch
  // section that the server's row-granularity point writers serialize on.
  // The probe is not charged to the cost clock; each candidate's re-check
  // below is.
  std::vector<int64_t> ordinals;
  bool fast_path = false;
  if (stmt.query.filters.size() == 1 &&
      stmt.query.filters[0].op == CmpOp::kEq) {
    const Predicate& pred = stmt.query.filters[0];
    auto idx_it = table.indexes.find(pred.column);
    if (idx_it != table.indexes.end() &&
        TypeOf(pred.literal) == schema.column(idx_it->second.column).type &&
        (idx_it->second.type == IndexType::kHash ||
         idx_it->second.type == IndexType::kAvl)) {
      CostClock unbilled(options_.cost_params);
      MMDB_ASSIGN_OR_RETURN(ordinals,
                            IndexOrdinals(stmt.table_name, pred, &unbilled));
      fast_path = true;
    }
  }
  // Charge a local clock and merge through the disk (whose mutex already
  // serializes global-clock charges against the checkpointer's I/O).
  CostClock local_clock(options_.cost_params);
  // Writes the assignments into record `ord`, in place.
  auto apply = [&](int64_t ord) {
    char* rec = table.relation.mutable_record(ord);
    for (const Set& set : sets) {
      local_clock.Move();
      std::memcpy(rec + set.offset, set.bytes.data(), set.bytes.size());
    }
  };
  int64_t matched = 0;
  if (fast_path) {
    for (int64_t ord : ordinals) {
      local_clock.Comp();
      // Re-verify against the live record: one comparison buys immunity to
      // any future index-staleness bug on this write path.
      if (!filters[0].Matches(table.relation.record(ord))) continue;
      apply(ord);
      ++matched;
    }
    metrics_.Add("sql.update.index_fast_path", 1);
  } else {
    // The block pipeline's loop (DESIGN.md §14): each block's survivors
    // are written while the block is still in cache.
    int64_t comps = 0;
    SelectBlocks(table.relation, nullptr, table.relation.num_tuples(),
                 filters, &comps, [&](const int64_t* ords, int64_t k) {
                   for (int64_t i = 0; i < k; ++i) apply(ords[i]);
                   matched += k;
                 });
    local_clock.Comp(comps);
  }
  disk_.MergeClock(local_clock);
  // Rebuild every index whose key column was assigned. The index
  // structures have no delete, since the dialect has no DELETE; moving one
  // row's entry would need a delete matching (key, ordinal) in all three,
  // and an UPDATE of an indexed key is rare enough that a whole rebuild is
  // the one maintenance path. The old index goes first, frames and all: its
  // PageFile deletes its disk file, and a dirty frame evicted later would
  // be written to a file that no longer exists. A rebuild that fails
  // leaves its column unindexed, never stale.
  std::vector<std::pair<std::string, IndexType>> rebuilds;
  for (const auto& entry : table.indexes) {
    for (const Set& set : sets) {
      if (entry.second.column == set.column) {
        rebuilds.emplace_back(entry.first, entry.second.type);
        break;
      }
    }
  }
  Status status = Status::OK();
  for (const auto& [column, type] : rebuilds) {
    auto idx_it = table.indexes.find(column);
    DropFrames(idx_it->second);
    table.indexes.erase(idx_it);
    const Status s = BuildIndex(&table, stmt.table_name, column, type);
    if (status.ok()) status = s;
  }
  // UPDATE changes no schema or cardinality, so the catalog stays valid
  // unless an index was rebuilt or lost, failed or not. Column value
  // statistics go stale until the next invalidation — the standard
  // stale-statistics trade every optimizer makes (a per-update stats
  // rescan would serialize the whole session mix behind catalog_mu_).
  if (!rebuilds.empty()) InvalidateCatalog();
  // Reuse-cache invalidation (DESIGN.md §15) runs under the exclusive
  // latch, before any reader can plan against the new data: the version
  // bump retires every fingerprint that read this table, and the entries
  // drop eagerly. The table name here is the same string the server's
  // table-lock namespace uses, so a locked writer invalidates exactly what
  // its lock covers.
  if (reuse_cache_ != nullptr) reuse_cache_->InvalidateTable(stmt.table_name);
  metrics_.Add("sql.update.statements", 1);
  metrics_.Add("sql.update.rows", matched);
  *rows_affected = matched;
  return status;
}

Status Database::EnableTransactions(const TxnPlaneOptions& options) {
  if (txn_enabled_) return Status::FailedPrecondition("already enabled");
  txn_options_ = options;
  stable_ = std::make_unique<StableMemory>(kStableMemoryBytes);
  if (options.fault_injector != nullptr) {
    disk_.set_fault_injector(options.fault_injector);
    stable_->set_fault_injector(options.fault_injector);
  }

  using WalKind = TxnPlaneOptions::WalKind;
  // The partitioned log stripes over log_partitions devices; every other
  // kind writes one. Device i is the fault injector's entity i.
  const int num_devices =
      options.wal_kind == WalKind::kPartitioned ? options.log_partitions : 1;
  std::vector<LogDevice*> devices;
  for (int i = 0; i < num_devices; ++i) {
    log_devices_.push_back(std::make_unique<LogDevice>(
        options_.page_size, options.log_write_latency));
    log_devices_.back()->set_fault_injector(options.fault_injector, i);
    devices.push_back(log_devices_.back().get());
  }
  if (options.wal_kind == WalKind::kStable) {
    StableLogOptions so;
    so.compress = options.compress_stable_log;
    wal_ = std::make_unique<StableLogBuffer>(stable_.get(), devices[0], so,
                                             &metrics_);
  } else {
    GroupCommitLogOptions gc;
    gc.group_commit = options.wal_kind != WalKind::kSingleNoGroupCommit;
    wal_ = std::make_unique<GroupCommitLog>(std::move(devices), gc,
                                            &metrics_);
  }
  store_ = std::make_unique<RecoverableStore>(
      &disk_, options.num_records, options.record_size, options_.page_size);
  fut_ = std::make_unique<FirstUpdateTable>(stable_.get(),
                                            store_->num_pages());
  ResetTxnManager(/*first_txn_id=*/1);
  checkpointer_ = std::make_unique<Checkpointer>(
      store_.get(), fut_.get(), wal_.get(), options.checkpointer_options,
      &metrics_);
  backup_ = std::make_unique<BackupManager>(store_.get(), wal_.get(),
                                            txn_manager_.get(), &metrics_);

  wal_->Start();
  if (options.start_checkpointer) checkpointer_->Start();
  txn_enabled_ = true;
  return Status::OK();
}

void Database::ResetTxnManager(TxnId first_txn_id) {
  lock_manager_ = std::make_unique<LockManager>(
      LockManager::kDefaultWaitTimeout, &metrics_, "locks");
  if (txn_options_.enable_versioning) {
    versions_ = std::make_unique<MvccManager>(store_.get(), &metrics_);
  }
  txn_manager_ = std::make_unique<TransactionManager>(
      store_.get(), lock_manager_.get(), wal_.get(), fut_.get(), first_txn_id,
      versions_.get(), &metrics_);
  // The backup manager outlives recoveries; it must not read the old one.
  if (backup_ != nullptr) backup_->set_txn_manager(txn_manager_.get());
  // MVCC interaction (DESIGN.md §15): SQL plans never read the record
  // plane, so its commits cannot make a cached SQL result stale — but the
  // reserved namespace documents (and tests) the channel: every committed
  // record-plane transaction bumps one version the way a table write
  // would, after its locks are finalized.
  if (reuse_cache_ != nullptr) {
    txn_manager_->set_commit_hook([this](TxnId) {
      reuse_cache_->InvalidateTable("<txn-records>");
    });
  }
}

Status Database::RestoreFromBackup(
    const std::vector<const BackupImage*>& chain,
    const RestoreOptions& options) {
  if (!txn_enabled_) return Status::FailedPrecondition("transactions off");
  return BackupManager::RestoreChain(chain, store_.get(), fut_.get(),
                                     options);
}

StatusOr<int64_t> Database::CheckpointNow() {
  if (!txn_enabled_) return Status::FailedPrecondition("transactions off");
  return checkpointer_->CheckpointOnce();
}

Status Database::Crash() {
  if (!txn_enabled_) return Status::FailedPrecondition("transactions off");
  // A crash can land inside instant recovery's serving window: join the
  // sweep first so no replay write races the memory wipe below. Its
  // in-memory progress is lost with the rest of volatile state — the next
  // Recover() re-enters analysis and rebuilds the index from the log.
  if (recovery_ctl_ != nullptr) recovery_ctl_->Stop();
  checkpointer_->Stop();
  wal_->CrashStop();  // flusher threads die; buffered bytes are LOST
  store_->SimulateCrash();
  return Status::OK();
}

StatusOr<RecoveryStats> Database::Recover(RecoveryOptions options) {
  if (!txn_enabled_) return Status::FailedPrecondition("transactions off");
  // Retire (don't destroy) any previous instant-recovery controller: an
  // access guard call in flight on another thread may still reference it.
  // Stopped controllers are inert; they are freed with the Database.
  if (recovery_ctl_ != nullptr) {
    recovery_ctl_->Stop();
    retired_recovery_ctls_.push_back(std::move(recovery_ctl_));
  }

  // One plan, two schedules (DESIGN.md §12): blocking restores it here,
  // instant hands it to a RecoveryController once the WAL runs.
  MMDB_ASSIGN_OR_RETURN(
      InstantRecoveryPlan plan,
      AnalyzeInstantRecovery(store_.get(), wal_.get(), fut_.get(), options));
  const bool instant = options.mode == RecoveryMode::kInstant;
  RecoveryStats stats = plan.stats;
  if (!instant) {
    MMDB_ASSIGN_OR_RETURN(
        stats, RestoreInline(store_.get(), fut_.get(), plan, options));
  }
  metrics_.Add("recovery.runs", 1);
  metrics_.Add("recovery.log_records_scanned", stats.log_records_scanned);
  metrics_.Add("recovery.redo_applied", stats.redo_applied);
  metrics_.Add("recovery.undo_applied", stats.undo_applied);
  metrics_.Add("recovery.snapshot_pages_read", stats.snapshot_pages_read);
  metrics_.Add("recovery.corrupt_records_skipped",
               stats.corrupt_records_skipped);
  // Fresh lock table, version chains, and manager state; restart the
  // background threads. New transaction ids start above everything in the
  // log; version chains are volatile and restart empty.
  ResetTxnManager(stats.max_txn_id + 1);
  // Keep the SQL-statement commit-id namespace disjoint from the record
  // plane across restarts: seed it past every SQL commit id in the log
  // (max_txn_id above excludes those, so the record plane stays below
  // kSqlStmtTxnBase). Never move the counter backwards — an in-process
  // Crash()/Recover() may have ids beyond what survived in the log.
  const TxnId sql_seed =
      std::max(kSqlStmtTxnBase, stats.max_sql_stmt_txn_id + 1);
  if (next_sql_stmt_txn_.load(std::memory_order_relaxed) < sql_seed) {
    next_sql_stmt_txn_.store(sql_seed, std::memory_order_relaxed);
  }
  wal_->Start();
  if (instant) {
    // Serving starts NOW; the controller restores records behind the
    // guard. The checkpointer stays down until the sweep drains —
    // checkpointing a page with unrestored records would reset its
    // first-update entry while the page image is still stale, losing redo
    // if we crash again before the sweep reaches it.
    recovery_ctl_ = std::make_unique<RecoveryController>(
        store_.get(), fut_.get(), wal_.get(), std::move(plan), options,
        /*on_complete=*/
        [this] {
          if (txn_options_.start_checkpointer) checkpointer_->Start();
        },
        &metrics_);
    recovery_ctl_->Start();
  } else if (txn_options_.start_checkpointer) {
    checkpointer_->Start();
  }
  return stats;
}

Status Database::WaitRecoveryDrained() {
  if (!txn_enabled_) return Status::FailedPrecondition("transactions off");
  if (recovery_ctl_ == nullptr) return Status::OK();
  return recovery_ctl_->WaitComplete();
}

}  // namespace mmdb
