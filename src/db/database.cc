#include "db/database.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <mutex>
#include <shared_mutex>

#include "common/check.h"
#include "cost/access_cost.h"
#include "db/query_parser.h"
#include "optimizer/predicate.h"

namespace mmdb {

Database::Database(Options options)
    : options_(options),
      clock_(options.cost_params),
      disk_(options.page_size, &clock_, &metrics_),
      pool_(&disk_, options.buffer_pool_pages, options.buffer_policy,
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

Status Database::Insert(const std::string& name, Row row) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  TableHolder& table = it->second;
  const Schema& schema = table.relation.schema();
  if (static_cast<int>(row.size()) != schema.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (TypeOf(row[static_cast<size_t>(c)]) != schema.column(c).type) {
      return Status::InvalidArgument("type mismatch in column " +
                                     schema.column(c).name);
    }
  }
  const int64_t ordinal = table.relation.num_tuples();
  // Maintain indexes.
  for (auto& [col_name, index] : table.indexes) {
    const Value& key = row[static_cast<size_t>(index.column)];
    switch (index.type) {
      case IndexType::kAvl:
        index.avl->Insert(key, ordinal);
        break;
      case IndexType::kBTree: {
        std::vector<char> kbuf(static_cast<size_t>(index.key_width));
        if (TypeOf(key) == ValueType::kInt64) {
          BPlusTree::EncodeInt64Key(std::get<int64_t>(key), kbuf.data(),
                                    index.key_width);
        } else if (TypeOf(key) == ValueType::kString) {
          BPlusTree::EncodeStringKey(std::get<std::string>(key), kbuf.data(),
                                     index.key_width);
        } else {
          return Status::InvalidArgument("unsupported B+-tree key type");
        }
        char payload[8];
        std::memcpy(payload, &ordinal, sizeof(ordinal));
        MMDB_RETURN_IF_ERROR(index.btree->Insert(kbuf.data(), payload));
        break;
      }
      case IndexType::kHash:
        index.hash->Insert(key, ordinal);
        break;
      case IndexType::kAuto:
        return Status::Internal("unresolved index type");
    }
  }
  table.relation.Add(std::move(row));
  MarkStatisticsStale();
  if (reuse_cache_ != nullptr) reuse_cache_->InvalidateTable(name);
  return Status::OK();
}

Status Database::BulkLoad(const std::string& name, Relation relation) {
  std::unique_lock<std::shared_mutex> lock(latch_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  if (!(relation.schema() == it->second.relation.schema())) {
    return Status::InvalidArgument("schema mismatch in bulk load");
  }
  for (Row& row : relation.mutable_rows()) {
    MMDB_RETURN_IF_ERROR(Insert(name, std::move(row)));
  }
  return Status::OK();
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
  IndexHolder index;
  index.type = type;
  index.column = col;
  const Column& col_def = table->relation.schema().column(col);
  index.key_width = col_def.type == ValueType::kString
                        ? std::min<int32_t>(col_def.width, 32)
                        : 8;
  switch (type) {
    case IndexType::kAvl: {
      index.avl = std::make_unique<AvlTree>();
      int64_t ordinal = 0;
      for (const Row& row : table->relation.rows()) {
        index.avl->Insert(row[static_cast<size_t>(col)], ordinal++);
      }
      break;
    }
    case IndexType::kBTree: {
      index.btree_file = std::make_unique<PageFile>(
          &disk_, "btree_" + table_name + "_" + column);
      BTreeOptions bopts;
      bopts.key_width = index.key_width;
      bopts.payload_width = 8;
      index.btree = std::make_unique<BPlusTree>(&pool_, index.btree_file.get(),
                                                bopts);
      std::vector<char> kbuf(static_cast<size_t>(index.key_width));
      int64_t ordinal = 0;
      for (const Row& row : table->relation.rows()) {
        const Value& key = row[static_cast<size_t>(col)];
        if (TypeOf(key) == ValueType::kInt64) {
          BPlusTree::EncodeInt64Key(std::get<int64_t>(key), kbuf.data(),
                                    index.key_width);
        } else if (TypeOf(key) == ValueType::kString) {
          BPlusTree::EncodeStringKey(std::get<std::string>(key), kbuf.data(),
                                     index.key_width);
        } else {
          return Status::InvalidArgument("unsupported B+-tree key type");
        }
        char payload[8];
        std::memcpy(payload, &ordinal, sizeof(ordinal));
        MMDB_RETURN_IF_ERROR(index.btree->Insert(kbuf.data(), payload));
        ++ordinal;
      }
      break;
    }
    case IndexType::kHash: {
      index.hash = std::make_unique<HashIndex>();
      int64_t ordinal = 0;
      for (const Row& row : table->relation.rows()) {
        index.hash->Insert(row[static_cast<size_t>(col)], ordinal++);
      }
      break;
    }
    case IndexType::kAuto:
      return Status::Internal("kAuto must be resolved by caller");
  }
  table->indexes[column] = std::move(index);
  return Status::OK();
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

StatusOr<Row> Database::RowByOrdinal(const TableHolder& table,
                                     int64_t ordinal) const {
  if (ordinal < 0 || ordinal >= table.relation.num_tuples()) {
    return Status::Internal("index payload out of range");
  }
  return table.relation.rows()[static_cast<size_t>(ordinal)];
}

Status Database::IndexRangeScanLocked(
    const TableHolder& table, IndexHolder& index, const Value& low,
    const std::function<bool(const Row&)>& fn) {
  switch (index.type) {
    case IndexType::kAvl: {
      Status status = Status::OK();
      index.avl->ScanFrom(
          low,
          [&](const Value&, int64_t ordinal) {
            StatusOr<Row> row = RowByOrdinal(table, ordinal);
            if (!row.ok()) {
              status = row.status();
              return false;
            }
            return fn(*row);
          });
      return status;
    }
    case IndexType::kBTree: {
      std::vector<char> kbuf(static_cast<size_t>(index.key_width));
      if (TypeOf(low) == ValueType::kInt64) {
        BPlusTree::EncodeInt64Key(std::get<int64_t>(low), kbuf.data(),
                                  index.key_width);
      } else if (TypeOf(low) == ValueType::kString) {
        BPlusTree::EncodeStringKey(std::get<std::string>(low), kbuf.data(),
                                   index.key_width);
      } else {
        return Status::InvalidArgument("unsupported B+-tree key type");
      }
      Status status = Status::OK();
      MMDB_RETURN_IF_ERROR(index.btree->ScanFrom(
          kbuf.data(),
          [&](const char*, const char* payload) {
            int64_t ordinal;
            std::memcpy(&ordinal, payload, sizeof(ordinal));
            StatusOr<Row> row = RowByOrdinal(table, ordinal);
            if (!row.ok()) {
              status = row.status();
              return false;
            }
            return fn(*row);
          }));
      return status;
    }
    case IndexType::kHash:
      return Status::FailedPrecondition(
          "hash indexes do not support ordered scans");
    case IndexType::kAuto:
      break;
  }
  return Status::Internal("unresolved index type");
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

StatusOr<Relation> Database::IndexLookupAll(const std::string& table_name,
                                            const Predicate& pred,
                                            ExecContext* ctx) {
  auto it = tables_.find(table_name);
  if (it == tables_.end()) return Status::NotFound("table " + table_name);
  auto idx_it = it->second.indexes.find(pred.column);
  if (idx_it == it->second.indexes.end()) {
    return Status::NotFound("no index on " + table_name + "." + pred.column);
  }
  IndexHolder& index = idx_it->second;
  const TableHolder& table = it->second;
  // Concurrent statements serialize on the index latch (the structures
  // mutate their operation counters on lookup) but charge their own clock.
  std::lock_guard<std::mutex> index_latch(*index.latch);
  CostClock* clock =
      ctx != nullptr && ctx->clock != nullptr ? ctx->clock : &clock_;
  Relation out(table.relation.schema());
  auto emit = [&](int64_t ordinal) -> Status {
    MMDB_ASSIGN_OR_RETURN(Row row, RowByOrdinal(table, ordinal));
    out.Add(std::move(row));
    return Status::OK();
  };

  if (pred.op == CmpOp::kEq) {
    switch (index.type) {
      case IndexType::kHash: {
        const int64_t comps_before = index.hash->stats().comparisons;
        Status status = Status::OK();
        clock->Hash();
        index.hash->FindAll(pred.literal, [&](int64_t ordinal) {
          if (status.ok()) status = emit(ordinal);
        });
        clock->Comp(index.hash->stats().comparisons - comps_before);
        return status.ok() ? StatusOr<Relation>(std::move(out))
                           : StatusOr<Relation>(status);
      }
      case IndexType::kAvl: {
        const int64_t comps_before = index.avl->stats().comparisons;
        Status status = Status::OK();
        index.avl->ScanFrom(pred.literal, [&](const Value& k, int64_t ord) {
          if (!ValuesEqual(k, pred.literal)) return false;
          if (status.ok()) status = emit(ord);
          return status.ok();
        });
        clock->Comp(index.avl->stats().comparisons - comps_before);
        return status.ok() ? StatusOr<Relation>(std::move(out))
                           : StatusOr<Relation>(status);
      }
      case IndexType::kBTree:
        break;  // handled below via the shared ordered-scan path
      case IndexType::kAuto:
        return Status::Internal("unresolved index type");
    }
  }
  // Ordered scans: B+-tree equality, and AVL/B+-tree prefix queries.
  const bool prefix = pred.op == CmpOp::kPrefix;
  if (!prefix && pred.op != CmpOp::kEq) {
    return Status::InvalidArgument("IndexLookupAll serves = and LIKE only");
  }
  if (index.type == IndexType::kHash) {
    return Status::FailedPrecondition("hash index cannot serve a prefix");
  }
  Status status = Status::OK();
  auto qualifies = [&](const Value& key) {
    if (!prefix) return ValuesEqual(key, pred.literal);
    if (TypeOf(key) != ValueType::kString) return false;
    const std::string& s = std::get<std::string>(key);
    const std::string& p = std::get<std::string>(pred.literal);
    return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
  };
  const int col_index = index.column;
  MMDB_RETURN_IF_ERROR(IndexRangeScanLocked(
      table, index, pred.literal, [&](const Row& row) {
        clock->Comp();
        if (!qualifies(row[size_t(col_index)])) return false;  // past range
        if (status.ok()) {
          out.Add(row);
        }
        return status.ok();
      }));
  MMDB_RETURN_IF_ERROR(status);
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

bool Database::IsWriteSql(const std::string& sql) {
  size_t i = 0;
  while (i < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[i]))) {
    ++i;
  }
  std::string kw;
  while (i < sql.size() &&
         std::isalpha(static_cast<unsigned char>(sql[i]))) {
    kw.push_back(static_cast<char>(
        std::toupper(static_cast<unsigned char>(sql[i]))));
    ++i;
  }
  return kw == "CREATE" || kw == "INSERT" || kw == "UPDATE";
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
  if (IsWriteSql(sql)) {
    // Parse under the SHARED latch (the parser only reads the catalog), so
    // concurrent writers overlap their parse work and the exclusive
    // section shrinks to the statement's actual apply. Name resolution is
    // re-done under the exclusive latch, so a DDL racing in between can
    // only turn this statement into a clean error, never corrupt it. The
    // parse needs schemas and index sets, not statistics: after an INSERT
    // it leaves the statistics rebuild to the next planning statement (a
    // rebuild per INSERT made loading quadratic), and it holds catalog_mu_
    // shared so a reader's rebuild cannot overlap it.
    StatusOr<ParsedStatement> parsed = [&]() -> StatusOr<ParsedStatement> {
      std::shared_lock<std::shared_mutex> shared(latch_);
      RefreshCatalog(/*statistics=*/false);
      std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
      return ParseStatement(sql, catalog_);
    }();
    if (!parsed.ok()) return parsed.status();
    std::unique_lock<std::shared_mutex> lock(latch_);
    StatusOr<SqlResult> result = ExecuteSqlWriteLocked(*parsed);
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
  std::shared_lock<std::shared_mutex> lock(latch_);
  return ExecuteSqlReadLocked(sql);
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
    const std::string& sql) {
  MMDB_ASSIGN_OR_RETURN(ParsedStatement stmt, ParseStatement(sql, catalog()));
  // Statement-local context: each concurrent reader charges a private
  // clock and metrics shard, merged when the statement finishes. Addition
  // commutes, so N statements produce the same totals in any interleaving
  // as they would serially (the same discipline the DOP>1 operators use).
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
      // global clock (checkpointer, parallel spills), so merge through it.
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
    case ParsedStatement::Kind::kCreateTable:
    case ParsedStatement::Kind::kInsert:
    case ParsedStatement::Kind::kUpdate:
      return Status::Internal("statement classification mismatch: write "
                              "statement on the read path");
  }
  return Status::Internal("unhandled statement kind");
}

StatusOr<Database::SqlResult> Database::ExecuteSqlWriteLocked(
    const ParsedStatement& stmt_in) {
  ParsedStatement stmt = stmt_in;
  SqlResult result;
  switch (stmt.kind) {
    case ParsedStatement::Kind::kCreateTable: {
      MMDB_RETURN_IF_ERROR(CreateTableLocked(stmt.table_name, stmt.schema));
      return result;
    }
    case ParsedStatement::Kind::kInsert: {
      MMDB_ASSIGN_OR_RETURN(const Relation* table, GetTable(stmt.table_name));
      const Schema& schema = table->schema();
      for (Row& row : stmt.rows) {
        // Numeric coercion: integer literals into DOUBLE columns.
        if (static_cast<int>(row.size()) == schema.num_columns()) {
          for (int c = 0; c < schema.num_columns(); ++c) {
            if (schema.column(c).type == ValueType::kDouble &&
                std::holds_alternative<int64_t>(row[size_t(c)])) {
              row[size_t(c)] =
                  Value{double(std::get<int64_t>(row[size_t(c)]))};
            }
          }
        }
        MMDB_RETURN_IF_ERROR(Insert(stmt.table_name, std::move(row)));
        ++result.rows_affected;
      }
      return result;
    }
    case ParsedStatement::Kind::kUpdate: {
      MMDB_RETURN_IF_ERROR(ExecuteUpdateLocked(stmt, &result.rows_affected));
      return result;
    }
    case ParsedStatement::Kind::kSelect:
    case ParsedStatement::Kind::kExplain:
    case ParsedStatement::Kind::kExplainAnalyze:
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
  std::vector<std::pair<int, const Value*>> sets;
  sets.reserve(stmt.set_clauses.size());
  for (const ParsedStatement::SetClause& sc : stmt.set_clauses) {
    MMDB_ASSIGN_OR_RETURN(int idx, schema.ColumnIndex(sc.column));
    sets.emplace_back(idx, &sc.value);
  }
  std::vector<int> filter_cols;
  filter_cols.reserve(stmt.query.filters.size());
  for (const Predicate& p : stmt.query.filters) {
    MMDB_ASSIGN_OR_RETURN(int idx, schema.ColumnIndex(p.column));
    filter_cols.push_back(idx);
  }
  // Point-update fast path (DESIGN.md §11): a single equality predicate on
  // an indexed column resolves its target ordinals through the index
  // instead of scanning the table, shrinking the exclusive-latch section
  // that the server's row-granularity point writers serialize on.
  std::vector<int64_t> ordinals;
  bool fast_path = false;
  if (stmt.query.filters.size() == 1 &&
      stmt.query.filters[0].op == CmpOp::kEq) {
    const Predicate& pred = stmt.query.filters[0];
    auto idx_it = table.indexes.find(pred.column);
    if (idx_it != table.indexes.end()) {
      IndexHolder& index = idx_it->second;
      if (TypeOf(pred.literal) == schema.column(filter_cols[0]).type &&
          (index.type == IndexType::kHash || index.type == IndexType::kAvl)) {
        std::lock_guard<std::mutex> index_latch(*index.latch);
        if (index.type == IndexType::kHash) {
          index.hash->FindAll(pred.literal,
                              [&](int64_t ord) { ordinals.push_back(ord); });
        } else {
          index.avl->ScanFrom(pred.literal,
                              [&](const Value& key, int64_t ord) {
                                if (!ValuesEqual(key, pred.literal)) {
                                  return false;
                                }
                                ordinals.push_back(ord);
                                return true;
                              });
        }
        fast_path = true;
      }
    }
  }
  // Charge a local clock and merge through the disk (whose mutex already
  // serializes global-clock charges against the checkpointer's I/O).
  CostClock local_clock(options_.cost_params);
  int64_t matched = 0;
  if (fast_path) {
    std::vector<Row>& rows = table.relation.mutable_rows();
    for (int64_t ord : ordinals) {
      if (ord < 0 || ord >= static_cast<int64_t>(rows.size())) continue;
      Row& row = rows[static_cast<size_t>(ord)];
      local_clock.Comp();
      // Re-verify against the live row: one comparison buys immunity to
      // any future index-staleness bug on this write path.
      if (!EvalPredicate(stmt.query.filters[0], row, filter_cols[0])) {
        continue;
      }
      for (const std::pair<int, const Value*>& set : sets) {
        local_clock.Move();
        row[static_cast<size_t>(set.first)] = *set.second;
      }
      ++matched;
    }
    metrics_.Add("sql.update.index_fast_path", 1);
  } else {
    for (Row& row : table.relation.mutable_rows()) {
      bool match = true;
      for (size_t i = 0; i < stmt.query.filters.size(); ++i) {
        local_clock.Comp();
        if (!EvalPredicate(stmt.query.filters[i], row, filter_cols[i])) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      for (const std::pair<int, const Value*>& set : sets) {
        local_clock.Move();
        row[static_cast<size_t>(set.first)] = *set.second;
      }
      ++matched;
    }
  }
  disk_.MergeClock(local_clock);
  // Rebuild any index whose key column was assigned: the §2 structures
  // have no delete path, and an UPDATE touching an indexed key is rare
  // enough that a rebuild is the simplest correct maintenance.
  std::vector<std::pair<std::string, IndexType>> rebuilds;
  for (const auto& entry : table.indexes) {
    for (const std::pair<int, const Value*>& set : sets) {
      if (entry.second.column == set.first) {
        rebuilds.emplace_back(entry.first, entry.second.type);
        break;
      }
    }
  }
  for (const std::pair<std::string, IndexType>& rebuild : rebuilds) {
    table.indexes.erase(rebuild.first);
    MMDB_RETURN_IF_ERROR(
        BuildIndex(&table, stmt.table_name, rebuild.first, rebuild.second));
  }
  // UPDATE changes no schema, cardinality or index set, so the catalog
  // stays valid; only an index rebuild must be re-registered. Column
  // value statistics go stale until the next invalidation — the standard
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
  return Status::OK();
}

Status Database::EnableTransactions(const TxnPlaneOptions& options) {
  if (txn_enabled_) return Status::FailedPrecondition("already enabled");
  txn_options_ = options;
  stable_ = std::make_unique<StableMemory>(options.stable_memory_bytes);
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

  RecoveryStats stats;
  InstantRecoveryPlan plan;
  const bool instant = options.mode == RecoveryMode::kInstant;
  if (instant) {
    MMDB_ASSIGN_OR_RETURN(plan, AnalyzeInstantRecovery(store_.get(),
                                                       wal_.get(), fut_.get(),
                                                       options));
    stats = plan.stats;
  } else {
    MMDB_ASSIGN_OR_RETURN(stats, RecoverStore(store_.get(), wal_.get(),
                                              fut_.get(), options));
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
