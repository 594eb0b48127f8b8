#include "exec/join_tid.h"

#include "common/check.h"

namespace mmdb {

StatusOr<Relation> TidHashJoin(HeapFile* r_heap, const Schema& r_schema,
                               int r_key_column, const Relation& s,
                               int s_key_column, BufferPool* pool,
                               ExecContext* ctx, TidJoinStats* stats) {
  Relation out(Schema::Concat(r_schema, s.schema()));
  // Build: one sequential scan of R into (key, TID) pair records, which
  // the one join hash table keys.
  Relation pairs(Schema({r_schema.column(r_key_column), Column::Int64("page"),
                         Column::Int64("slot")}));
  const Field rkey = Field::Of(r_schema, r_key_column);
  exec_internal::JoinHashTable table(pairs.schema(), 0);
  MMDB_RETURN_IF_ERROR(r_heap->Scan([&](RecordId rid, const char* rec) {
    ctx->clock->Hash();
    ctx->clock->SmallMove();  // a TID-key pair, not a tuple
    pairs.Add({rkey.Read(rec), rid.page_no, int64_t{rid.slot}});
    table.Insert(pairs.record(pairs.num_tuples() - 1));  // pairs stay put
  }));

  // Probe S; every match fetches the original R tuple by TID.
  TidJoinStats local;
  TidJoinStats* st = stats != nullptr ? stats : &local;
  *st = TidJoinStats{};
  const Field skey = Field::Of(s.schema(), s_key_column);
  const Field page = Field::Of(pairs.schema(), 1);
  const Field slot = Field::Of(pairs.schema(), 2);
  std::vector<char> rec(static_cast<size_t>(r_schema.record_size()));
  Status fetched = Status::OK();
  for (int64_t i = 0; i < s.num_tuples() && fetched.ok(); ++i) {
    const char* s_rec = s.record(i);
    ctx->clock->Hash();
    ctx->clock->Comp(table.Match(skey, s_rec, [&](const char* pair) {
      if (!fetched.ok()) return;
      const int64_t faults_before = pool->stats().faults;
      fetched = r_heap->Get(
          RecordId{page.Int(pair), static_cast<int32_t>(slot.Int(pair))},
          rec.data());
      st->fetch_faults += pool->stats().faults - faults_before;
      ++st->tuple_fetches;
      exec_internal::EmitJoined(rec.data(), r_schema.record_size(), s_rec,
                                &out);
    }));
  }
  MMDB_RETURN_IF_ERROR(fetched);
  st->output_tuples = out.num_tuples();
  return out;
}

StatusOr<Relation> WholeTupleHashJoin(HeapFile* r_heap,
                                      const Schema& r_schema,
                                      int r_key_column, const Relation& s,
                                      int s_key_column, ExecContext* ctx,
                                      JoinRunStats* stats) {
  Relation out(Schema::Concat(r_schema, s.schema()));
  // One scan of R; each whole tuple then moves into the table.
  MMDB_ASSIGN_OR_RETURN(Relation r, Relation::FromHeapFile(r_schema, r_heap));
  exec_internal::BuildAndProbe(r, r_key_column, s.schema(), s_key_column,
                               exec_internal::RecordsOf(s), ctx, &out);
  if (stats != nullptr) stats->output_tuples = out.num_tuples();
  return out;
}

}  // namespace mmdb
