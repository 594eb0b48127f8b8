#include <memory>

#include "common/check.h"
#include "exec/join.h"
#include "exec/partitioner.h"
#include "storage/heap_file.h"

namespace mmdb {

namespace {

using exec_internal::JoinHashTable;

/// Streams rows either from a memory-resident relation (pass 1) or from a
/// passed-over spill file (later passes).
class RowSource {
 public:
  RowSource(const Relation* rel) : rel_(rel) {}
  RowSource(ExecContext* ctx, const Schema* schema,
            PartitionWriterSet::PartitionFile pf)
      : ctx_(ctx),
        schema_(schema),
        pf_(pf),
        reader_(std::make_unique<PagedRecordReader>(
            ctx->disk, pf.file, schema->record_size(), IoKind::kSequential)),
        buf_(static_cast<size_t>(schema->record_size())) {}

  ~RowSource() {
    if (reader_ != nullptr) ctx_->disk->DeleteFile(pf_.file);
  }

  bool Next(Row* out) {
    if (rel_ != nullptr) {
      if (pos_ >= rel_->num_tuples()) return false;
      *out = rel_->rows()[static_cast<size_t>(pos_++)];
      return true;
    }
    if (!reader_->Next(buf_.data())) return false;
    *out = DeserializeRow(*schema_, buf_.data());
    return true;
  }

  int64_t records() const {
    return rel_ != nullptr ? rel_->num_tuples() : pf_.records;
  }

 private:
  const Relation* rel_ = nullptr;
  int64_t pos_ = 0;
  ExecContext* ctx_ = nullptr;
  const Schema* schema_ = nullptr;
  PartitionWriterSet::PartitionFile pf_{};
  std::unique_ptr<PagedRecordReader> reader_;
  std::vector<char> buf_;
};

}  // namespace

/// §3.5: pass i builds an in-memory hash table for the slice of R whose
/// keys hash into the pass's range, scans (the remainder of) S against it,
/// and writes all passed-over tuples of both relations to fresh files that
/// become the next pass's inputs. A = ceil(||R|| / {M}) passes, one
/// memory-filling hash-range slice per pass.
StatusOr<Relation> SimpleHashJoin(const Relation& r, const Relation& s,
                                  const JoinSpec& spec, ExecContext* ctx,
                                  JoinRunStats* stats) {
  const Schema& rs = r.schema();
  const Schema& ss = s.schema();
  Relation out(Schema::Concat(rs, ss));

  const int64_t capacity =
      std::max<int64_t>(1, ctx->TuplesInPages(rs, ctx->memory_pages));
  const int64_t buckets = std::max<int64_t>(
      1, (r.num_tuples() + capacity - 1) / capacity);
  // §3.5 step 1: "choose a hash function h and a range of hash values so
  // that P pages of R-tuples will hash into that range" — every pass fills
  // memory completely, so bucket i covers a hash-space slice of width
  // capacity/||R|| and the LAST pass takes the (smaller) remainder. An
  // equal split would under-fill every pass and re-scan more tuples than
  // the paper's cost formula allows.
  const double slice = std::min(
      1.0, double(capacity) / double(std::max<int64_t>(1, r.num_tuples())));
  auto bucket_of = [&](const Value& key) -> int64_t {
    const uint64_t h = Mix64(HashValue(key) ^ 0x51CEDBEEFull);
    const double x = double(h >> 11) * 0x1.0p-53;
    return std::min<int64_t>(buckets - 1,
                             static_cast<int64_t>(x / slice));
  };

  std::unique_ptr<RowSource> r_source = std::make_unique<RowSource>(&r);
  std::unique_ptr<RowSource> s_source = std::make_unique<RowSource>(&s);

  int64_t executed_passes = 0;
  for (int64_t pass = 0; pass < buckets; ++pass) {
    ++executed_passes;
    const bool last_pass = pass == buckets - 1;

    // Build phase: accept this pass's bucket, pass over the rest.
    JoinHashTable table(spec.left_column, ctx->clock);
    std::unique_ptr<PartitionWriterSet> r_passed;
    if (!last_pass) {
      r_passed = std::make_unique<PartitionWriterSet>(
          ctx, rs, 1, IoKind::kSequential, "simple_r_pass");
    }
    Row row;
    while (r_source->Next(&row)) {
      ctx->clock->Hash();
      const Value& key = row[static_cast<size_t>(spec.left_column)];
      if (bucket_of(key) == pass) {
        ctx->clock->Move();
        table.Insert(std::move(row));
      } else {
        MMDB_CHECK_MSG(!last_pass, "tuple escaped every simple-hash pass");
        MMDB_RETURN_IF_ERROR(r_passed->Append(0, row));
      }
    }

    // Probe phase.
    std::unique_ptr<PartitionWriterSet> s_passed;
    if (!last_pass) {
      s_passed = std::make_unique<PartitionWriterSet>(
          ctx, ss, 1, IoKind::kSequential, "simple_s_pass");
    }
    while (s_source->Next(&row)) {
      ctx->clock->Hash();
      const Value& key = row[static_cast<size_t>(spec.right_column)];
      if (bucket_of(key) == pass) {
        table.Probe(key, [&](const Row& r_row) {
          exec_internal::EmitJoined(r_row, row, &out);
        });
      } else {
        MMDB_RETURN_IF_ERROR(s_passed->Append(0, row));
      }
    }

    if (last_pass) break;
    MMDB_RETURN_IF_ERROR(r_passed->FinishAll());
    MMDB_RETURN_IF_ERROR(s_passed->FinishAll());
    auto r_files = r_passed->Release();
    auto s_files = s_passed->Release();
    if (r_files[0].records == 0 && s_files[0].records == 0) {
      ctx->disk->DeleteFile(r_files[0].file);
      ctx->disk->DeleteFile(s_files[0].file);
      break;  // nothing passed over: done early
    }
    r_source = std::make_unique<RowSource>(ctx, &rs, r_files[0]);
    s_source = std::make_unique<RowSource>(ctx, &ss, s_files[0]);
  }

  if (stats != nullptr) {
    stats->output_tuples = out.num_tuples();
    stats->passes = executed_passes;
  }
  return out;
}

}  // namespace mmdb
