#include <memory>

#include "common/check.h"
#include "exec/join.h"
#include "exec/partitioner.h"
#include "storage/heap_file.h"

namespace mmdb {

namespace {

using exec_internal::JoinHashTable;

/// Streams records either from a memory-resident relation (pass 1) or
/// from a passed-over spill file (later passes). A record returned by
/// Next() is valid until the next call.
class RowSource {
 public:
  RowSource(const Relation* rel) : rel_(rel) {}
  RowSource(ExecContext* ctx, const Schema* schema,
            PartitionWriterSet::PartitionFile pf)
      : ctx_(ctx),
        pf_(pf),
        reader_(std::make_unique<PagedRecordReader>(
            ctx->disk, pf.file, schema->record_size(), IoKind::kSequential)),
        buf_(static_cast<size_t>(schema->record_size())) {}

  ~RowSource() {
    if (reader_ != nullptr) ctx_->disk->DeleteFile(pf_.file);
  }

  const char* Next() {
    if (rel_ != nullptr) {
      return pos_ < rel_->num_tuples() ? rel_->record(pos_++) : nullptr;
    }
    return reader_->Next(buf_.data()) ? buf_.data() : nullptr;
  }

 private:
  const Relation* rel_ = nullptr;
  int64_t pos_ = 0;
  ExecContext* ctx_ = nullptr;
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
  const Field rkey = Field::Of(rs, spec.left_column);
  const Field skey = Field::Of(ss, spec.right_column);
  auto bucket_of = [&](uint64_t key_hash) -> int64_t {
    const uint64_t h = Mix64(key_hash ^ 0x51CEDBEEFull);
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

    // Build phase: accept this pass's bucket, pass over the rest. The
    // accepted records are copied into `held`, where they stay put for
    // the table.
    JoinHashTable table(rs, spec.left_column);
    Relation held(rs);
    std::unique_ptr<PartitionWriterSet> r_passed;
    if (!last_pass) {
      r_passed = std::make_unique<PartitionWriterSet>(
          ctx, rs, 1, IoKind::kSequential, "simple_r_pass");
    }
    while (const char* rec = r_source->Next()) {
      ctx->clock->Hash();
      if (bucket_of(rkey.Hash(rec)) == pass) {
        ctx->clock->Move();
        held.Append(rec);
        table.Insert(held.record(held.num_tuples() - 1));
      } else {
        MMDB_CHECK_MSG(!last_pass, "tuple escaped every simple-hash pass");
        MMDB_RETURN_IF_ERROR(r_passed->Append(0, rec));
      }
    }

    // Probe phase.
    std::unique_ptr<PartitionWriterSet> s_passed;
    if (!last_pass) {
      s_passed = std::make_unique<PartitionWriterSet>(
          ctx, ss, 1, IoKind::kSequential, "simple_s_pass");
    }
    while (const char* s_rec = s_source->Next()) {
      ctx->clock->Hash();
      if (bucket_of(skey.Hash(s_rec)) == pass) {
        ctx->clock->Comp(table.Match(skey, s_rec, [&](const char* r_rec) {
          exec_internal::EmitJoined(r_rec, rs.record_size(), s_rec, &out);
        }));
      } else {
        MMDB_RETURN_IF_ERROR(s_passed->Append(0, s_rec));
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
