#include <cstring>

#include "common/check.h"
#include "exec/external_sort.h"
#include "exec/join.h"

namespace mmdb {

/// §3.4: sort both relations (replacement-selection runs + one n-way
/// merge), then merge-join the two sorted streams, emitting the cross
/// product of each matching key group. Unlike the paper's cost formula —
/// which assumes an R tuple joins with at most a page of S tuples — the
/// implementation handles arbitrarily large key groups by materializing
/// the S-side group.
StatusOr<Relation> SortMergeJoin(const Relation& r, const Relation& s,
                                 const JoinSpec& spec, ExecContext* ctx,
                                 JoinRunStats* stats) {
  SortStats r_sort, s_sort;
  MMDB_ASSIGN_OR_RETURN(auto r_stream,
                        SortRelation(r, spec.left_column, ctx, &r_sort));
  MMDB_ASSIGN_OR_RETURN(auto s_stream,
                        SortRelation(s, spec.right_column, ctx, &s_sort));

  const Schema& rs = r.schema();
  const Schema& ss = s.schema();
  Relation out(Schema::Concat(rs, ss));
  const Field rkey = Field::Of(rs, spec.left_column);
  const Field skey = Field::Of(ss, spec.right_column);
  const size_t s_size = static_cast<size_t>(ss.record_size());

  MMDB_ASSIGN_OR_RETURN(const char* r_rec, r_stream->Next());
  MMDB_ASSIGN_OR_RETURN(const char* s_rec, s_stream->Next());
  // The current key group: its first R record and its S records, copied
  // (a stream's record lasts until its next call).
  std::vector<char> key(static_cast<size_t>(rs.record_size()));
  std::vector<char> s_group;

  while (r_rec != nullptr && s_rec != nullptr) {
    ctx->clock->Comp();
    const int cmp = CompareFields(rkey, r_rec, skey, s_rec);
    if (cmp < 0) {
      MMDB_ASSIGN_OR_RETURN(r_rec, r_stream->Next());
    } else if (cmp > 0) {
      MMDB_ASSIGN_OR_RETURN(s_rec, s_stream->Next());
    } else {
      // Key group: collect all equal S tuples, then stream the R side.
      std::memcpy(key.data(), r_rec, key.size());
      s_group.clear();
      while (s_rec != nullptr) {
        ctx->clock->Comp();
        if (CompareFields(skey, s_rec, rkey, key.data()) != 0) break;
        s_group.insert(s_group.end(), s_rec, s_rec + s_size);
        MMDB_ASSIGN_OR_RETURN(s_rec, s_stream->Next());
      }
      while (r_rec != nullptr) {
        ctx->clock->Comp();
        if (CompareFields(rkey, r_rec, rkey, key.data()) != 0) break;
        for (size_t off = 0; off < s_group.size(); off += s_size) {
          exec_internal::EmitJoined(r_rec, rs.record_size(),
                                    s_group.data() + off, &out);
        }
        MMDB_ASSIGN_OR_RETURN(r_rec, r_stream->Next());
      }
    }
  }

  if (stats != nullptr) {
    stats->output_tuples = out.num_tuples();
    stats->passes = r_sort.merge_levels + s_sort.merge_levels + 2;
  }
  return out;
}

}  // namespace mmdb
