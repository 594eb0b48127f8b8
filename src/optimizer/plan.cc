#include "optimizer/plan.h"

#include <cstdio>

namespace mmdb {

std::string PlanNode::ToString(int indent) const {
  return ToString(indent, Annotator());
}

std::string PlanNode::ToString(int indent, const Annotator& annotate) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  char est[96];
  std::snprintf(est, sizeof(est), "  [~%.0f tuples, %.3fs]", est_tuples,
                est_cost_seconds);
  std::string out = pad;
  switch (kind) {
    case Kind::kScan:
      out += "Scan(" + table + ")";
      break;
    case Kind::kIndexScan: {
      const char* kind_name = index_kind == IndexKind::kAvl    ? "avl"
                              : index_kind == IndexKind::kBTree ? "btree"
                                                                : "hash";
      out += "IndexScan[";
      out += kind_name;
      out += "](" + (predicates.empty() ? table
                                        : predicates[0].ToString()) +
             ")";
      break;
    }
    case Kind::kFilter: {
      out += "Filter(";
      for (size_t i = 0; i < predicates.size(); ++i) {
        if (i) out += " AND ";
        out += predicates[i].ToString();
      }
      out += ")";
      break;
    }
    case Kind::kJoin: {
      out += "Join[";
      out += JoinAlgorithmName(algorithm);
      out += "](" + join.left.ToString() + " = " + join.right.ToString() + ")";
      if (build_is_right) out += " build=right";
      break;
    }
    case Kind::kProject: {
      out += "Project(";
      for (size_t i = 0; i < projection.size(); ++i) {
        if (i) out += ", ";
        out += projection[i].ToString();
      }
      out += ")";
      break;
    }
  }
  out += est;
  if (annotate) out += annotate(*this, indent);
  out += "\n";
  if (child_left) out += child_left->ToString(indent + 1, annotate);
  if (child_right) out += child_right->ToString(indent + 1, annotate);
  return out;
}

}  // namespace mmdb
