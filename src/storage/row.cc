#include "storage/row.h"

#include <cstring>

#include "common/check.h"

namespace mmdb {

Status WriteField(const Column& col, const Value& v, char* out) {
  if (TypeOf(v) != col.type) {
    return Status::InvalidArgument("type mismatch in column " + col.name);
  }
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    std::memcpy(out, i, sizeof(*i));
  } else if (const double* d = std::get_if<double>(&v)) {
    std::memcpy(out, d, sizeof(*d));
  } else {
    const std::string& s = std::get<std::string>(v);
    if (static_cast<int32_t>(s.size()) > col.width) {
      return Status::InvalidArgument("string too wide for column " + col.name);
    }
    std::memcpy(out, s.data(), s.size());
    std::memset(out + s.size(), 0, static_cast<size_t>(col.width) - s.size());
  }
  return Status::OK();
}

Status SerializeRow(const Schema& schema, const Row& row, char* out) {
  if (static_cast<int>(row.size()) != schema.num_columns()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (int i = 0; i < schema.num_columns(); ++i) {
    MMDB_RETURN_IF_ERROR(WriteField(schema.column(i),
                                    row[static_cast<size_t>(i)],
                                    out + schema.offset(i)));
  }
  return Status::OK();
}

Value Field::Read(const char* rec) const {
  if (type == ValueType::kInt64) return Value{Int(rec)};
  if (type == ValueType::kDouble) return Value{Double(rec)};
  return Value{std::string(Chars(rec))};
}

Row DeserializeRow(const Schema& schema, const char* data) {
  Row row;
  row.reserve(static_cast<size_t>(schema.num_columns()));
  for (int i = 0; i < schema.num_columns(); ++i) {
    row.push_back(Field::Of(schema, i).Read(data));
  }
  return row;
}

std::string RowToString(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) out += "|";
    out += ValueToString(row[i]);
  }
  return out;
}

}  // namespace mmdb
