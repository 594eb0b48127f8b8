#include "db/query_parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <iterator>

#include "common/check.h"

namespace mmdb {

namespace {

// ---------- Tokenizer -------------------------------------------------------

enum class TokenType {
  kIdent,    // possibly qualified later via '.'
  kInt,
  kDouble,
  kString,   // single-quoted
  kSymbol,   // ( ) , * . = != < <= > >=
  kError,    // malformed lexeme; `text` carries the message
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;   // uppercased for idents' keyword checks? keep raw
  int64_t int_value = 0;
  double double_value = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) { Advance(); }

  const Token& Peek() const { return current_; }

  Token Take() {
    Token t = current_;
    Advance();
    return t;
  }

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument("SQL parse error near position " +
                                   std::to_string(pos_) + ": " + msg);
  }

 private:
  void Advance() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    current_ = Token{};
    if (pos_ >= input_.size()) {
      current_.type = TokenType::kEnd;
      return;
    }
    const char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_')) {
        ++pos_;
      }
      current_.type = TokenType::kIdent;
      current_.text = input_.substr(start, pos_ - start);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < input_.size() &&
         std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
      size_t start = pos_;
      ++pos_;
      int dots = 0;
      while (pos_ < input_.size() &&
             (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '.')) {
        if (input_[pos_] == '.') ++dots;
        ++pos_;
      }
      const std::string text = input_.substr(start, pos_ - start);
      // std::from_chars never throws; overflow and malformed shapes become
      // kError tokens the parser turns into an error Status.
      if (dots > 1) {
        current_.type = TokenType::kError;
        current_.text = "malformed numeric literal '" + text + "'";
        return;
      }
      const char* end = text.data() + text.size();
      if (dots == 1) {
        double value = 0;
        const auto [p, ec] = std::from_chars(text.data(), end, value);
        if (ec != std::errc() || p != end) {
          current_.type = TokenType::kError;
          current_.text = ec == std::errc::result_out_of_range
                              ? "numeric literal out of range '" + text + "'"
                              : "malformed numeric literal '" + text + "'";
          return;
        }
        current_.type = TokenType::kDouble;
        current_.double_value = value;
      } else {
        int64_t value = 0;
        const auto [p, ec] = std::from_chars(text.data(), end, value);
        if (ec != std::errc() || p != end) {
          current_.type = TokenType::kError;
          current_.text =
              ec == std::errc::result_out_of_range
                  ? "integer literal out of range for INT64 '" + text + "'"
                  : "malformed numeric literal '" + text + "'";
          return;
        }
        current_.type = TokenType::kInt;
        current_.int_value = value;
      }
      current_.text = text;
      return;
    }
    if (c == '\'') {
      ++pos_;
      std::string value;
      while (pos_ < input_.size() && input_[pos_] != '\'') {
        value += input_[pos_++];
      }
      if (pos_ >= input_.size()) {
        current_.type = TokenType::kEnd;  // unterminated; parser reports
        current_.text = "<unterminated string>";
        return;
      }
      ++pos_;  // closing quote
      current_.type = TokenType::kString;
      current_.text = std::move(value);
      return;
    }
    // Symbols, two-char first.
    static const char* kTwoChar[] = {"!=", "<=", ">=", "<>"};
    for (const char* sym : kTwoChar) {
      if (input_.compare(pos_, 2, sym) == 0) {
        current_.type = TokenType::kSymbol;
        current_.text = sym;
        pos_ += 2;
        return;
      }
    }
    current_.type = TokenType::kSymbol;
    current_.text = std::string(1, c);
    ++pos_;
  }

  const std::string& input_;
  size_t pos_ = 0;
  Token current_;
};

std::string Upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

// ---------- Parser ----------------------------------------------------------

class Parser {
 public:
  Parser(const std::string& sql, const Catalog& catalog)
      : lexer_(sql), catalog_(catalog) {}

  StatusOr<ParsedStatement> Parse() {
    const Token first = lexer_.Peek();
    if (first.type != TokenType::kIdent) {
      return lexer_.Error("expected a statement keyword");
    }
    const std::string kw = Upper(first.text);
    if (kw == "SELECT") return ParseSelect(/*explain=*/false);
    if (kw == "EXPLAIN") {
      lexer_.Take();
      const bool analyze = ConsumeKeyword("ANALYZE");
      if (Upper(lexer_.Peek().text) != "SELECT") {
        return lexer_.Error(analyze ? "EXPLAIN ANALYZE supports SELECT only"
                                    : "EXPLAIN supports SELECT only");
      }
      MMDB_ASSIGN_OR_RETURN(ParsedStatement stmt,
                            ParseSelect(/*explain=*/true));
      if (analyze) stmt.kind = ParsedStatement::Kind::kExplainAnalyze;
      return stmt;
    }
    if (kw == "CREATE") return ParseCreateTable();
    if (kw == "INSERT") return ParseInsert();
    if (kw == "UPDATE") return ParseUpdate();
    if (kw == "BEGIN") return ParseControl(ParsedStatement::Kind::kBegin);
    if (kw == "COMMIT") return ParseControl(ParsedStatement::Kind::kCommit);
    if (kw == "ROLLBACK" || kw == "ABORT") {
      return ParseControl(ParsedStatement::Kind::kRollback);
    }
    return lexer_.Error("unknown statement '" + first.text + "'");
  }

 private:
  bool ConsumeKeyword(const char* kw) {
    if (lexer_.Peek().type == TokenType::kIdent &&
        Upper(lexer_.Peek().text) == kw) {
      lexer_.Take();
      return true;
    }
    return false;
  }

  bool ConsumeSymbol(const char* sym) {
    if (lexer_.Peek().type == TokenType::kSymbol &&
        lexer_.Peek().text == sym) {
      lexer_.Take();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const char* kw) {
    if (!ConsumeKeyword(kw)) {
      return lexer_.Error(std::string("expected ") + kw);
    }
    return Status::OK();
  }

  Status ExpectSymbol(const char* sym) {
    if (!ConsumeSymbol(sym)) {
      return lexer_.Error(std::string("expected '") + sym + "'");
    }
    return Status::OK();
  }

  /// The statement ends here, or at a ';'.
  Status ExpectEnd() {
    if (lexer_.Peek().type != TokenType::kEnd && !ConsumeSymbol(";")) {
      return lexer_.Error("unexpected trailing input '" + lexer_.Peek().text +
                          "'");
    }
    return Status::OK();
  }

  StatusOr<std::string> ExpectIdent(const char* what) {
    if (lexer_.Peek().type != TokenType::kIdent) {
      return lexer_.Error(std::string("expected ") + what);
    }
    // Unquoted identifiers fold to lowercase (SQL convention; mmdb schemas
    // are lowercase by convention too).
    std::string text = lexer_.Take().text;
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return text;
  }

  /// table.column, checked: `table` must be one of the statement's
  /// `tables` and have the column.
  StatusOr<ColumnRef> Qualified(const std::string& table,
                                const std::string& column,
                                const std::vector<std::string>& tables) {
    if (std::find(tables.begin(), tables.end(), table) == tables.end()) {
      return Status::InvalidArgument("table '" + table +
                                     "' is not named by the statement");
    }
    MMDB_ASSIGN_OR_RETURN(const TableEntry* entry, catalog_.Lookup(table));
    MMDB_RETURN_IF_ERROR(
        entry->relation->schema().ColumnIndex(column).status());
    return ColumnRef{table, column};
  }

  /// table.column, or unqualified column resolved over the FROM tables.
  StatusOr<ColumnRef> ParseColumnRef(const std::vector<std::string>& tables) {
    MMDB_ASSIGN_OR_RETURN(std::string first, ExpectIdent("a column"));
    if (ConsumeSymbol(".")) {
      MMDB_ASSIGN_OR_RETURN(std::string column, ExpectIdent("a column name"));
      return Qualified(first, column, tables);
    }
    // Unqualified: must match exactly one FROM table.
    std::string owner;
    for (const std::string& t : tables) {
      auto entry = catalog_.Lookup(t);
      if (!entry.ok()) continue;
      if ((*entry)->relation->schema().ColumnIndex(first).ok()) {
        if (!owner.empty()) {
          return Status::InvalidArgument("ambiguous column '" + first + "'");
        }
        owner = t;
      }
    }
    if (owner.empty()) {
      return Status::NotFound("column '" + first +
                              "' not found in any FROM table");
    }
    return ColumnRef{owner, first};
  }

  /// The declared type of the column `ref` names.
  StatusOr<ValueType> ColumnType(const ColumnRef& ref) {
    MMDB_ASSIGN_OR_RETURN(const TableEntry* entry, catalog_.Lookup(ref.table));
    const Schema& schema = entry->relation->schema();
    MMDB_ASSIGN_OR_RETURN(int col, schema.ColumnIndex(ref.column));
    return schema.column(col).type;
  }

  StatusOr<Value> ParseLiteral() {
    const Token t = lexer_.Take();
    switch (t.type) {
      case TokenType::kInt:
        return Value{t.int_value};
      case TokenType::kDouble:
        return Value{t.double_value};
      case TokenType::kString:
        return Value{t.text};
      case TokenType::kError:
        return lexer_.Error(t.text);
      default:
        return lexer_.Error("expected a literal");
    }
  }

  StatusOr<ParsedStatement> ParseSelect(bool explain) {
    ParsedStatement stmt;
    stmt.kind = explain ? ParsedStatement::Kind::kExplain
                        : ParsedStatement::Kind::kSelect;
    MMDB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    stmt.distinct = ConsumeKeyword("DISTINCT");

    // Select list: defer resolution until FROM is known.
    struct Item {
      bool star = false;
      bool is_agg = false;
      AggFn fn = AggFn::kCount;
      bool agg_star = false;  // COUNT(*)
      // Unresolved reference tokens.
      std::string first, second;
      std::string alias;
    };
    std::vector<Item> items;
    do {
      Item item;
      if (ConsumeSymbol("*")) {
        item.star = true;
      } else {
        MMDB_ASSIGN_OR_RETURN(std::string name, ExpectIdent("a select item"));
        const std::string up = Upper(name);
        static const std::pair<const char*, AggFn> kAggs[] = {
            {"COUNT", AggFn::kCount}, {"SUM", AggFn::kSum},
            {"AVG", AggFn::kAvg},     {"MIN", AggFn::kMin},
            {"MAX", AggFn::kMax}};
        bool matched_agg = false;
        for (const auto& [kw, fn] : kAggs) {
          if (up == kw && lexer_.Peek().text == "(") {
            MMDB_RETURN_IF_ERROR(ExpectSymbol("("));
            item.is_agg = true;
            item.fn = fn;
            if (ConsumeSymbol("*")) {
              if (fn != AggFn::kCount) {
                return lexer_.Error("only COUNT accepts *");
              }
              item.agg_star = true;
            } else {
              MMDB_ASSIGN_OR_RETURN(item.first,
                                    ExpectIdent("an aggregate column"));
              if (ConsumeSymbol(".")) {
                MMDB_ASSIGN_OR_RETURN(item.second,
                                      ExpectIdent("a column name"));
              }
            }
            MMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
            matched_agg = true;
            break;
          }
        }
        if (!matched_agg) {
          item.first = name;
          if (ConsumeSymbol(".")) {
            MMDB_ASSIGN_OR_RETURN(item.second, ExpectIdent("a column name"));
          }
        }
        if (ConsumeKeyword("AS")) {
          MMDB_ASSIGN_OR_RETURN(item.alias, ExpectIdent("an alias"));
        }
      }
      items.push_back(std::move(item));
    } while (ConsumeSymbol(","));

    // FROM.
    MMDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    do {
      MMDB_ASSIGN_OR_RETURN(std::string table, ExpectIdent("a table name"));
      MMDB_RETURN_IF_ERROR(catalog_.Lookup(table).status());
      stmt.query.tables.push_back(std::move(table));
    } while (ConsumeSymbol(","));

    // WHERE.
    if (ConsumeKeyword("WHERE")) {
      do {
        MMDB_RETURN_IF_ERROR(ParseConjunct(&stmt.query));
      } while (ConsumeKeyword("AND"));
    }

    // GROUP BY.
    std::vector<ColumnRef> group_by;
    if (ConsumeKeyword("GROUP")) {
      MMDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        MMDB_ASSIGN_OR_RETURN(ColumnRef ref,
                              ParseColumnRef(stmt.query.tables));
        group_by.push_back(std::move(ref));
      } while (ConsumeSymbol(","));
    }
    MMDB_RETURN_IF_ERROR(ExpectEnd());

    // Resolve the select list.
    const bool has_agg =
        std::any_of(items.begin(), items.end(),
                    [](const Item& i) { return i.is_agg; });
    if (!has_agg) {
      if (!group_by.empty()) {
        return Status::InvalidArgument(
            "GROUP BY requires aggregates in the select list");
      }
      for (const Item& item : items) {
        if (item.star) {
          if (items.size() != 1) {
            return Status::InvalidArgument("* cannot be mixed with columns");
          }
          stmt.query.select_columns.clear();  // * => all columns
          break;
        }
        MMDB_ASSIGN_OR_RETURN(ColumnRef ref, ResolveItemRef(item, stmt));
        stmt.query.select_columns.push_back(std::move(ref));
      }
      if (stmt.distinct) {
        if (stmt.query.select_columns.empty()) {
          return Status::InvalidArgument("SELECT DISTINCT * is not supported");
        }
        // DISTINCT groups on every selected column (§3.9).
        AggregateSpec distinct;
        for (size_t i = 0; i < stmt.query.select_columns.size(); ++i) {
          distinct.group_by.push_back(static_cast<int>(i));
        }
        stmt.aggregate = std::move(distinct);
      }
      return stmt;
    }

    // Aggregate query: the underlying Query projects group-by columns plus
    // each aggregate's argument; the AggregateSpec indexes into that list.
    AggregateSpec agg;
    auto column_index = [&](const ColumnRef& ref) -> int {
      for (size_t i = 0; i < stmt.query.select_columns.size(); ++i) {
        if (stmt.query.select_columns[i] == ref) return static_cast<int>(i);
      }
      stmt.query.select_columns.push_back(ref);
      return static_cast<int>(stmt.query.select_columns.size() - 1);
    };
    for (const ColumnRef& ref : group_by) {
      agg.group_by.push_back(column_index(ref));
    }
    for (const Item& item : items) {
      if (item.star) {
        return Status::InvalidArgument("* cannot be mixed with aggregates");
      }
      if (!item.is_agg) {
        // A bare column in an aggregate query must be one of the GROUP BY
        // columns (standard SQL restriction).
        MMDB_ASSIGN_OR_RETURN(ColumnRef ref, ResolveItemRef(item, stmt));
        const bool grouped =
            std::find(group_by.begin(), group_by.end(), ref) != group_by.end();
        if (!grouped) {
          return Status::InvalidArgument(
              "column " + ref.ToString() +
              " must appear in GROUP BY or inside an aggregate");
        }
        continue;
      }
      AggregateSpec::Aggregate a;
      a.fn = item.fn;
      if (item.agg_star) {
        a.column = 0;
        a.name = item.alias.empty() ? "count" : item.alias;
        if (stmt.query.select_columns.empty() && group_by.empty()) {
          // COUNT(*) with no other columns: project something.
          const std::string& t = stmt.query.tables[0];
          auto entry = catalog_.Lookup(t);
          stmt.query.select_columns.push_back(
              ColumnRef{t, (*entry)->relation->schema().column(0).name});
        }
      } else {
        MMDB_ASSIGN_OR_RETURN(ColumnRef ref, ResolveItemRef(item, stmt));
        a.column = column_index(ref);
        if (item.alias.empty()) {
          std::string fn_name;
          switch (item.fn) {
            case AggFn::kCount: fn_name = "count"; break;
            case AggFn::kSum: fn_name = "sum"; break;
            case AggFn::kAvg: fn_name = "avg"; break;
            case AggFn::kMin: fn_name = "min"; break;
            case AggFn::kMax: fn_name = "max"; break;
          }
          a.name = fn_name + "_" + ref.column;
        } else {
          a.name = item.alias;
        }
      }
      agg.aggregates.push_back(std::move(a));
    }
    stmt.aggregate = std::move(agg);
    return stmt;
  }

  template <typename ItemT>
  StatusOr<ColumnRef> ResolveItemRef(const ItemT& item,
                                     const ParsedStatement& stmt) {
    if (!item.second.empty()) {
      return Qualified(item.first, item.second, stmt.query.tables);
    }
    // Unqualified.
    std::string owner;
    for (const std::string& t : stmt.query.tables) {
      auto entry = catalog_.Lookup(t);
      if (!entry.ok()) continue;
      if ((*entry)->relation->schema().ColumnIndex(item.first).ok()) {
        if (!owner.empty()) {
          return Status::InvalidArgument("ambiguous column '" + item.first +
                                         "'");
        }
        owner = t;
      }
    }
    if (owner.empty()) {
      return Status::NotFound("column '" + item.first +
                              "' not found in any FROM table");
    }
    return ColumnRef{owner, item.first};
  }

  Status ParseConjunct(Query* query) {
    MMDB_ASSIGN_OR_RETURN(ColumnRef left, ParseColumnRef(query->tables));
    // LIKE 'prefix%'
    if (ConsumeKeyword("LIKE")) {
      if (lexer_.Peek().type != TokenType::kString) {
        return lexer_.Error("LIKE expects a string literal");
      }
      std::string pattern = lexer_.Take().text;
      if (pattern.empty() || pattern.back() != '%' ||
          pattern.find('%') != pattern.size() - 1) {
        return Status::InvalidArgument(
            "only prefix patterns ('abc%') are supported by LIKE");
      }
      pattern.pop_back();
      query->filters.push_back(Predicate{left.table, left.column,
                                         CmpOp::kPrefix, Value{pattern}});
      return Status::OK();
    }
    // Comparison operator.
    if (lexer_.Peek().type != TokenType::kSymbol) {
      return lexer_.Error("expected a comparison operator");
    }
    const std::string op = lexer_.Take().text;
    CmpOp cmp;
    if (op == "=") {
      cmp = CmpOp::kEq;
    } else if (op == "!=" || op == "<>") {
      cmp = CmpOp::kNe;
    } else if (op == "<") {
      cmp = CmpOp::kLt;
    } else if (op == "<=") {
      cmp = CmpOp::kLe;
    } else if (op == ">") {
      cmp = CmpOp::kGt;
    } else if (op == ">=") {
      cmp = CmpOp::kGe;
    } else {
      return lexer_.Error("unknown operator '" + op + "'");
    }
    // Either a join (col = col) or a restriction (col op literal).
    if (lexer_.Peek().type == TokenType::kIdent) {
      if (cmp != CmpOp::kEq) {
        return Status::InvalidArgument("only equi-joins are supported");
      }
      MMDB_ASSIGN_OR_RETURN(ColumnRef right, ParseColumnRef(query->tables));
      // The join algorithms hash and compare both keys as one type.
      MMDB_ASSIGN_OR_RETURN(const ValueType left_type, ColumnType(left));
      MMDB_ASSIGN_OR_RETURN(const ValueType right_type, ColumnType(right));
      if (left_type != right_type) {
        return Status::InvalidArgument("join columns " + left.ToString() +
                                       " and " + right.ToString() +
                                       " differ in type");
      }
      query->joins.push_back(JoinClause{std::move(left), std::move(right)});
      return Status::OK();
    }
    MMDB_ASSIGN_OR_RETURN(Value literal, ParseLiteral());
    // Numeric coercion against the column's declared type, so
    // `salary > 1500` works on a DOUBLE column.
    MMDB_ASSIGN_OR_RETURN(const ValueType col_type, ColumnType(left));
    if (col_type == ValueType::kDouble &&
        std::holds_alternative<int64_t>(literal)) {
      literal = Value{double(std::get<int64_t>(literal))};
    } else if (col_type == ValueType::kInt64 &&
               std::holds_alternative<double>(literal)) {
      const double d = std::get<double>(literal);
      if (d != double(int64_t(d))) {
        return Status::InvalidArgument(
            "non-integral literal compared to INT64 column " + left.column);
      }
      literal = Value{int64_t(d)};
    } else if (TypeOf(literal) != col_type) {
      return Status::InvalidArgument("literal type does not match column " +
                                     left.ToString());
    }
    query->filters.push_back(
        Predicate{left.table, left.column, cmp, std::move(literal)});
    return Status::OK();
  }

  /// BEGIN / COMMIT / ROLLBACK / ABORT, the keyword alone.
  StatusOr<ParsedStatement> ParseControl(ParsedStatement::Kind kind) {
    lexer_.Take();
    MMDB_RETURN_IF_ERROR(ExpectEnd());
    ParsedStatement stmt;
    stmt.kind = kind;
    return stmt;
  }

  StatusOr<ParsedStatement> ParseUpdate() {
    ParsedStatement stmt;
    stmt.kind = ParsedStatement::Kind::kUpdate;
    MMDB_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    MMDB_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdent("a table name"));
    MMDB_ASSIGN_OR_RETURN(const TableEntry* entry,
                          catalog_.Lookup(stmt.table_name));
    stmt.query.tables.push_back(stmt.table_name);
    const Schema& schema = entry->relation->schema();
    MMDB_RETURN_IF_ERROR(ExpectKeyword("SET"));
    do {
      MMDB_ASSIGN_OR_RETURN(std::string column, ExpectIdent("a column"));
      MMDB_RETURN_IF_ERROR(ExpectSymbol("="));
      MMDB_ASSIGN_OR_RETURN(Value literal, ParseLiteral());
      MMDB_ASSIGN_OR_RETURN(int col, schema.ColumnIndex(column));
      const ValueType col_type = schema.column(col).type;
      if (col_type == ValueType::kDouble &&
          std::holds_alternative<int64_t>(literal)) {
        literal = Value{double(std::get<int64_t>(literal))};
      } else if (col_type == ValueType::kInt64 &&
                 std::holds_alternative<double>(literal)) {
        const double d = std::get<double>(literal);
        if (d != double(int64_t(d))) {
          return Status::InvalidArgument(
              "non-integral literal assigned to INT64 column " + column);
        }
        literal = Value{int64_t(d)};
      } else if (TypeOf(literal) != col_type) {
        return Status::InvalidArgument("literal type does not match column " +
                                       stmt.table_name + "." + column);
      }
      stmt.set_clauses.push_back(
          ParsedStatement::SetClause{std::move(column), std::move(literal)});
    } while (ConsumeSymbol(","));
    if (ConsumeKeyword("WHERE")) {
      do {
        MMDB_RETURN_IF_ERROR(ParseConjunct(&stmt.query));
      } while (ConsumeKeyword("AND"));
      if (!stmt.query.joins.empty()) {
        return Status::InvalidArgument(
            "UPDATE supports column-vs-literal restrictions only");
      }
    }
    MMDB_RETURN_IF_ERROR(ExpectEnd());
    const std::string& key = schema.column(0).name;
    stmt.keyed_by_first_column =
        stmt.query.filters.size() == 1 &&
        stmt.query.filters[0].column == key &&
        std::none_of(stmt.set_clauses.begin(), stmt.set_clauses.end(),
                     [&key](const ParsedStatement::SetClause& set) {
                       return set.column == key;
                     });
    return stmt;
  }

  StatusOr<ParsedStatement> ParseCreateTable() {
    ParsedStatement stmt;
    stmt.kind = ParsedStatement::Kind::kCreateTable;
    MMDB_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    MMDB_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    MMDB_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdent("a table name"));
    MMDB_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<Column> columns;
    do {
      MMDB_ASSIGN_OR_RETURN(std::string name, ExpectIdent("a column name"));
      MMDB_ASSIGN_OR_RETURN(std::string type, ExpectIdent("a column type"));
      const std::string up = Upper(type);
      if (up == "INT64" || up == "INT" || up == "BIGINT") {
        columns.push_back(Column::Int64(name));
      } else if (up == "DOUBLE" || up == "FLOAT") {
        columns.push_back(Column::Double(name));
      } else if (up == "CHAR" || up == "VARCHAR") {
        MMDB_RETURN_IF_ERROR(ExpectSymbol("("));
        if (lexer_.Peek().type != TokenType::kInt) {
          return lexer_.Error("CHAR expects a width");
        }
        const int64_t width = lexer_.Take().int_value;
        if (width <= 0 || width > 4000) {
          return Status::InvalidArgument("CHAR width out of range");
        }
        MMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
        columns.push_back(Column::Char(name, static_cast<int32_t>(width)));
      } else {
        return lexer_.Error("unknown type '" + type + "'");
      }
    } while (ConsumeSymbol(","));
    MMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    MMDB_RETURN_IF_ERROR(ExpectEnd());
    stmt.schema = Schema(std::move(columns));
    return stmt;
  }

  StatusOr<ParsedStatement> ParseInsert() {
    ParsedStatement stmt;
    stmt.kind = ParsedStatement::Kind::kInsert;
    MMDB_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    MMDB_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    MMDB_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdent("a table name"));
    MMDB_ASSIGN_OR_RETURN(const TableEntry* entry,
                          catalog_.Lookup(stmt.table_name));
    const Schema& schema = entry->relation->schema();
    stmt.rows = Relation(schema);
    stmt.rows.Reserve(1);  // most INSERTs carry one row
    MMDB_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    // Each row is parsed into `values`, coerced (integer literals into
    // DOUBLE columns) and serialized into a record, which checks its
    // arity, types and CHAR widths before anything is applied.
    std::vector<char> rec(static_cast<size_t>(schema.record_size()));
    Row values;
    do {
      MMDB_RETURN_IF_ERROR(ExpectSymbol("("));
      values.clear();
      do {
        MMDB_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        const size_t c = values.size();
        if (c < size_t(schema.num_columns()) &&
            schema.column(int(c)).type == ValueType::kDouble &&
            std::holds_alternative<int64_t>(v)) {
          v = Value{double(std::get<int64_t>(v))};
        }
        values.push_back(std::move(v));
      } while (ConsumeSymbol(","));
      MMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      MMDB_RETURN_IF_ERROR(SerializeRow(schema, values, rec.data()));
      stmt.rows.Append(rec.data());
    } while (ConsumeSymbol(","));
    MMDB_RETURN_IF_ERROR(ExpectEnd());
    return stmt;
  }

  Lexer lexer_;
  const Catalog& catalog_;
};

}  // namespace

StatusOr<ParsedStatement> ParseStatement(const std::string& sql,
                                         const Catalog& catalog) {
  Parser parser(sql, catalog);
  return parser.Parse();
}

}  // namespace mmdb
