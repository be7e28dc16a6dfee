#ifndef RQL_SQL_VALUE_H_
#define RQL_SQL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace rql::sql {

/// Column/value types. Mirrors the SQLite storage classes the paper's
/// queries rely on (INTEGER, REAL, TEXT plus NULL).
enum class ValueType : uint8_t {
  kNull = 0,
  kInteger = 1,
  kReal = 2,
  kText = 3,
};

std::string_view ValueTypeName(ValueType type);

class ValueRef;

/// A dynamically typed SQL value with SQLite-style coercion rules.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}

  static Value Null() { return Value(); }
  static Value Integer(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Text(std::string v) { return Value(std::move(v)); }

  ValueType type() const {
    switch (data_.index()) {
      case 0: return ValueType::kNull;
      case 1: return ValueType::kInteger;
      case 2: return ValueType::kReal;
      default: return ValueType::kText;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    return type() == ValueType::kInteger || type() == ValueType::kReal;
  }

  /// Accessors require the matching type.
  int64_t integer() const { return std::get<int64_t>(data_); }
  double real() const { return std::get<double>(data_); }
  const std::string& text() const { return std::get<std::string>(data_); }

  /// Numeric value as double (integer or real). 0.0 for other types.
  double AsDouble() const {
    if (type() == ValueType::kInteger) return static_cast<double>(integer());
    if (type() == ValueType::kReal) return real();
    return 0.0;
  }

  /// Numeric value as int64 (truncating reals). 0 for other types.
  int64_t AsInt() const {
    if (type() == ValueType::kInteger) return integer();
    if (type() == ValueType::kReal) return static_cast<int64_t>(real());
    return 0;
  }

  /// Rendering for result printing and debugging (NULL -> "NULL",
  /// text unquoted).
  std::string ToString() const;

  bool operator==(const Value& other) const;

  /// Overwrites this value with `v`, reusing the text buffer when both
  /// are text (a scratch row re-filled row after row allocates once).
  void Assign(ValueRef v);

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// A borrowed SQL value: a Value, or one cell of a DecodedPage read in
/// place. Text is a view into storage the caller keeps alive. Trivially
/// copyable, 16 bytes; pass by value.
class ValueRef {
 public:
  ValueRef() : type_(ValueType::kNull), i_(0) {}
  // Implicit: every Value is readable through a ValueRef.
  ValueRef(const Value& v) : type_(v.type()), i_(0) {  // NOLINT
    switch (type_) {
      case ValueType::kNull: break;
      case ValueType::kInteger: i_ = v.integer(); break;
      case ValueType::kReal: r_ = v.real(); break;
      case ValueType::kText:
        s_ = v.text().data();
        n_ = static_cast<uint32_t>(v.text().size());
        break;
    }
  }

  static ValueRef Integer(int64_t v) {
    ValueRef r;
    r.type_ = ValueType::kInteger;
    r.i_ = v;
    return r;
  }
  static ValueRef Real(double v) {
    ValueRef r;
    r.type_ = ValueType::kReal;
    r.r_ = v;
    return r;
  }
  static ValueRef Text(std::string_view v) {
    ValueRef r;
    r.type_ = ValueType::kText;
    r.s_ = v.data();
    r.n_ = static_cast<uint32_t>(v.size());
    return r;
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_numeric() const {
    return type_ == ValueType::kInteger || type_ == ValueType::kReal;
  }
  /// Accessors require the matching type.
  int64_t integer() const { return i_; }
  double real() const { return r_; }
  std::string_view text() const { return std::string_view(s_, n_); }

  /// Same conversions as Value::AsDouble.
  double AsDouble() const {
    if (type_ == ValueType::kInteger) return static_cast<double>(i_);
    if (type_ == ValueType::kReal) return r_;
    return 0.0;
  }

  /// An owning copy.
  Value ToValue() const {
    switch (type_) {
      case ValueType::kInteger: return Value::Integer(i_);
      case ValueType::kReal: return Value::Real(r_);
      case ValueType::kText: return Value::Text(std::string(text()));
      case ValueType::kNull: break;
    }
    return Value::Null();
  }

 private:
  ValueType type_;
  uint32_t n_ = 0;  // text length
  union {
    int64_t i_;
    double r_;
    const char* s_;
  };
};

/// A record: one value per column.
using Row = std::vector<Value>;

/// Total order used by indexes, ORDER BY, DISTINCT and GROUP BY:
/// NULL < numeric (ints and reals compared numerically) < text.
/// Returns <0, 0, >0.
int CompareValues(const Value& a, const Value& b);
/// The same order over borrowed values (one definition serves both).
int CompareValues(ValueRef a, ValueRef b);

/// Lexicographic row comparison with CompareValues semantics; a shorter row
/// that is a prefix of a longer one compares less.
int CompareRows(const Row& a, const Row& b);

/// Serializes a row to a compact byte string and back. The encoding is not
/// order-preserving; ordered structures decode before comparing.
void EncodeRow(const Row& row, std::string* out);
std::string EncodeRow(const Row& row);
Result<Row> DecodeRow(std::string_view data);

}  // namespace rql::sql

#endif  // RQL_SQL_VALUE_H_
