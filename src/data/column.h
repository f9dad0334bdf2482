// Typed column storage for the DataFrame substrate.
//
// Columns are immutable-by-convention value types. Categorical columns
// are dictionary-encoded: per-row int32 codes plus a category string
// dictionary; code -1 marks a missing value. Double columns use NaN for
// missing; string columns use "".
#ifndef DIVEXP_DATA_COLUMN_H_
#define DIVEXP_DATA_COLUMN_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace divexp {

/// Physical type of a column.
enum class ColumnType {
  kDouble,       ///< continuous values
  kInt,          ///< integer values
  kString,       ///< raw strings (pre-encoding)
  kCategorical,  ///< dictionary-encoded discrete values
};

const char* ColumnTypeName(ColumnType type);

/// A named, typed column of a DataFrame.
class Column {
 public:
  Column() : type_(ColumnType::kDouble) {}

  static Column MakeDouble(std::string name, std::vector<double> values);
  static Column MakeInt(std::string name, std::vector<int64_t> values);
  static Column MakeString(std::string name, std::vector<std::string> values);
  /// Builds a categorical column from codes and a dictionary. Codes must
  /// be in [-1, categories.size()).
  static Column MakeCategorical(std::string name, std::vector<int32_t> codes,
                                std::vector<std::string> categories);
  /// Builds a categorical column by dictionary-encoding raw string
  /// values in first-appearance order ("" becomes missing).
  static Column CategoricalFromStrings(
      std::string name, std::span<const std::string_view> values);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  ColumnType type() const { return type_; }
  size_t size() const;

  bool is_categorical() const { return type_ == ColumnType::kCategorical; }

  // Typed accessors; DIVEXP_CHECK on type mismatch.
  const std::vector<double>& doubles() const;
  const std::vector<int64_t>& ints() const;
  const std::vector<std::string>& strings() const;
  const std::vector<int32_t>& codes() const;
  const std::vector<std::string>& categories() const;

  /// Number of dictionary entries (categorical only).
  size_t num_categories() const { return categories().size(); }

  /// True if row i holds a missing value.
  bool IsMissing(size_t i) const;

  /// Value of row i rendered as a string ("" when missing).
  std::string ValueString(size_t i) const;

  /// Numeric view of row i (double/int only); NaN when missing.
  double Numeric(size_t i) const;

  /// New column containing the rows selected by `indices`.
  Column Take(const std::vector<size_t>& indices) const;

 private:
  std::string name_;
  ColumnType type_;
  std::vector<double> doubles_;
  std::vector<int64_t> ints_;
  std::vector<std::string> strings_;
  std::vector<int32_t> codes_;
  std::vector<std::string> categories_;
};

}  // namespace divexp

#endif  // DIVEXP_DATA_COLUMN_H_
