#include "data/column.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/string_util.h"

namespace divexp {

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kInt:
      return "int";
    case ColumnType::kString:
      return "string";
    case ColumnType::kCategorical:
      return "categorical";
  }
  return "unknown";
}

Column Column::MakeDouble(std::string name, std::vector<double> values) {
  Column c;
  c.name_ = std::move(name);
  c.type_ = ColumnType::kDouble;
  c.doubles_ = std::move(values);
  return c;
}

Column Column::MakeInt(std::string name, std::vector<int64_t> values) {
  Column c;
  c.name_ = std::move(name);
  c.type_ = ColumnType::kInt;
  c.ints_ = std::move(values);
  return c;
}

Column Column::MakeString(std::string name,
                          std::vector<std::string> values) {
  Column c;
  c.name_ = std::move(name);
  c.type_ = ColumnType::kString;
  c.strings_ = std::move(values);
  return c;
}

Column Column::MakeCategorical(std::string name, std::vector<int32_t> codes,
                               std::vector<std::string> categories) {
  for (int32_t code : codes) {
    DIVEXP_CHECK(code >= -1 &&
                 code < static_cast<int32_t>(categories.size()));
  }
  Column c;
  c.name_ = std::move(name);
  c.type_ = ColumnType::kCategorical;
  c.codes_ = std::move(codes);
  c.categories_ = std::move(categories);
  return c;
}

Column Column::CategoricalFromStrings(
    std::string name, std::span<const std::string_view> values) {
  // Open addressing over a power-of-two table of category codes, kept
  // at most half full; keys are views into `values`.
  std::vector<int32_t> codes;
  std::vector<std::string_view> keys;
  std::vector<int32_t> slots;
  const auto hash = std::hash<std::string_view>{};
  codes.reserve(values.size());
  for (std::string_view v : values) {
    if (v.empty()) {
      codes.push_back(-1);
      continue;
    }
    if (2 * (keys.size() + 1) > slots.size()) {
      slots.assign(std::max<size_t>(16, 2 * slots.size()), -1);
      const size_t mask = slots.size() - 1;
      for (size_t k = 0; k < keys.size(); ++k) {
        size_t i = hash(keys[k]) & mask;
        while (slots[i] >= 0) i = (i + 1) & mask;
        slots[i] = static_cast<int32_t>(k);
      }
    }
    const size_t mask = slots.size() - 1;
    size_t i = hash(v) & mask;
    while (slots[i] >= 0 && keys[slots[i]] != v) i = (i + 1) & mask;
    if (slots[i] < 0) {
      slots[i] = static_cast<int32_t>(keys.size());
      keys.push_back(v);
    }
    codes.push_back(slots[i]);
  }
  return MakeCategorical(std::move(name), std::move(codes),
                         std::vector<std::string>(keys.begin(), keys.end()));
}

size_t Column::size() const {
  switch (type_) {
    case ColumnType::kDouble:
      return doubles_.size();
    case ColumnType::kInt:
      return ints_.size();
    case ColumnType::kString:
      return strings_.size();
    case ColumnType::kCategorical:
      return codes_.size();
  }
  return 0;
}

const std::vector<double>& Column::doubles() const {
  DIVEXP_CHECK(type_ == ColumnType::kDouble);
  return doubles_;
}

const std::vector<int64_t>& Column::ints() const {
  DIVEXP_CHECK(type_ == ColumnType::kInt);
  return ints_;
}

const std::vector<std::string>& Column::strings() const {
  DIVEXP_CHECK(type_ == ColumnType::kString);
  return strings_;
}

const std::vector<int32_t>& Column::codes() const {
  DIVEXP_CHECK(type_ == ColumnType::kCategorical);
  return codes_;
}

const std::vector<std::string>& Column::categories() const {
  DIVEXP_CHECK(type_ == ColumnType::kCategorical);
  return categories_;
}

bool Column::IsMissing(size_t i) const {
  DIVEXP_CHECK(i < size());
  switch (type_) {
    case ColumnType::kDouble:
      return std::isnan(doubles_[i]);
    case ColumnType::kInt:
      return false;
    case ColumnType::kString:
      return strings_[i].empty();
    case ColumnType::kCategorical:
      return codes_[i] < 0;
  }
  return false;
}

std::string Column::ValueString(size_t i) const {
  DIVEXP_CHECK(i < size());
  if (IsMissing(i)) return "";
  switch (type_) {
    case ColumnType::kDouble: {
      // Trim trailing zeros for readability.
      std::string s = FormatDouble(doubles_[i], 6);
      while (!s.empty() && s.back() == '0') s.pop_back();
      if (!s.empty() && s.back() == '.') s.pop_back();
      return s;
    }
    case ColumnType::kInt:
      return std::to_string(ints_[i]);
    case ColumnType::kString:
      return strings_[i];
    case ColumnType::kCategorical:
      return categories_[codes_[i]];
  }
  return "";
}

double Column::Numeric(size_t i) const {
  DIVEXP_CHECK(i < size());
  switch (type_) {
    case ColumnType::kDouble:
      return doubles_[i];
    case ColumnType::kInt:
      return static_cast<double>(ints_[i]);
    case ColumnType::kString:
    case ColumnType::kCategorical:
      DIVEXP_CHECK(false);
  }
  return std::nan("");
}

Column Column::Take(const std::vector<size_t>& indices) const {
  Column c;
  c.name_ = name_;
  c.type_ = type_;
  switch (type_) {
    case ColumnType::kDouble:
      c.doubles_.reserve(indices.size());
      for (size_t i : indices) c.doubles_.push_back(doubles_.at(i));
      break;
    case ColumnType::kInt:
      c.ints_.reserve(indices.size());
      for (size_t i : indices) c.ints_.push_back(ints_.at(i));
      break;
    case ColumnType::kString:
      c.strings_.reserve(indices.size());
      for (size_t i : indices) c.strings_.push_back(strings_.at(i));
      break;
    case ColumnType::kCategorical:
      c.codes_.reserve(indices.size());
      for (size_t i : indices) c.codes_.push_back(codes_.at(i));
      c.categories_ = categories_;
      break;
  }
  return c;
}

}  // namespace divexp
