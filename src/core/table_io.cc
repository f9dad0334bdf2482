#include "core/table_io.h"

#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>

#include "data/csv.h"
#include "recovery/atomic_file.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace divexp {

std::string WritePatternTableCsv(const PatternTable& table) {
  std::ostringstream os;
  os << "itemset,length,support,t_count,f_count,bot_count,rate,"
        "divergence,t_stat\n";
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    std::vector<std::string> parts;
    for (uint32_t id : row.items) {
      parts.push_back(table.catalog().ItemName(id));
    }
    std::string name = Join(parts, " AND ");
    // Quote if needed (item values may contain commas).
    if (name.find(',') != std::string::npos ||
        name.find('"') != std::string::npos) {
      std::string quoted = "\"";
      for (char ch : name) {
        if (ch == '"') quoted += '"';
        quoted += ch;
      }
      quoted += '"';
      name = std::move(quoted);
    }
    os << name << ',' << row.items.size() << ','
       << FormatDouble(row.support, 9) << ',' << row.counts.t << ','
       << row.counts.f << ',' << row.counts.bot << ','
       << FormatDouble(row.rate, 9) << ','
       << FormatDouble(row.divergence, 9) << ','
       << FormatDouble(row.t, 6) << '\n';
  }
  return os.str();
}

Status WritePatternTableFile(const PatternTable& table,
                             const std::string& path) {
  DIVEXP_FAILPOINT_STATUS("io.table.write");
  // Atomic replace: a crash mid-write never leaves a torn CSV at
  // `path` — readers see either the old file or the new one.
  return recovery::WriteFileAtomic(path, WritePatternTableCsv(table));
}

Result<PatternTable> ReadPatternTableCsv(const std::string& text,
                                         size_t num_dataset_rows) {
  CsvOptions copts;
  copts.strings_as_categorical = false;
  copts.na_values.clear();  // itemset "" is the baseline row, not NA
  DIVEXP_ASSIGN_OR_RETURN(DataFrame df, ReadCsvString(text, copts));
  for (const char* col :
       {"itemset", "t_count", "f_count", "bot_count"}) {
    if (!df.HasColumn(col)) {
      return Status::InvalidArgument(
          std::string("missing column '") + col + "'");
    }
  }

  // First pass: collect attributes and values in appearance order.
  const Column& itemset_col = df.Get("itemset");
  std::vector<std::string> attr_order;
  std::map<std::string, std::vector<std::string>> attr_values;
  auto parse_items =
      [](const std::string& s) -> std::vector<std::pair<std::string,
                                                        std::string>> {
    std::vector<std::pair<std::string, std::string>> out;
    if (Trim(s).empty()) return out;
    size_t pos = 0;
    while (pos < s.size()) {
      size_t next = s.find(" AND ", pos);
      const std::string part =
          Trim(s.substr(pos, next == std::string::npos ? std::string::npos
                                                       : next - pos));
      pos = next == std::string::npos ? s.size() : next + 5;
      const size_t eq = part.find('=');
      if (eq == std::string::npos) continue;
      out.emplace_back(part.substr(0, eq), part.substr(eq + 1));
    }
    return out;
  };
  for (size_t r = 0; r < df.num_rows(); ++r) {
    const std::string cell = itemset_col.type() == ColumnType::kString
                                 ? itemset_col.strings()[r]
                                 : itemset_col.ValueString(r);
    for (const auto& [attr, value] : parse_items(cell)) {
      auto [it, inserted] = attr_values.try_emplace(attr);
      if (inserted) attr_order.push_back(attr);
      auto& values = it->second;
      if (std::find(values.begin(), values.end(), value) ==
          values.end()) {
        values.push_back(value);
      }
    }
  }

  ItemCatalog catalog;
  for (const std::string& attr : attr_order) {
    catalog.AddAttribute(attr, attr_values[attr]);
  }

  // Second pass: rebuild the mined patterns.
  auto count_at = [&](const char* col, size_t r) -> uint64_t {
    const Column& c = df.Get(col);
    return static_cast<uint64_t>(c.Numeric(r));
  };
  std::vector<MinedPattern> mined;
  mined.reserve(df.num_rows());
  for (size_t r = 0; r < df.num_rows(); ++r) {
    const std::string cell = itemset_col.type() == ColumnType::kString
                                 ? itemset_col.strings()[r]
                                 : itemset_col.ValueString(r);
    MinedPattern p;
    DIVEXP_ASSIGN_OR_RETURN(p.items,
                            ParseItemset(catalog, parse_items(cell)));
    p.counts = OutcomeCounts{count_at("t_count", r),
                             count_at("f_count", r),
                             count_at("bot_count", r)};
    mined.push_back(std::move(p));
  }
  return PatternTable::Create(std::move(mined), std::move(catalog),
                              num_dataset_rows);
}

Result<PatternTable> ReadPatternTableFile(const std::string& path,
                                          size_t num_dataset_rows) {
  DIVEXP_FAILPOINT_STATUS("io.table.read");
  DIVEXP_ASSIGN_OR_RETURN(std::string text,
                          recovery::ReadFileToString(path));
  return ReadPatternTableCsv(text, num_dataset_rows);
}

}  // namespace divexp
