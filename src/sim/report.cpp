#include "sim/report.hpp"

#include <sstream>

#include "common/json_writer.hpp"
#include "common/prestage_assert.hpp"

namespace prestage::sim {

std::string render_host_perf(const HostPerf& perf) {
  std::ostringstream out;
  out << fmt(perf.host_seconds, 3) << " s host time, "
      << fmt(perf.minstr_per_sec, 2) << " Minstr/s";
  return out.str();
}

void write_host_perf(JsonWriter& json, const HostPerf& perf) {
  json.begin_object();
  json.field("host_seconds", perf.host_seconds);
  json.field("minstr_per_sec", perf.minstr_per_sec);
  json.end_object();
}

std::string render_size_chart(const std::string& title,
                              const std::vector<std::uint64_t>& sizes,
                              const std::vector<Series>& series) {
  std::vector<std::string> headers = {"L1 size"};
  for (const auto& s : series) headers.push_back(s.label);
  Table table(std::move(headers));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row = {fmt_bytes(sizes[i])};
    for (const auto& s : series) {
      PRESTAGE_ASSERT(s.values.size() == sizes.size(),
                      "series length mismatch");
      row.push_back(fmt(s.values[i], 3));
    }
    table.add_row(std::move(row));
  }
  std::ostringstream out;
  out << "== " << title << " ==\n"
      << table.to_text() << "\ncsv:\n"
      << table.to_csv();
  return out.str();
}

std::string render_source_chart(const std::string& title,
                                const std::vector<std::uint64_t>& sizes,
                                const std::vector<SourceBreakdown>& rows,
                                bool include_l0) {
  PRESTAGE_ASSERT(rows.size() == sizes.size());
  std::vector<std::string> headers = {"L1 size", "PB"};
  if (include_l0) headers.emplace_back("il0");
  headers.emplace_back("il1");
  headers.emplace_back("ul2");
  headers.emplace_back("Mem");
  Table table(std::move(headers));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const SourceBreakdown& sb = rows[i];
    std::vector<std::string> row = {fmt_bytes(sizes[i])};
    row.push_back(fmt_pct(sb.fraction(FetchSource::PreBuffer)));
    if (include_l0) row.push_back(fmt_pct(sb.fraction(FetchSource::L0)));
    row.push_back(fmt_pct(sb.fraction(FetchSource::L1)));
    row.push_back(fmt_pct(sb.fraction(FetchSource::L2)));
    row.push_back(fmt_pct(sb.fraction(FetchSource::Memory)));
    table.add_row(std::move(row));
  }
  std::ostringstream out;
  out << "== " << title << " ==\n"
      << table.to_text() << "\ncsv:\n"
      << table.to_csv();
  return out.str();
}

double speedup_pct(double a, double b) {
  PRESTAGE_ASSERT(b > 0.0, "speedup baseline must be positive");
  return (a / b - 1.0) * 100.0;
}

}  // namespace prestage::sim
