#include "common/csv.h"

#include <sstream>

#include "common/logging.h"

namespace aeo {

namespace {

std::string
EscapeField(const std::string& field)
{
    if (field.find_first_of(",\"\n") == std::string::npos) {
        return field;
    }
    std::string out = "\"";
    for (const char c : field) {
        if (c == '"') {
            out += "\"\"";
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header))
{
    AEO_ASSERT(!header_.empty(), "CSV header must not be empty");
}

void
CsvWriter::AddRow(std::vector<std::string> row)
{
    AEO_ASSERT(row.size() == header_.size(), "CSV row width %zu != header width %zu",
               row.size(), header_.size());
    rows_.push_back(std::move(row));
}

std::string
CsvWriter::ToString() const
{
    std::ostringstream out;
    for (size_t i = 0; i < header_.size(); ++i) {
        if (i > 0) {
            out << ',';
        }
        out << EscapeField(header_[i]);
    }
    out << '\n';
    for (const auto& row : rows_) {
        for (size_t i = 0; i < row.size(); ++i) {
            if (i > 0) {
                out << ',';
            }
            out << EscapeField(row[i]);
        }
        out << '\n';
    }
    return out.str();
}

}  // namespace aeo
