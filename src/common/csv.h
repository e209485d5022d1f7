/**
 * @file
 * Minimal CSV writing for experiment tables and traces.
 */
#ifndef AEO_COMMON_CSV_H_
#define AEO_COMMON_CSV_H_

#include <string>
#include <vector>

namespace aeo {

/** Accumulates rows and serializes them as RFC-4180-ish CSV. */
class CsvWriter {
  public:
    /** Sets the header row. */
    explicit CsvWriter(std::vector<std::string> header);

    /** Appends a row; must match the header width. */
    void AddRow(std::vector<std::string> row);

    /** Serializes header + rows. */
    std::string ToString() const;

    /** Number of data rows. */
    size_t row_count() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace aeo

#endif  // AEO_COMMON_CSV_H_
