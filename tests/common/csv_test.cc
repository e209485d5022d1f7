#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace aeo {
namespace {

TEST(CsvWriterTest, WritesHeaderAndRows)
{
    CsvWriter writer({"a", "b"});
    writer.AddRow({"1", "2"});
    writer.AddRow({"x", "y"});
    EXPECT_EQ(writer.ToString(), "a,b\n1,2\nx,y\n");
    EXPECT_EQ(writer.row_count(), 2u);
}

TEST(CsvWriterTest, EscapesSpecialCharacters)
{
    CsvWriter writer({"text"});
    writer.AddRow({"has,comma"});
    writer.AddRow({"has\"quote"});
    EXPECT_EQ(writer.ToString(), "text\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST(CsvFileTest, WriteAndReadBack)
{
    const std::string path = ::testing::TempDir() + "/aeo_csv_test.csv";
    CsvWriter writer({"k", "v"});
    writer.AddRow({"alpha", "1"});
    writer.WriteFile(path);
    std::ostringstream contents;
    contents << std::ifstream(path).rdbuf();
    EXPECT_EQ(contents.str(), "k,v\nalpha,1\n");
    std::remove(path.c_str());
}

}  // namespace
}  // namespace aeo
