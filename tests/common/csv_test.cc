#include "common/csv.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace aeo
