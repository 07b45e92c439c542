#include "util/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace dbfs::util {
namespace {

TEST(Json, ParsesScalarsAndNesting) {
  const JsonValue v = parse_json(
      R"({"a": 1.5, "b": "text", "c": true, "d": null,
          "e": [1, 2, 3], "f": {"g": -7}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
  EXPECT_EQ(v.at("b").as_string(), "text");
  EXPECT_TRUE(v.at("c").as_bool());
  EXPECT_EQ(v.at("d").kind, JsonValue::Kind::kNull);
  ASSERT_TRUE(v.at("e").is_array());
  ASSERT_EQ(v.at("e").items.size(), 3u);
  EXPECT_EQ(v.at("e").items[2].as_int(), 3);
  EXPECT_EQ(v.at("f").at("g").as_int(), -7);
}

TEST(Json, ParsesScientificNotationAndBigIntegers) {
  const JsonValue v = parse_json(R"({"teps": 7.17225e8, "n": 8589934592})");
  EXPECT_DOUBLE_EQ(v.at("teps").as_number(), 7.17225e8);
  EXPECT_EQ(v.at("n").as_int(), 8589934592ll);
}

TEST(Json, StringEscapes) {
  const JsonValue v =
      parse_json(R"({"s": "a\"b\\c\nd\tA"})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\nd\tA");
}

TEST(Json, FallbackAccessors) {
  const JsonValue v = parse_json(R"({"x": 2})");
  EXPECT_DOUBLE_EQ(v.number_or("x", 9.0), 2.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 9.0), 9.0);
  EXPECT_EQ(v.int_or("missing", 4), 4);
  EXPECT_EQ(v.string_or("missing", "dflt"), "dflt");
  // Present key of the wrong kind is a schema bug, not an optional field.
  EXPECT_THROW(v.string_or("x", "dflt"), JsonError);
}

TEST(Json, ErrorsNameTheProblem) {
  EXPECT_THROW(parse_json(""), JsonError);
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": }"), JsonError);
  EXPECT_THROW(parse_json("[1, 2,]"), JsonError);
  EXPECT_THROW(parse_json("{} trailing"), JsonError);
  EXPECT_THROW(parse_json("nul"), JsonError);
}

TEST(Json, NestingDepthIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(parse_json(nested(kMaxJsonDepth)));
  EXPECT_THROW(parse_json(nested(kMaxJsonDepth + 1)), JsonError);
  // Far past the limit (a hostile plan or record): a parse error, not a
  // stack overflow.
  EXPECT_THROW(parse_json("{\"a\":" + std::string(200000, '{')), JsonError);
  try {
    parse_json(std::string(200000, '['));
    ADD_FAILURE() << "200000-deep nesting parsed";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos);
  }
}

TEST(Json, TypedAccessMismatchThrows) {
  const JsonValue v = parse_json(R"({"a": "str"})");
  EXPECT_THROW(v.at("a").as_number(), JsonError);
  EXPECT_THROW(v.at("missing"), JsonError);
  EXPECT_THROW(v.at("a").at("b"), JsonError);
}

}  // namespace
}  // namespace dbfs::util
