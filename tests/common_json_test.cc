#include "common/json.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace seagull {
namespace {

TEST(JsonTest, TypesAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(3.5).is_number());
  EXPECT_TRUE(Json(7).is_number());
  EXPECT_TRUE(Json("s").is_string());
  EXPECT_TRUE(Json::MakeArray().is_array());
  EXPECT_TRUE(Json::MakeObject().is_object());
  EXPECT_EQ(Json(int64_t{9}).AsInt(), 9);
  EXPECT_DOUBLE_EQ(Json(2.25).AsDouble(), 2.25);
}

TEST(JsonTest, DumpPrimitives) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(2.5).Dump(), "2.5");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, DumpEscapes) {
  EXPECT_EQ(Json("a\"b").Dump(), "\"a\\\"b\"");
  EXPECT_EQ(Json("line\nbreak").Dump(), "\"line\\nbreak\"");
  EXPECT_EQ(Json("tab\t").Dump(), "\"tab\\t\"");
  EXPECT_EQ(Json("back\\slash").Dump(), "\"back\\\\slash\"");
}

TEST(JsonTest, ObjectAndArrayDump) {
  Json obj = Json::MakeObject();
  obj["b"] = 1;
  obj["a"] = Json::MakeArray();
  obj["a"].Append(1);
  obj["a"].Append("two");
  // std::map orders keys.
  EXPECT_EQ(obj.Dump(), "{\"a\":[1,\"two\"],\"b\":1}");
}

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_EQ(Json::Parse("true")->AsBool(), true);
  EXPECT_DOUBLE_EQ(Json::Parse("-2.5e2")->AsDouble(), -250.0);
  EXPECT_EQ(Json::Parse("\"x\"")->AsString(), "x");
}

TEST(JsonTest, ParseNested) {
  auto v = Json::Parse(R"({"a": [1, {"b": true}], "c": "s"})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)["a"].AsArray()[1]["b"].AsBool(), true);
  EXPECT_EQ((*v)["c"].AsString(), "s");
}

TEST(JsonTest, ParseStringEscapes) {
  auto v = Json::Parse(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "a\"b\\c\nd" "A");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
}

TEST(JsonTest, RoundTrip) {
  Json doc = Json::MakeObject();
  doc["model"] = "ssa";
  doc["coeffs"] = Json::MakeArray();
  for (int i = 0; i < 5; ++i) doc["coeffs"].Append(i * 0.5);
  doc["nested"] = Json::MakeObject();
  doc["nested"]["flag"] = true;
  doc["nothing"] = Json();
  auto back = Json::Parse(doc.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, doc);
}

TEST(JsonTest, NumbersAreFiniteDecimalText) {
  EXPECT_TRUE(Json::Parse(R"({"a":+1})").status().IsInvalid());
  EXPECT_TRUE(Json::Parse(R"({"a":1e400})").status().IsInvalid());
  EXPECT_TRUE(Json::Parse(R"({"a":-})").status().IsInvalid());
}

TEST(JsonTest, SubnormalRoundTrips) {
  Json doc = Json::MakeObject();
  doc["tiny"] = 1e-310;
  auto back = Json::Parse(doc.Dump());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ((*back)["tiny"].AsDouble(), 1e-310);
  EXPECT_EQ(*back, doc);
}

TEST(JsonTest, PrettyRoundTrip) {
  Json doc = Json::MakeObject();
  doc["a"] = Json::MakeArray();
  doc["a"].Append(1);
  doc["b"] = "x";
  auto back = Json::Parse(doc.DumpPretty());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, doc);
}

TEST(JsonTest, MissingKeyReturnsNull) {
  Json obj = Json::MakeObject();
  obj["present"] = 1;
  // Const access does not insert; mutable operator[] (like std::map) does.
  const Json& view = obj;
  EXPECT_TRUE(view["absent"].is_null());
  EXPECT_TRUE(view.Contains("present"));
  EXPECT_FALSE(view.Contains("absent"));
  obj["inserted"];
  EXPECT_TRUE(obj.Contains("inserted"));
}

TEST(JsonTest, CheckedGetters) {
  Json obj = Json::MakeObject();
  obj["n"] = 5;
  obj["s"] = "str";
  obj["b"] = true;
  EXPECT_DOUBLE_EQ(*obj.GetNumber("n"), 5.0);
  EXPECT_EQ(*obj.GetString("s"), "str");
  EXPECT_EQ(*obj.GetBool("b"), true);
  EXPECT_FALSE(obj.GetNumber("s").ok());
  EXPECT_FALSE(obj.GetString("missing").ok());
}

TEST(JsonTest, LargeIntegersDumpWithoutScientific) {
  EXPECT_EQ(Json(int64_t{10080000}).Dump(), "10080000");
}

TEST(JsonTest, NonAsciiUnicodeEscapeRejected) {
  EXPECT_FALSE(Json::Parse("\"\\u00e9\"").ok());
}

TEST(JsonTest, GetInt64ChecksRangeAndIntegrality) {
  Json obj = Json::MakeObject();
  obj["int"] = int64_t{-1440};
  obj["limit"] = 9007199254740992.0;  // 2^53
  obj["past_limit"] = 9007199254740994.0;
  obj["huge"] = 1e300;
  obj["neg_huge"] = -1e300;
  obj["fraction"] = 1.5;
  obj["inf"] = std::numeric_limits<double>::infinity();
  obj["nan"] = std::numeric_limits<double>::quiet_NaN();
  obj["string"] = "7";
  obj["null"] = Json();
  EXPECT_EQ(*obj.GetInt64("int"), -1440);
  EXPECT_EQ(*obj.GetInt64("limit"), int64_t{1} << 53);
  EXPECT_TRUE(obj.GetInt64("missing").status().IsNotFound());
  for (const char* key : {"past_limit", "huge", "neg_huge", "fraction", "inf",
                          "nan", "string", "null"}) {
    EXPECT_TRUE(obj.GetInt64(key).status().IsInvalid()) << key;
  }
}

TEST(JsonTest, ToInt64ChecksArrayElementsLikeMembers) {
  auto doc = Json::Parse("[3, -7, 1e300, 2.5, \"4\", null, 9007199254740992]");
  ASSERT_TRUE(doc.ok());
  const Json::Array& items = doc->AsArray();
  EXPECT_EQ(*items[0].ToInt64("entry"), 3);
  EXPECT_EQ(*items[1].ToInt64("entry"), -7);
  EXPECT_EQ(*items[6].ToInt64("entry"), int64_t{1} << 53);
  for (size_t i : {2, 3, 4, 5}) {
    Status st = items[i].ToInt64("holidays entry").status();
    EXPECT_TRUE(st.IsInvalid()) << i;
    EXPECT_NE(st.ToString().find("holidays entry must be an integer"),
              std::string::npos)
        << st.ToString();
  }
  // A member reads through the same check and names its field.
  Json obj = Json::MakeObject();
  obj["interval"] = 2.5;
  EXPECT_NE(obj.GetInt64("interval").status().ToString().find(
                "field interval must be an integer"),
            std::string::npos);
}

std::string Nested(int depth) {
  return std::string(static_cast<size_t>(depth), '[') +
         std::string(static_cast<size_t>(depth), ']');
}

TEST(JsonTest, NestingAtTheDepthCapParsesDumpsAndDestroys) {
  const std::string text = Nested(kMaxJsonDepth);
  {
    auto v = Json::Parse(text);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(v->Dump(), text);
    EXPECT_FALSE(v->DumpPretty().empty());
  }  // destroyed here, 512 levels deep
  std::string objects;
  for (int i = 0; i < kMaxJsonDepth; ++i) objects += "{\"k\":";
  objects += "1";
  objects += std::string(static_cast<size_t>(kMaxJsonDepth), '}');
  auto o = Json::Parse(objects);
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_EQ(o->Dump(), objects);
}

TEST(JsonTest, NestingPastTheDepthCapIsInvalid) {
  EXPECT_EQ(kMaxJsonDepth, 512);
  for (int depth : {kMaxJsonDepth + 1, 20000}) {
    auto v = Json::Parse(Nested(depth));
    EXPECT_TRUE(v.status().IsInvalid()) << depth;
  }
  // The serving-engine repro: one 40 KB request line used to overflow
  // the stack.
  const std::string line =
      "{\"verb\":\"predict\",\"server_id\":" + Nested(20000) + "}";
  EXPECT_TRUE(Json::Parse(line).status().IsInvalid());
  std::string objects;
  for (int i = 0; i <= kMaxJsonDepth; ++i) objects += "{\"k\":";
  objects += "1";
  objects += std::string(static_cast<size_t>(kMaxJsonDepth) + 1, '}');
  EXPECT_TRUE(Json::Parse(objects).status().IsInvalid());
}

}  // namespace
}  // namespace seagull
