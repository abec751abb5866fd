#include "store/lake_store.h"

#include <gtest/gtest.h>

namespace seagull {
namespace {

class LakeStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto lake = LakeStore::OpenTemporary("test");
    ASSERT_TRUE(lake.ok());
    lake_ = std::make_unique<LakeStore>(std::move(lake).ValueUnsafe());
  }

  std::unique_ptr<LakeStore> lake_;
};

TEST_F(LakeStoreTest, PutGetBlobRoundTrip) {
  ASSERT_TRUE(lake_->Put("a/b/c.txt", "payload").ok());
  auto got = lake_->GetBlob("a/b/c.txt");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->view(), "payload");
}

TEST_F(LakeStoreTest, GetBlobMissingIsNotFound) {
  EXPECT_TRUE(lake_->GetBlob("nope.txt").status().IsNotFound());
}

TEST_F(LakeStoreTest, ExistsAndDelete) {
  ASSERT_TRUE(lake_->Put("x.txt", "1").ok());
  EXPECT_TRUE(lake_->Exists("x.txt"));
  ASSERT_TRUE(lake_->Delete("x.txt").ok());
  EXPECT_FALSE(lake_->Exists("x.txt"));
  EXPECT_FALSE(lake_->Delete("x.txt").ok());
}

TEST_F(LakeStoreTest, OverwriteReplaces) {
  ASSERT_TRUE(lake_->Put("k", "v1").ok());
  ASSERT_TRUE(lake_->Put("k", "v2").ok());
  EXPECT_EQ(lake_->GetBlob("k")->view(), "v2");
}

TEST_F(LakeStoreTest, ListByPrefixSorted) {
  ASSERT_TRUE(lake_->Put("telemetry/r1/week-0001.csv", "a").ok());
  ASSERT_TRUE(lake_->Put("telemetry/r1/week-0002.csv", "b").ok());
  ASSERT_TRUE(lake_->Put("telemetry/r2/week-0001.csv", "c").ok());
  ASSERT_TRUE(lake_->Put("schema/r1.json", "d").ok());
  auto keys = lake_->List("telemetry/r1/");
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 2u);
  EXPECT_EQ((*keys)[0], "telemetry/r1/week-0001.csv");
  auto all = lake_->List("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 4u);
}

TEST_F(LakeStoreTest, SizeOf) {
  ASSERT_TRUE(lake_->Put("s.bin", "12345").ok());
  auto size = lake_->SizeOf("s.bin");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 5);
  EXPECT_FALSE(lake_->SizeOf("missing").ok());
}

TEST_F(LakeStoreTest, RejectsUnsafeKeys) {
  EXPECT_FALSE(lake_->Put("", "x").ok());
  EXPECT_FALSE(lake_->Put("/abs/path", "x").ok());
  EXPECT_FALSE(lake_->Put("../escape", "x").ok());
  EXPECT_FALSE(lake_->GetBlob("a/../../etc/passwd").ok());
}

TEST_F(LakeStoreTest, TelemetryKeyFormat) {
  EXPECT_EQ(LakeStore::TelemetryKey("west-eu", 3),
            "telemetry/west-eu/week-0003.csv");
}

TEST_F(LakeStoreTest, BinaryContentSurvives) {
  std::string blob;
  for (int i = 0; i < 256; ++i) blob.push_back(static_cast<char>(i));
  ASSERT_TRUE(lake_->Put("bin", blob).ok());
  EXPECT_EQ(lake_->GetBlob("bin")->view(), blob);
}

TEST(LakeStoreOpenTest, TemporaryStoresAreDistinct) {
  auto a = LakeStore::OpenTemporary("x");
  auto b = LakeStore::OpenTemporary("x");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->root(), b->root());
}

}  // namespace
}  // namespace seagull
