#include "store/lake_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

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
  EXPECT_TRUE(lake_->GetBlob("x.txt").status().IsNotFound());
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
            "telemetry/west-eu/week-0003.sgb");
}

TEST_F(LakeStoreTest, BinaryContentSurvives) {
  std::string blob;
  for (int i = 0; i < 256; ++i) blob.push_back(static_cast<char>(i));
  ASSERT_TRUE(lake_->Put("bin", blob).ok());
  EXPECT_EQ(lake_->GetBlob("bin")->view(), blob);
}

TEST_F(LakeStoreTest, GetBlobMapsTheFile) {
  ASSERT_TRUE(lake_->Put("k", "mapped payload").ok());
  auto mapped = lake_->GetBlob("k");
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(*mapped);
  EXPECT_EQ(mapped->view(), "mapped payload");
  // A mapping starts on a page boundary; a heap copy of 14 bytes
  // would not.
  const auto page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(mapped->data()) % page, 0u);
}

TEST_F(LakeStoreTest, EmptyBlobMapsToEmptyView) {
  ASSERT_TRUE(lake_->Put("empty", "").ok());
  auto blob = lake_->GetBlob("empty");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->size(), 0);
  EXPECT_TRUE(blob->view().empty());
}

TEST_F(LakeStoreTest, PutStreamedWritesAtomicallyAndHidesTmpFiles) {
  ASSERT_TRUE(lake_
                  ->PutStreamed("dir/streamed.bin",
                                [](std::ostream& out) {
                                  out << "part one,";
                                  out << "part two";
                                  return Status::OK();
                                })
                  .ok());
  auto blob = lake_->GetBlob("dir/streamed.bin");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->view(), "part one,part two");

  // A failing writer must leave no blob and no staging debris behind.
  EXPECT_FALSE(lake_
                   ->PutStreamed("dir/failed.bin",
                                 [](std::ostream& out) {
                                   out << "half-written";
                                   return Status::IOError("writer gave up");
                                 })
                   .ok());
  EXPECT_FALSE(lake_->Exists("dir/failed.bin"));
  auto keys = lake_->List("");
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0], "dir/streamed.bin");
}

TEST_F(LakeStoreTest, HeldBlobOutlivesReplaceAndDelete) {
  ASSERT_TRUE(lake_->Put("k", "generation one").ok());
  auto pinned = lake_->GetBlob("k");
  ASSERT_TRUE(pinned.ok());
  std::string_view view = pinned->view();

  // Overwrite (tmp + rename: the mapped inode stays alive), then
  // delete. Neither may disturb the outstanding mapping — this is the
  // pin contract SeriesBlockCursor relies on when decoding straight
  // out of the lake.
  ASSERT_TRUE(lake_->Put("k", "generation two").ok());
  auto fresh = lake_->GetBlob("k");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->view(), "generation two");
  ASSERT_TRUE(lake_->Delete("k").ok());
  EXPECT_EQ(view, "generation one");  // old pages still readable
  EXPECT_EQ(pinned->view(), "generation one");
}

TEST_F(LakeStoreTest, ReadAfterOtherHandleReplaceSeesNewBytes) {
  ASSERT_TRUE(lake_->Put("k", "AAAA").ok());
  ASSERT_EQ(lake_->GetBlob("k")->view(), "AAAA");

  // A second handle over the same directory — the moral equivalent of
  // another process — replaces the blob at the same size.
  auto writer = LakeStore::Open(lake_->root());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Put("k", "BBBB").ok());

  auto blob = lake_->GetBlob("k");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->view(), "BBBB");
}

TEST(LakeStoreOpenTest, TemporaryStoresAreDistinct) {
  auto a = LakeStore::OpenTemporary("x");
  auto b = LakeStore::OpenTemporary("x");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->root(), b->root());

  // The directory lives while any copy of its handle does, and goes
  // with the last one.
  const std::string root = a->root();
  ASSERT_TRUE(a->Put("dir/k", "v").ok());
  auto copy = std::make_unique<LakeStore>(*a);
  { const LakeStore dropped = std::move(a).ValueUnsafe(); }
  EXPECT_TRUE(std::filesystem::exists(root));
  EXPECT_EQ(copy->GetBlob("dir/k")->view(), "v");
  copy.reset();
  EXPECT_FALSE(std::filesystem::exists(root));
  EXPECT_TRUE(std::filesystem::exists(b->root()));
}

}  // namespace
}  // namespace seagull
