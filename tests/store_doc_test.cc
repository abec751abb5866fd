#include "store/doc_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

namespace seagull {
namespace {

Document MakeDoc(const std::string& pk, const std::string& id, double value) {
  Document d;
  d.partition_key = pk;
  d.id = id;
  d.body = Json::MakeObject();
  d.body["value"] = value;
  return d;
}

TEST(ContainerTest, UpsertAndGet) {
  Container c("test");
  ASSERT_TRUE(c.Upsert(MakeDoc("p1", "a", 1.0)).ok());
  auto got = c.Get("p1", "a");
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(*got->body.GetNumber("value"), 1.0);
  EXPECT_TRUE(c.Get("p1", "missing").status().IsNotFound());
  EXPECT_TRUE(c.Get("p2", "a").status().IsNotFound());
}

TEST(ContainerTest, UpsertReplaces) {
  Container c("test");
  ASSERT_TRUE(c.Upsert(MakeDoc("p", "x", 1.0)).ok());
  ASSERT_TRUE(c.Upsert(MakeDoc("p", "x", 2.0)).ok());
  EXPECT_DOUBLE_EQ(*c.Get("p", "x")->body.GetNumber("value"), 2.0);
  EXPECT_EQ(c.Count(), 1);
}

TEST(ContainerTest, InsertFailsOnDuplicate) {
  Container c("test");
  ASSERT_TRUE(c.Insert(MakeDoc("p", "x", 1.0)).ok());
  EXPECT_TRUE(c.Insert(MakeDoc("p", "x", 2.0)).IsAlreadyExists());
}

TEST(ContainerTest, DeleteRemoves) {
  Container c("test");
  ASSERT_TRUE(c.Upsert(MakeDoc("p", "x", 1.0)).ok());
  ASSERT_TRUE(c.Delete("p", "x").ok());
  EXPECT_TRUE(c.Get("p", "x").status().IsNotFound());
  EXPECT_TRUE(c.Delete("p", "x").IsNotFound());
}

TEST(ContainerTest, ReadPartitionOrderedAndIsolated) {
  Container c("test");
  c.Upsert(MakeDoc("p1", "b", 2.0)).Abort();
  c.Upsert(MakeDoc("p1", "a", 1.0)).Abort();
  c.Upsert(MakeDoc("p2", "z", 9.0)).Abort();
  auto docs = c.ReadPartition("p1");
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0].id, "a");
  EXPECT_EQ(docs[1].id, "b");
  EXPECT_TRUE(c.ReadPartition("p3").empty());
}

TEST(ContainerTest, QueryFilters) {
  Container c("test");
  for (int i = 0; i < 10; ++i) {
    c.Upsert(MakeDoc("p", "id" + std::to_string(i), i)).Abort();
  }
  auto big = c.Query([](const Document& d) {
    return d.body.GetNumber("value").ValueOr(0) >= 7.0;
  });
  EXPECT_EQ(big.size(), 3u);
}

TEST(DocStoreTest, GetContainerCreatesOnce) {
  DocStore store;
  Container* a = store.GetContainer("accuracy");
  Container* b = store.GetContainer("accuracy");
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.ContainerNames(),
            (std::vector<std::string>{"accuracy"}));
}

TEST(DocStoreTest, DropPartitionErasesAcrossContainersAndKeepsOthers) {
  // The memory plane's release primitive: a bounded-RSS fleet driver
  // drops each region once it has digested the region's results.
  DocStore store;
  store.GetContainer("predictions")->Upsert(MakeDoc("west", "a", 1.0)).Abort();
  store.GetContainer("predictions")->Upsert(MakeDoc("west", "b", 2.0)).Abort();
  store.GetContainer("predictions")->Upsert(MakeDoc("east", "a", 3.0)).Abort();
  store.GetContainer("accuracy")->Upsert(MakeDoc("west", "a", 4.0)).Abort();
  store.GetContainer("accuracy")->Upsert(MakeDoc("east", "b", 5.0)).Abort();

  EXPECT_EQ(store.DropPartition("west"), 3);
  EXPECT_TRUE(store.GetContainer("predictions")->ReadPartition("west").empty());
  EXPECT_TRUE(store.GetContainer("accuracy")->ReadPartition("west").empty());
  EXPECT_EQ(store.GetContainer("predictions")->ReadPartition("east").size(),
            1u);
  EXPECT_EQ(store.GetContainer("accuracy")->ReadPartition("east").size(), 1u);
  // A second drop of an already-released partition is a harmless no-op.
  EXPECT_EQ(store.DropPartition("west"), 0);
}

TEST(DocStoreTest, SnapshotRestoreRoundTrip) {
  DocStore store;
  store.GetContainer("c1")->Upsert(MakeDoc("p", "a", 1.5)).Abort();
  store.GetContainer("c2")->Upsert(MakeDoc("q", "b", 2.5)).Abort();
  Json snapshot = store.Snapshot();

  DocStore restored;
  ASSERT_TRUE(restored.Restore(snapshot).ok());
  auto doc = restored.GetContainer("c1")->Get("p", "a");
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(*doc->body.GetNumber("value"), 1.5);
  EXPECT_EQ(restored.ContainerNames().size(), 2u);
}

TEST(DocStoreTest, RestoreRejectsMalformed) {
  DocStore store;
  EXPECT_FALSE(store.Restore(Json(3.0)).ok());
  Json bad = Json::MakeObject();
  bad["c"] = "not an array";
  EXPECT_FALSE(store.Restore(bad).ok());
}

TEST(DocStoreTest, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "seagull_docstore.json")
          .string();
  DocStore store;
  store.GetContainer("runs")->Upsert(MakeDoc("region", "w1", 3.0)).Abort();
  ASSERT_TRUE(store.SaveToFile(path).ok());
  DocStore loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(loaded.GetContainer("runs")->Count(), 1);
  std::filesystem::remove(path);
  EXPECT_TRUE(loaded.LoadFromFile(path).IsNotFound());
}

TEST(DocStoreTest, ConcurrentUpserts) {
  DocStore store;
  Container* c = store.GetContainer("parallel");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([c, t] {
      for (int i = 0; i < 200; ++i) {
        c->Upsert(MakeDoc("p" + std::to_string(t), std::to_string(i), i))
            .Abort();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Count(), 8 * 200);
}

}  // namespace
}  // namespace seagull
