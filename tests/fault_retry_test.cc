/// \file fault_retry_test.cc
/// \brief Unit coverage of the resilience substrate: the deterministic
/// `FaultRegistry`, the `RetryPolicy` classification/backoff/budget
/// behavior, and `RunWithRetry` over faulted store reads and writes.

#include <gtest/gtest.h>

#include <vector>

#include "common/fault.h"
#include "common/retry.h"
#include "store/doc_store.h"
#include "store/lake_store.h"

namespace seagull {
namespace {

RetryPolicy FastRetry(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.base_backoff_millis = 0.0;  // no sleeping in unit tests
  return policy;
}

TEST(FaultRegistryTest, DisabledRegistryInjectsNothing) {
  FaultRegistry& registry = FaultRegistry::Global();
  ASSERT_FALSE(registry.enabled());
  EXPECT_TRUE(registry.Inject("lake.get", "some/key").ok());
  EXPECT_EQ(registry.InjectedCount("lake.get"), 0);
  EXPECT_EQ(registry.CallCount("lake.get"), 0);
}

TEST(FaultRegistryTest, SameSeedSameDecisions) {
  auto decisions = [](uint64_t seed) {
    ScopedFaultInjection fault({seed, 0.3});
    std::vector<bool> out;
    for (int key = 0; key < 64; ++key) {
      for (int call = 0; call < 4; ++call) {
        out.push_back(FaultRegistry::Global()
                          .Inject("p", "key-" + std::to_string(key))
                          .ok());
      }
    }
    return out;
  };
  EXPECT_EQ(decisions(7), decisions(7));
  EXPECT_NE(decisions(7), decisions(8));
}

TEST(FaultRegistryTest, RateZeroNeverFiresRateOneAlwaysFires) {
  ScopedFaultInjection fault({1, 0.0});
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(FaultRegistry::Global().Inject("p", "k").ok());
  }
  fault.registry().SetPointRate("q", 1.0);
  for (int i = 0; i < 50; ++i) {
    Status st = FaultRegistry::Global().Inject("q", "k");
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
  }
  EXPECT_EQ(fault.registry().InjectedCount("p"), 0);
  EXPECT_EQ(fault.registry().InjectedCount("q"), 50);
  EXPECT_EQ(fault.registry().CallCount("p"), 50);
  EXPECT_EQ(fault.registry().TotalInjected(), 50);
}

TEST(FaultRegistryTest, OutageCountsDownThenClears) {
  ScopedFaultInjection fault({1, 0.0});
  fault.registry().AddOutage("lake.get", "region-b", 2);
  // Keys not matching the substring are unaffected.
  EXPECT_TRUE(FaultRegistry::Global().Inject("lake.get", "region-a/w1").ok());
  EXPECT_FALSE(FaultRegistry::Global().Inject("lake.get", "region-b/w1").ok());
  EXPECT_FALSE(FaultRegistry::Global().Inject("lake.get", "region-b/w1").ok());
  EXPECT_TRUE(FaultRegistry::Global().Inject("lake.get", "region-b/w1").ok());
  EXPECT_EQ(fault.registry().InjectedCount("lake.get"), 2);
}

TEST(FaultRegistryTest, UnlimitedOutageNeverClears) {
  ScopedFaultInjection fault({1, 0.0});
  fault.registry().AddOutage("doc.upsert", "", -1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(
        FaultRegistry::Global().Inject("doc.upsert", std::to_string(i)).ok());
  }
}

TEST(FaultRegistryTest, ScopeDisablesOnExit) {
  {
    ScopedFaultInjection fault({1, 1.0});
    EXPECT_FALSE(FaultRegistry::Global().Inject("p", "k").ok());
  }
  EXPECT_FALSE(FaultRegistry::Global().enabled());
  EXPECT_TRUE(FaultRegistry::Global().Inject("p", "k").ok());
}

TEST(RetryPolicyTest, ClassifiesRetryableStatuses) {
  EXPECT_TRUE(IsRetryableStatus(Status::IOError("flaky disk")));
  EXPECT_TRUE(IsRetryableStatus(Status::ResourceExhausted("throttled")));
  EXPECT_FALSE(IsRetryableStatus(Status::OK()));
  EXPECT_FALSE(IsRetryableStatus(Status::NotFound("no blob")));
  EXPECT_FALSE(IsRetryableStatus(Status::Invalid("bad key")));
  EXPECT_FALSE(IsRetryableStatus(Status::DataLoss("empty")));
  EXPECT_FALSE(IsRetryableStatus(Status::Internal("bug")));
  EXPECT_FALSE(IsRetryableStatus(Status::FailedPrecondition("no store")));
}

TEST(RetryPolicyTest, BackoffGrowsAndCapsDeterministically) {
  RetryPolicy policy;
  policy.base_backoff_millis = 2.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_millis = 9.0;
  policy.jitter_fraction = 0.0;
  EXPECT_DOUBLE_EQ(BackoffMillis(policy, "op", 1), 2.0);
  EXPECT_DOUBLE_EQ(BackoffMillis(policy, "op", 2), 4.0);
  EXPECT_DOUBLE_EQ(BackoffMillis(policy, "op", 3), 8.0);
  EXPECT_DOUBLE_EQ(BackoffMillis(policy, "op", 4), 9.0);  // capped

  policy.jitter_fraction = 0.25;
  const double jittered = BackoffMillis(policy, "op", 2);
  EXPECT_GE(jittered, 4.0 * 0.75);
  EXPECT_LT(jittered, 4.0 * 1.25);
  // Same inputs, same jitter — the schedule is reproducible.
  EXPECT_DOUBLE_EQ(jittered, BackoffMillis(policy, "op", 2));
  // Different op keys decorrelate their schedules.
  EXPECT_NE(jittered, BackoffMillis(policy, "other-op", 2));
}

TEST(RetryPolicyTest, SucceedsAfterTransientFailures) {
  int calls = 0;
  std::vector<int> retry_attempts;
  RetryOutcome outcome = RunWithRetry(
      FastRetry(5), "op",
      [&] {
        ++calls;
        return calls < 3 ? Status::IOError("transient") : Status::OK();
      },
      [&](int attempt, const Status& status) {
        retry_attempts.push_back(attempt);
        EXPECT_TRUE(status.IsIOError());
      });
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(outcome.retries(), 2);
  EXPECT_FALSE(outcome.exhausted);
  EXPECT_EQ(retry_attempts, (std::vector<int>{1, 2}));
}

TEST(RetryPolicyTest, NonRetryableFailsFast) {
  int calls = 0;
  RetryOutcome outcome = RunWithRetry(FastRetry(5), "op", [&] {
    ++calls;
    return Status::NotFound("gone");
  });
  EXPECT_TRUE(outcome.status.IsNotFound());
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(outcome.exhausted);
}

TEST(RetryPolicyTest, ExhaustsAttemptBudget) {
  int calls = 0;
  RetryOutcome outcome = RunWithRetry(FastRetry(3), "op", [&] {
    ++calls;
    return Status::IOError("always down");
  });
  EXPECT_TRUE(outcome.status.IsIOError());
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(calls, 3);
  EXPECT_TRUE(outcome.exhausted);
}

TEST(RetryPolicyTest, MaxAttemptsBelowOneStillRunsOnce) {
  int calls = 0;
  RetryPolicy policy = FastRetry(0);
  RetryOutcome outcome =
      RunWithRetry(policy, "op", [&] {
        ++calls;
        return Status::OK();
      });
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(calls, 1);
}

/// `GetBlob` under `RunWithRetry`, the way the CLI reads telemetry.
Result<BlobRef> RetriedGetBlob(const LakeStore& lake, const RetryPolicy& policy,
                               const std::string& key, int64_t* retries) {
  BlobRef blob;
  RetryOutcome outcome = RunWithRetry(policy, "lake.get/" + key, [&] {
    SEAGULL_ASSIGN_OR_RETURN(blob, lake.GetBlob(key));
    return Status::OK();
  });
  *retries = outcome.retries();
  if (!outcome.status.ok()) return outcome.status;
  return blob;
}

TEST(RetriedLakeReadTest, GetBlobRecoversFromTransientOutage) {
  auto lake = LakeStore::OpenTemporary("retried_read");
  ASSERT_TRUE(lake.ok());
  ASSERT_TRUE(lake->Put("a/blob.txt", "payload").ok());

  ScopedFaultInjection fault({1, 0.0});
  fault.registry().AddOutage("lake.get", "a/blob", 2);
  int64_t retries = 0;
  auto value = RetriedGetBlob(*lake, FastRetry(4), "a/blob.txt", &retries);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(value->view(), "payload");
  EXPECT_EQ(retries, 2);
}

TEST(RetriedLakeReadTest, ExhaustedOutageSurfacesFinalError) {
  auto lake = LakeStore::OpenTemporary("retried_read");
  ASSERT_TRUE(lake.ok());
  ASSERT_TRUE(lake->Put("a/blob.txt", "payload").ok());

  ScopedFaultInjection fault({1, 0.0});
  fault.registry().AddOutage("lake.get", "", -1);
  int64_t retries = 0;
  auto value = RetriedGetBlob(*lake, FastRetry(3), "a/blob.txt", &retries);
  EXPECT_TRUE(value.status().IsIOError());
  EXPECT_EQ(retries, 2);  // 3 attempts = 2 retries
}

TEST(RetriedDocOpsTest, UpsertAndGetRecover) {
  DocStore docs;
  ScopedFaultInjection fault({1, 0.0});
  fault.registry().AddOutage("doc.upsert", "c/p/", 1);
  fault.registry().AddOutage("doc.get", "c/p/", 1);

  Container* c = docs.GetContainer("c");
  Document doc;
  doc.partition_key = "p";
  doc.id = "d1";
  doc.body = Json::MakeObject();
  doc.body["v"] = 1.0;
  int64_t retries = 0;
  // `Container::Upsert` consumes its document: copy it per attempt.
  RetryOutcome upsert =
      RunWithRetry(FastRetry(3), "upsert", [&] { return c->Upsert(doc); });
  ASSERT_TRUE(upsert.status.ok()) << upsert.status.ToString();
  retries += upsert.retries();
  RetryOutcome get = RunWithRetry(FastRetry(3), "get", [&] {
    return c->Get("p", "d1").status();
  });
  ASSERT_TRUE(get.status.ok()) << get.status.ToString();
  retries += get.retries();
  EXPECT_EQ(retries, 2);  // one per faulted operation
}

}  // namespace
}  // namespace seagull
