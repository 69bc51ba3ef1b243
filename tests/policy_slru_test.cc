#include <gtest/gtest.h>

#include <memory>

#include "core/buffer_manager.h"
#include "core/policy_slru.h"
#include "test_util.h"

namespace sdb::core {
namespace {

using storage::DiskManager;
using storage::PageId;
using storage::PageType;
using test::StageAreaPage;
using test::Touch;

class SlruPolicyTest : public ::testing::Test {
 protected:
  DiskManager disk_;
};

TEST_F(SlruPolicyTest, NameEncodesConfiguration) {
  EXPECT_EQ(SlruPolicy(SpatialCriterion::kArea, 0.25).name(),
            "SLRU(A,25%)");
  EXPECT_EQ(SlruPolicy(SpatialCriterion::kMargin, 0.5).name(),
            "SLRU(M,50%)");
}

TEST_F(SlruPolicyTest, CandidateSizeDerivedFromFraction) {
  auto policy_owner =
      std::make_unique<SlruPolicy>(SpatialCriterion::kArea, 0.25);
  SlruPolicy* policy = policy_owner.get();
  BufferManager buffer(&disk_, 8, std::move(policy_owner));
  EXPECT_EQ(policy->candidate_size(), 2u);
}

TEST_F(SlruPolicyTest, CandidateSizeAtLeastOne) {
  auto policy_owner =
      std::make_unique<SlruPolicy>(SpatialCriterion::kArea, 0.01);
  SlruPolicy* policy = policy_owner.get();
  BufferManager buffer(&disk_, 4, std::move(policy_owner));
  EXPECT_EQ(policy->candidate_size(), 1u);
}

TEST_F(SlruPolicyTest, RecentSmallPageSurvivesOutsideCandidateSet) {
  // 4 frames, candidate fraction 0.5 -> candidate set = 2 LRU pages.
  const PageId tiny_recent = StageAreaPage(disk_, 0.01);
  const PageId old_a = StageAreaPage(disk_, 1.0);
  const PageId old_b = StageAreaPage(disk_, 2.0);
  const PageId mid = StageAreaPage(disk_, 3.0);
  const PageId incoming = StageAreaPage(disk_, 4.0);
  BufferManager buffer(&disk_, 4, std::make_unique<SlruPolicy>(
                                      SpatialCriterion::kArea, 0.5));
  Touch(buffer, old_a, 1);
  Touch(buffer, old_b, 2);
  Touch(buffer, mid, 3);
  Touch(buffer, tiny_recent, 4);
  // Candidates: old_a (t1), old_b (t2). Victim: smaller area -> old_a.
  Touch(buffer, incoming, 5);
  EXPECT_FALSE(buffer.Contains(old_a));
  EXPECT_TRUE(buffer.Contains(tiny_recent))
      << "LRU pre-selection must protect recently used pages";
  EXPECT_TRUE(buffer.Contains(old_b));
  EXPECT_TRUE(buffer.Contains(mid));
}

TEST_F(SlruPolicyTest, FullFractionBehavesLikePureSpatial) {
  const PageId tiny_recent = StageAreaPage(disk_, 0.01);
  const PageId big_old = StageAreaPage(disk_, 5.0);
  const PageId incoming = StageAreaPage(disk_, 1.0);
  BufferManager buffer(&disk_, 2, std::make_unique<SlruPolicy>(
                                      SpatialCriterion::kArea, 1.0));
  Touch(buffer, big_old, 1);
  Touch(buffer, tiny_recent, 2);
  Touch(buffer, incoming, 3);  // full candidate set: tiny page is victim
  EXPECT_FALSE(buffer.Contains(tiny_recent));
  EXPECT_TRUE(buffer.Contains(big_old));
}

}  // namespace
}  // namespace sdb::core
