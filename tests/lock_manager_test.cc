#include "cc/lock_manager.h"

#include <gtest/gtest.h>

#include <vector>

namespace fragdb {
namespace {

struct Grant {
  bool fired = false;
  Status status;
  LockManager::GrantCallback cb() {
    return [this](Status s) {
      fired = true;
      status = std::move(s);
    };
  }
};

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  Grant g1, g2;
  lm.Acquire(1, 100, LockMode::kShared, g1.cb());
  lm.Acquire(2, 100, LockMode::kShared, g2.cb());
  EXPECT_TRUE(g1.fired && g1.status.ok());
  EXPECT_TRUE(g2.fired && g2.status.ok());
  EXPECT_EQ(lm.held_count(), 2u);
}

TEST(LockManagerTest, ExclusiveBlocksShared) {
  LockManager lm;
  Grant g1, g2;
  lm.Acquire(1, 100, LockMode::kExclusive, g1.cb());
  lm.Acquire(2, 100, LockMode::kShared, g2.cb());
  EXPECT_TRUE(g1.fired);
  EXPECT_FALSE(g2.fired);
  EXPECT_EQ(lm.waiting_count(), 1u);
  lm.ReleaseAll(1);
  EXPECT_TRUE(g2.fired && g2.status.ok());
}

TEST(LockManagerTest, SharedBlocksExclusive) {
  LockManager lm;
  Grant g1, g2;
  lm.Acquire(1, 100, LockMode::kShared, g1.cb());
  lm.Acquire(2, 100, LockMode::kExclusive, g2.cb());
  EXPECT_FALSE(g2.fired);
  lm.ReleaseAll(1);
  EXPECT_TRUE(g2.fired && g2.status.ok());
}

TEST(LockManagerTest, ReacquireHeldLockIsImmediate) {
  LockManager lm;
  Grant g1, g2, g3;
  lm.Acquire(1, 100, LockMode::kExclusive, g1.cb());
  lm.Acquire(1, 100, LockMode::kExclusive, g2.cb());
  lm.Acquire(1, 100, LockMode::kShared, g3.cb());  // weaker is fine
  EXPECT_TRUE(g2.fired && g2.status.ok());
  EXPECT_TRUE(g3.fired && g3.status.ok());
}

TEST(LockManagerTest, UpgradeSoleSharedHolder) {
  LockManager lm;
  Grant g1, g2;
  lm.Acquire(1, 100, LockMode::kShared, g1.cb());
  lm.Acquire(1, 100, LockMode::kExclusive, g2.cb());
  EXPECT_TRUE(g2.fired && g2.status.ok());
  EXPECT_TRUE(lm.Holds(1, 100, LockMode::kExclusive));
}

TEST(LockManagerTest, UpgradeWaitsForOtherSharedHolders) {
  LockManager lm;
  Grant g1, g2, g3;
  lm.Acquire(1, 100, LockMode::kShared, g1.cb());
  lm.Acquire(2, 100, LockMode::kShared, g2.cb());
  lm.Acquire(1, 100, LockMode::kExclusive, g3.cb());
  EXPECT_FALSE(g3.fired);
  lm.ReleaseAll(2);
  EXPECT_TRUE(g3.fired && g3.status.ok());
  EXPECT_TRUE(lm.Holds(1, 100, LockMode::kExclusive));
}

TEST(LockManagerTest, FifoOrderAmongWaiters) {
  LockManager lm;
  Grant g1, g2, g3;
  std::vector<int> order;
  lm.Acquire(1, 100, LockMode::kExclusive, g1.cb());
  lm.Acquire(2, 100, LockMode::kExclusive,
             [&](Status) { order.push_back(2); });
  lm.Acquire(3, 100, LockMode::kExclusive,
             [&](Status) { order.push_back(3); });
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  lm.ReleaseAll(3);
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(LockManagerTest, SharedDoesNotJumpExclusiveWaiter) {
  LockManager lm;
  Grant g1, g2, g3;
  lm.Acquire(1, 100, LockMode::kShared, g1.cb());
  lm.Acquire(2, 100, LockMode::kExclusive, g2.cb());  // waits
  lm.Acquire(3, 100, LockMode::kShared, g3.cb());     // must queue behind
  EXPECT_FALSE(g3.fired);
  lm.ReleaseAll(1);
  EXPECT_TRUE(g2.fired);
  EXPECT_FALSE(g3.fired);
  lm.ReleaseAll(2);
  EXPECT_TRUE(g3.fired);
}

TEST(LockManagerTest, SharedJoinsWhenNoExclusiveWaiter) {
  LockManager lm;
  Grant g1, g2;
  lm.Acquire(1, 100, LockMode::kShared, g1.cb());
  lm.Acquire(2, 100, LockMode::kShared, g2.cb());
  EXPECT_TRUE(g2.fired && g2.status.ok());
}

TEST(LockManagerTest, ReleaseAllCancelsWaitsWithAborted) {
  LockManager lm;
  Grant g1, g2;
  lm.Acquire(1, 100, LockMode::kExclusive, g1.cb());
  lm.Acquire(2, 100, LockMode::kExclusive, g2.cb());
  lm.ReleaseAll(2);  // cancels txn 2's wait
  EXPECT_TRUE(g2.fired);
  EXPECT_TRUE(g2.status.IsAborted());
  EXPECT_EQ(lm.waiting_count(), 0u);
}

TEST(LockManagerTest, CancelWaitFiresTimedOut) {
  LockManager lm;
  Grant g1, g2;
  lm.Acquire(1, 100, LockMode::kExclusive, g1.cb());
  lm.Acquire(2, 100, LockMode::kShared, g2.cb());
  EXPECT_TRUE(lm.CancelWait(2, 100));
  EXPECT_TRUE(g2.fired);
  EXPECT_TRUE(g2.status.IsTimedOut());
  EXPECT_FALSE(lm.CancelWait(2, 100));
}

TEST(LockManagerTest, ReleaseSingleResource) {
  LockManager lm;
  Grant g1, g2;
  lm.Acquire(1, 100, LockMode::kExclusive, g1.cb());
  lm.Acquire(1, 200, LockMode::kExclusive, g2.cb());
  lm.Release(1, 100);
  EXPECT_FALSE(lm.Holds(1, 100, LockMode::kShared));
  EXPECT_TRUE(lm.Holds(1, 200, LockMode::kExclusive));
}

TEST(LockManagerTest, FifoGrantsUpgradeAndCountsAcrossDrainAndReuse) {
  LockManager lm;
  std::vector<int> order;
  auto record = [&order](int who) {
    return [&order, who](Status s) {
      ASSERT_TRUE(s.ok());
      order.push_back(who);
    };
  };
  // Two shared holders; txn 1 asks to upgrade, then txn 3 queues for X
  // and txn 4 for S behind it.
  lm.Acquire(1, 100, LockMode::kShared, record(1));
  lm.Acquire(2, 100, LockMode::kShared, record(2));
  lm.Acquire(1, 100, LockMode::kExclusive, record(-1));  // upgrade waits
  lm.Acquire(3, 100, LockMode::kExclusive, record(3));
  lm.Acquire(4, 100, LockMode::kShared, record(4));
  // A second resource keeps the table non-trivial.
  lm.Acquire(5, 200, LockMode::kExclusive, record(5));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5}));
  EXPECT_EQ(lm.held_count(), 3u);
  EXPECT_EQ(lm.waiting_count(), 3u);

  lm.Release(2, 100);  // txn 1 is now the sole holder: the upgrade fires
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5, -1}));
  EXPECT_TRUE(lm.Holds(1, 100, LockMode::kExclusive));
  EXPECT_EQ(lm.held_count(), 2u);
  EXPECT_EQ(lm.waiting_count(), 2u);

  lm.Release(1, 100);  // FIFO: the X waiter before the S waiter
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5, -1, 3}));
  lm.ReleaseAll(3);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5, -1, 3, 4}));
  EXPECT_EQ(lm.held_count(), 2u);  // txn 4 on 100, txn 5 on 200
  EXPECT_EQ(lm.waiting_count(), 0u);

  // Drain resource 100 to empty, then acquire it again: the reused entry
  // starts clean.
  lm.ReleaseAll(4);
  EXPECT_FALSE(lm.Holds(4, 100, LockMode::kShared));
  EXPECT_EQ(lm.held_count(), 1u);
  EXPECT_EQ(lm.waiting_count(), 0u);
  Grant again, queued;
  lm.Acquire(6, 100, LockMode::kExclusive, again.cb());
  lm.Acquire(7, 100, LockMode::kShared, queued.cb());
  EXPECT_TRUE(again.fired && again.status.ok());
  EXPECT_FALSE(queued.fired);
  EXPECT_EQ(lm.held_count(), 2u);
  EXPECT_EQ(lm.waiting_count(), 1u);
  EXPECT_FALSE(lm.Holds(1, 100, LockMode::kShared));
  lm.Release(6, 100);
  EXPECT_TRUE(queued.fired && queued.status.ok());
  lm.Release(7, 100);
  lm.Release(5, 200);
  EXPECT_EQ(lm.held_count(), 0u);
  EXPECT_EQ(lm.waiting_count(), 0u);
}

TEST(LockManagerTest, DeadlockDetectedAndYoungestAborted) {
  LockManager lm;
  Grant g1, g2, w1, w2;
  lm.Acquire(1, 100, LockMode::kExclusive, g1.cb());
  lm.Acquire(2, 200, LockMode::kExclusive, g2.cb());
  lm.Acquire(1, 200, LockMode::kExclusive, w1.cb());  // 1 waits on 2
  lm.Acquire(2, 100, LockMode::kExclusive, w2.cb());  // 2 waits on 1: cycle
  EXPECT_FALSE(w1.fired);
  EXPECT_FALSE(w2.fired);
  TxnId victim = lm.DetectAndResolveDeadlock();
  EXPECT_EQ(victim, 2);  // youngest = largest id
  EXPECT_TRUE(w2.fired);
  EXPECT_TRUE(w2.status.IsAborted());
  // Txn 1 now gets resource 200 (freed by the victim).
  EXPECT_TRUE(w1.fired);
  EXPECT_TRUE(w1.status.ok());
}

TEST(LockManagerTest, NoFalseDeadlock) {
  LockManager lm;
  Grant g1, g2;
  lm.Acquire(1, 100, LockMode::kExclusive, g1.cb());
  lm.Acquire(2, 100, LockMode::kExclusive, g2.cb());
  EXPECT_EQ(lm.DetectAndResolveDeadlock(), kInvalidTxn);
  EXPECT_FALSE(g2.fired);  // still just waiting
}

TEST(LockManagerTest, SharedHoldersDoNotDeadlockEachOther) {
  LockManager lm;
  Grant a, b, c, d;
  lm.Acquire(1, 100, LockMode::kShared, a.cb());
  lm.Acquire(2, 100, LockMode::kShared, b.cb());
  lm.Acquire(1, 200, LockMode::kShared, c.cb());
  lm.Acquire(2, 200, LockMode::kShared, d.cb());
  EXPECT_EQ(lm.DetectAndResolveDeadlock(), kInvalidTxn);
}

TEST(LockManagerTest, HoldsChecksMode) {
  LockManager lm;
  Grant g;
  lm.Acquire(1, 100, LockMode::kShared, g.cb());
  EXPECT_TRUE(lm.Holds(1, 100, LockMode::kShared));
  EXPECT_FALSE(lm.Holds(1, 100, LockMode::kExclusive));
  EXPECT_FALSE(lm.Holds(2, 100, LockMode::kShared));
}

}  // namespace
}  // namespace fragdb
