#include "core/audit.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace fragdb {
namespace {

struct AuditFixture : ::testing::Test {
  void Build(ControlOption control, bool metrics = false) {
    ClusterConfig config;
    config.control = control;
    config.observability.metrics = metrics;
    Build(config, [] {});
  }
  /// `before_start` runs once the schema is defined, before Start().
  void Build(const ClusterConfig& config,
             const std::function<void()>& before_start) {
    cluster = std::make_unique<Cluster>(config,
                                        Topology::FullMesh(3, Millis(5)));
    f0 = cluster->DefineFragment("F0");
    f1 = cluster->DefineFragment("F1");
    a = *cluster->DefineObject(f0, "a", 0);
    b = *cluster->DefineObject(f1, "b", 0);
    alice = cluster->DefineUserAgent("alice");
    bob = cluster->DefineUserAgent("bob");
    ASSERT_TRUE(cluster->AssignToken(f0, alice).ok());
    ASSERT_TRUE(cluster->AssignToken(f1, bob).ok());
    ASSERT_TRUE(cluster->SetAgentHome(alice, 0).ok());
    ASSERT_TRUE(cluster->SetAgentHome(bob, 1).ok());
    before_start();
    ASSERT_TRUE(cluster->Start().ok());
  }
  void Update(AgentId agent, FragmentId f, ObjectId obj, Value v,
              std::vector<ObjectId> reads = {}) {
    TxnSpec spec;
    spec.agent = agent;
    spec.write_fragment = f;
    spec.read_set = reads;
    spec.label = "w" + std::to_string(v);
    spec.body = [obj, v](const std::vector<Value>&)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{obj, v}};
    };
    cluster->Submit(spec, nullptr);
  }
  /// Alice and bob each read the other's object, then write their own,
  /// with `isolated` cut off from the other two nodes until the heal.
  void RunWriteSkew(NodeId isolated) {
    std::vector<NodeId> rest;
    for (NodeId n = 0; n < 3; ++n) {
      if (n != isolated) rest.push_back(n);
    }
    ASSERT_TRUE(cluster->Partition({{isolated}, rest}).ok());
    Update(alice, f0, a, 1, {b});
    Update(bob, f1, b, 2, {a});
    cluster->RunFor(Millis(50));
    cluster->HealAll();
    cluster->RunToQuiescence();
  }
  /// AuditRun's configured property is the report the cluster's own
  /// check gives, verdict, detail and witnesses alike.
  void ExpectAuditAgreesWithConfiguredCheck() {
    AuditReport report = AuditRun(*cluster);
    CheckReport direct = cluster->CheckConfiguredProperty();
    EXPECT_EQ(report.configured_property.ok, direct.ok);
    EXPECT_EQ(report.configured_property.detail, direct.detail);
    EXPECT_EQ(report.configured_property.witnesses, direct.witnesses);
  }
  std::unique_ptr<Cluster> cluster;
  FragmentId f0, f1;
  ObjectId a, b;
  AgentId alice, bob;
};

TEST_F(AuditFixture, CleanRunPassesEverything) {
  Build(ControlOption::kFragmentwise);
  Update(alice, f0, a, 1);
  Update(bob, f1, b, 2);
  cluster->RunToQuiescence();
  AuditReport report = AuditRun(*cluster);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.global_serializability.ok);
  EXPECT_TRUE(report.fragmentwise.ok);
  EXPECT_TRUE(report.replica_consistency.ok);
  EXPECT_TRUE(report.configured_property.ok);
  EXPECT_TRUE(report.fragment_failures.empty());
  EXPECT_EQ(report.committed_txns, 2);
  EXPECT_EQ(report.uncommitted_txns, 0);
  // Home apply + 2 replicas, per transaction.
  EXPECT_EQ(report.installs, 6);
  std::string text = report.ToString();
  EXPECT_NE(text.find("configured property"), std::string::npos);
  EXPECT_NE(text.find("OK"), std::string::npos);
  EXPECT_EQ(text.find("FAIL"), std::string::npos);
}

TEST_F(AuditFixture, NonSerializableRunStillFragmentwiseClean) {
  Build(ControlOption::kFragmentwise);
  // Cross-partition stale reads: alice and bob each read the other's
  // object while partitioned, then write — the classic write-skew shape.
  ASSERT_TRUE(cluster->Partition({{0, 2}, {1}}).ok());
  Update(alice, f0, a, 1, {b});
  Update(bob, f1, b, 2, {a});
  cluster->RunFor(Millis(50));
  cluster->HealAll();
  cluster->RunToQuiescence();
  AuditReport report = AuditRun(*cluster);
  EXPECT_FALSE(report.global_serializability.ok);
  EXPECT_TRUE(report.fragmentwise.ok);
  EXPECT_TRUE(report.configured_property.ok);  // §4.3 promises fragmentwise
  EXPECT_TRUE(report.ok());
  std::string text = report.ToString();
  EXPECT_NE(text.find("FAIL"), std::string::npos);  // the global line
}

TEST_F(AuditFixture, TrafficAndLagAgreeWithMetrics) {
  Build(ControlOption::kFragmentwise, /*metrics=*/true);
  Update(alice, f0, a, 1);
  cluster->RunFor(Millis(30));
  // A partitioned replica stretches the maximum replication lag; the
  // audit's history-derived value must match the live histogram exactly.
  ASSERT_TRUE(cluster->Partition({{0, 1}, {2}}).ok());
  Update(alice, f0, a, 2);
  cluster->RunFor(Millis(50));
  cluster->HealAll();
  cluster->RunToQuiescence();

  AuditReport report = AuditRun(*cluster);
  EXPECT_TRUE(report.ok());
  MetricsSnapshot snap = cluster->SnapshotMetrics();
  EXPECT_GT(report.messages_sent, 0u);
  EXPECT_EQ(report.messages_sent, snap.CounterTotal("messages_sent_total"));
  EXPECT_GT(report.max_replication_lag_us, 0);
  EXPECT_EQ(report.max_replication_lag_us,
            snap.HistogramMax("replication_lag_us"));
  std::string text = report.ToString();
  EXPECT_NE(text.find("messages sent"), std::string::npos);
  EXPECT_NE(text.find("max replication lag"), std::string::npos);
}

TEST_F(AuditFixture, CountsUncommitted) {
  Build(ControlOption::kFragmentwise);
  TxnSpec spec;
  spec.agent = alice;
  spec.write_fragment = f0;
  spec.body = [](const std::vector<Value>&) -> Result<std::vector<WriteOp>> {
    return Status::FailedPrecondition("declined");
  };
  cluster->Submit(spec, nullptr);
  cluster->RunToQuiescence();
  AuditReport report = AuditRun(*cluster);
  EXPECT_EQ(report.committed_txns, 0);
  EXPECT_EQ(report.uncommitted_txns, 1);
  EXPECT_TRUE(report.ok());
}

TEST_F(AuditFixture, ConfiguredPropertyUnderReadLocks) {
  Build(ControlOption::kReadLocks);
  RunWriteSkew(1);
  EXPECT_EQ(cluster->promise(), Cluster::Promise::kGlobalSerializability);
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
  ExpectAuditAgreesWithConfiguredCheck();
}

TEST_F(AuditFixture, ConfiguredPropertyUnderAcyclicReads) {
  ClusterConfig config;
  config.control = ControlOption::kAcyclicReads;
  Build(config, [&] { ASSERT_TRUE(cluster->DeclareRead(f0, f1).ok()); });
  // Bob's read of F0 is undeclared and refused; alice's runs.
  RunWriteSkew(1);
  EXPECT_EQ(cluster->promise(), Cluster::Promise::kGlobalSerializability);
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
  ExpectAuditAgreesWithConfiguredCheck();
}

TEST_F(AuditFixture, ConfiguredPropertyUnderFragmentwise) {
  Build(ControlOption::kFragmentwise);
  RunWriteSkew(1);
  EXPECT_EQ(cluster->promise(), Cluster::Promise::kFragmentwise);
  // The run is not globally serializable, so picking that report instead
  // would fail the comparison below.
  EXPECT_FALSE(AuditRun(*cluster).global_serializability.ok);
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
  ExpectAuditAgreesWithConfiguredCheck();
}

TEST_F(AuditFixture, ConfiguredPropertyUnderQuorum) {
  Build(ControlOption::kQuorum);
  RunWriteSkew(0);
  EXPECT_EQ(cluster->promise(),
            Cluster::Promise::kFragmentwiseAndQuorumFreshness);
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
  ExpectAuditAgreesWithConfiguredCheck();
}

TEST_F(AuditFixture, ConfiguredPropertyUnderOmitPrep) {
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  config.move_protocol = MoveProtocol::kOmitPrep;
  Build(config, [] {});
  RunWriteSkew(1);
  EXPECT_EQ(cluster->promise(), Cluster::Promise::kMutualConsistency);
  CheckReport direct = cluster->CheckConfiguredProperty();
  EXPECT_TRUE(direct.ok);
  EXPECT_NE(direct.detail.find("mutual consistency"), std::string::npos);
  ExpectAuditAgreesWithConfiguredCheck();
}

TEST_F(AuditFixture, ConfiguredPropertyWithOneQuorumOverride) {
  ClusterConfig config;
  config.control = ControlOption::kFragmentwise;
  Build(config, [&] {
    ASSERT_TRUE(cluster->SetFragmentControl(f1, ControlOption::kQuorum).ok());
  });
  RunWriteSkew(0);
  EXPECT_EQ(cluster->promise(),
            Cluster::Promise::kFragmentwiseAndQuorumFreshness);
  EXPECT_FALSE(AuditRun(*cluster).global_serializability.ok);
  EXPECT_TRUE(cluster->CheckConfiguredProperty().ok);
  ExpectAuditAgreesWithConfiguredCheck();
}

}  // namespace
}  // namespace fragdb
