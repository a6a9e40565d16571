#include "workload/banking.h"

#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"

namespace fragdb {

BankingWorkload::BankingWorkload(const Options& options) : options_(options) {
  if (!options_.customer_home) {
    options_.customer_home = [this](int account) -> NodeId {
      if (options_.nodes == 1) return 0;
      // Spread customers over the nodes other than the central office.
      NodeId n = account % (options_.nodes - 1);
      if (n >= options_.central_node) ++n;
      return n;
    };
  }
  ClusterConfig config;
  config.control = options_.control;
  config.move_protocol = options_.move_protocol;
  config.observability = options_.observability;
  cluster_ = std::make_unique<Cluster>(
      config, Topology::FullMesh(options_.nodes, options_.link_latency));
}

Status BankingWorkload::Start() {
  Cluster& c = *cluster_;
  central_ = c.DefineUserAgent("central-office");
  FRAGDB_RETURN_IF_ERROR(c.SetAgentHome(central_, options_.central_node));

  balances_ = c.DefineFragment("BALANCES");
  FRAGDB_RETURN_IF_ERROR(c.AssignToken(balances_, central_));

  for (int i = 0; i < options_.accounts; ++i) {
    std::string acct = std::to_string(i);
    Result<ObjectId> bal =
        c.DefineObject(balances_, "balance/" + acct, options_.initial_balance);
    if (!bal.ok()) return bal.status();
    balance_obj_.push_back(*bal);

    customer_.push_back(c.DefineUserAgent("customer/" + acct));
    FRAGDB_RETURN_IF_ERROR(
        c.SetAgentHome(customer_[i], options_.customer_home(i)));

    FragmentId act = c.DefineFragment("ACTIVITY/" + acct);
    activity_.push_back(act);
    FRAGDB_RETURN_IF_ERROR(c.AssignToken(act, customer_[i]));
    Result<ObjectId> count = c.DefineObject(act, "act_count/" + acct, 0);
    if (!count.ok()) return count.status();
    act_count_.push_back(*count);
    act_amount_.emplace_back();
    for (int k = 0; k < options_.max_ops_per_account; ++k) {
      Result<ObjectId> slot =
          c.DefineObject(act, "act/" + acct + "/" + std::to_string(k), 0);
      if (!slot.ok()) return slot.status();
      act_amount_[i].push_back(*slot);
    }

    FragmentId rec = c.DefineFragment("RECORDED/" + acct);
    recorded_.push_back(rec);
    FRAGDB_RETURN_IF_ERROR(c.AssignToken(rec, central_));
    Result<ObjectId> recc = c.DefineObject(rec, "recorded/" + acct, 0);
    if (!recc.ok()) return recc.status();
    recorded_count_.push_back(*recc);

    // Read-access edges (documentation + §4.1/§4.2 tooling): customers
    // read BALANCES and RECORDED(i) to compute the local view; the central
    // office reads every ACTIVITY(i) and RECORDED(i). Note the pair
    // BALANCES <-> ACTIVITY(i) makes this design elementarily *cyclic*,
    // which is exactly why the paper places it under §4.3 semantics.
    FRAGDB_RETURN_IF_ERROR(c.DeclareRead(act, balances_));
    FRAGDB_RETURN_IF_ERROR(c.DeclareRead(act, rec));
    FRAGDB_RETURN_IF_ERROR(c.DeclareRead(balances_, act));
    FRAGDB_RETURN_IF_ERROR(c.DeclareRead(balances_, rec));

    // §4.4.3 corrective action for ACTIVITY(i): when an omit-prep move
    // drops a missing withdrawal/deposit record (its slot was overwritten
    // by the new epoch), re-append the lost amounts as fresh activity
    // entries so the central office eventually folds them in (and fines
    // any overdraft they cause).
    ObjectId count_obj = act_count_[i];
    std::vector<ObjectId> slots = act_amount_[i];
    int max_ops = options_.max_ops_per_account;
    c.SetCorrectiveAction(
        act, [count_obj, slots, max_ops](
                 const QuasiTxn& missing, const std::vector<WriteOp>& applied,
                 const ObjectStore& store) -> std::vector<WriteOp> {
          std::vector<WriteOp> out;
          Value count = store.Read(count_obj);
          for (const WriteOp& w : missing.writes) {
            if (w.object == count_obj) continue;  // bookkeeping, not money
            bool was_applied = false;
            for (const WriteOp& a : applied) {
              if (a.object == w.object) was_applied = true;
            }
            if (was_applied) continue;
            if (count >= max_ops) break;
            out.push_back({slots[count], w.value});
            ++count;
          }
          if (!out.empty()) out.push_back({count_obj, count});
          return out;
        });
  }
  fines_per_account_.assign(options_.accounts, 0);
  return c.Start();
}

void BankingWorkload::Deposit(int account, Value amount, Callback done) {
  FRAGDB_CHECK(amount > 0);
  AppendActivity(account, amount, /*is_withdrawal=*/false, std::move(done));
}

void BankingWorkload::Withdraw(int account, Value amount, Callback done) {
  FRAGDB_CHECK(amount > 0);
  AppendActivity(account, -amount, /*is_withdrawal=*/true, std::move(done));
}

void BankingWorkload::AppendActivity(int account, Value amount,
                                     bool is_withdrawal, Callback done) {
  TxnSpec spec;
  spec.agent = customer_[account];
  spec.write_fragment = activity_[account];
  spec.label = is_withdrawal ? "withdraw" : "deposit";
  // Read-set layout: [act_count, balance, recorded_count, slot 0..K-1].
  spec.read_set = {act_count_[account], balance_obj_[account],
                   recorded_count_[account]};
  for (ObjectId slot : act_amount_[account]) spec.read_set.push_back(slot);
  const int max_ops = options_.max_ops_per_account;
  ObjectId count_obj = act_count_[account];
  std::vector<ObjectId> slots = act_amount_[account];
  spec.body = [amount, is_withdrawal, max_ops, count_obj,
               slots](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    Value count = reads[0];
    if (count >= max_ops) {
      return Status::FailedPrecondition("activity log full");
    }
    if (is_withdrawal) {
      // Paper §2: local view = balance + unrecorded deposits − unrecorded
      // withdrawals (amounts are signed, so it is a plain sum).
      Value balance = reads[1];
      Value recorded = reads[2];
      Value local_view = balance;
      for (Value k = recorded; k < count; ++k) {
        local_view += reads[3 + k];
      }
      if (local_view + amount < 0) {  // amount is negative
        return Status::FailedPrecondition("insufficient local-view balance");
      }
    }
    return std::vector<WriteOp>{{slots[count], amount},
                                {count_obj, count + 1}};
  };
  SimTime submitted_at = cluster_->Now();
  cluster_->Submit(spec, [this, submitted_at,
                          done = std::move(done)](const TxnResult& r) {
    metrics_.Record(r, submitted_at);
    if (done) done(r);
  });
}

Status BankingWorkload::MoveCustomer(int account, NodeId to_node,
                                     std::function<void(Status)> done) {
  return cluster_->MoveAgent(customer_[account], to_node, std::move(done));
}

void BankingWorkload::ScanAccount(int account, std::function<void()> done) {
  struct Outcome {
    Value new_recorded = 0;
    bool fined = false;
    bool applied = false;
  };
  auto outcome = std::make_shared<Outcome>();

  TxnSpec fold;
  fold.agent = central_;
  fold.write_fragment = balances_;
  fold.label = "central-fold/" + std::to_string(account);
  fold.read_set = {balance_obj_[account], recorded_count_[account],
                   act_count_[account]};
  for (ObjectId slot : act_amount_[account]) fold.read_set.push_back(slot);
  ObjectId bal_obj = balance_obj_[account];
  Value fine = options_.overdraft_fine;
  fold.body = [bal_obj, fine, outcome](const std::vector<Value>& reads)
      -> Result<std::vector<WriteOp>> {
    Value balance = reads[0];
    Value recorded = reads[1];
    Value count = reads[2];
    if (recorded >= count) {
      return Status::FailedPrecondition("no unrecorded activity");
    }
    Value delta = 0;
    for (Value k = recorded; k < count; ++k) delta += reads[3 + k];
    Value new_balance = balance + delta;
    bool fined = new_balance < 0;
    if (fined) new_balance -= fine;  // the paper's overdraft penalty
    outcome->new_recorded = count;
    outcome->fined = fined;
    outcome->applied = true;
    return std::vector<WriteOp>{{bal_obj, new_balance}};
  };

  cluster_->Submit(fold, [this, account, outcome,
                          done = std::move(done)](const TxnResult& r) {
    if (!r.status.ok() || !outcome->applied) {
      if (done) done();
      return;
    }
    if (outcome->fined) {
      ++fines_assessed_;
      ++fines_per_account_[account];
    }
    // Second single-fragment transaction: advance RECORDED(i). (The paper
    // describes one transaction touching both fragments; per its §3.2
    // footnote we split it into a per-fragment pair run by the same agent.)
    TxnSpec advance;
    advance.agent = central_;
    advance.write_fragment = recorded_[account];
    advance.label = "central-record/" + std::to_string(account);
    ObjectId rec_obj = recorded_count_[account];
    Value new_recorded = outcome->new_recorded;
    advance.body = [rec_obj, new_recorded](const std::vector<Value>&)
        -> Result<std::vector<WriteOp>> {
      return std::vector<WriteOp>{{rec_obj, new_recorded}};
    };
    cluster_->Submit(advance, [done](const TxnResult&) {
      if (done) done();
    });
  });
}

void BankingWorkload::RunCentralScan(std::function<void()> done) {
  if (scan_in_progress_) {
    if (done) done();
    return;
  }
  scan_in_progress_ = true;
  auto next = std::make_shared<std::function<void(int)>>();
  std::weak_ptr<std::function<void(int)>> weak = next;
  *next = [this, weak, done = std::move(done)](int account) {
    if (account >= options_.accounts) {
      scan_in_progress_ = false;
      if (done) done();
      return;
    }
    auto self = weak.lock();
    ScanAccount(account, [self, account] { (*self)(account + 1); });
  };
  (*next)(0);
}

void BankingWorkload::StartPeriodicScan(SimTime period, SimTime until) {
  if (cluster_->Now() > until) return;
  // The scan's transactions and their completions all run at the central
  // office's home, so the timer is an event on that node.
  NodeId central_home = *cluster_->catalog().HomeOf(central_);
  cluster_->engine()->AfterNode(central_home, period, [this, period, until] {
    RunCentralScan(nullptr);
    StartPeriodicScan(period, until);
  });
}

Value BankingWorkload::LocalBalanceView(NodeId node, int account) const {
  Value balance = cluster_->ReadAt(node, balance_obj_[account]);
  Value recorded = cluster_->ReadAt(node, recorded_count_[account]);
  Value count = cluster_->ReadAt(node, act_count_[account]);
  Value view = balance;
  for (Value k = recorded; k < count; ++k) {
    view += cluster_->ReadAt(node, act_amount_[account][k]);
  }
  return view;
}

Value BankingWorkload::CentralBalance(int account) const {
  return cluster_->ReadAt(options_.central_node, balance_obj_[account]);
}

Status BankingWorkload::VerifyAccounting() const {
  for (int i = 0; i < options_.accounts; ++i) {
    NodeId central = options_.central_node;
    Value recorded = cluster_->ReadAt(central, recorded_count_[i]);
    Value expected = options_.initial_balance;
    for (Value k = 0; k < recorded; ++k) {
      expected += cluster_->ReadAt(central, act_amount_[i][k]);
    }
    expected -= options_.overdraft_fine * fines_per_account_[i];
    Value actual = cluster_->ReadAt(central, balance_obj_[i]);
    if (actual != expected) {
      return Status::Internal(
          "account " + std::to_string(i) + ": central balance " +
          std::to_string(actual) + " != replayed " + std::to_string(expected));
    }
    Value count = cluster_->ReadAt(central, act_count_[i]);
    if (recorded > count) {
      return Status::Internal("recorded count ran ahead of activity");
    }
  }
  return Status::Ok();
}

}  // namespace fragdb
