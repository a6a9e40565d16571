#ifndef FRAGDB_STORAGE_OBJECT_STORE_H_
#define FRAGDB_STORAGE_OBJECT_STORE_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/catalog.h"

namespace fragdb {

/// Metadata of the version currently installed for an object in one
/// replica. `frag_seq` is the per-fragment sequence number of the writing
/// transaction; it orders versions of a fragment totally and is what the
/// §4.4.3 protocol consults to decide whether a late update was
/// "overwritten by a more recent transaction".
struct VersionInfo {
  Value value = 0;
  TxnId writer = kInvalidTxn;   // kInvalidTxn = initial value
  SeqNum frag_seq = 0;          // 0 = initial value
  SimTime installed_at = 0;

  friend bool operator==(const VersionInfo&, const VersionInfo&) = default;
};

/// One node's full replica of the database (the paper assumes complete
/// replication; partial replication is a documented extension point).
/// Objects are preallocated from the catalog, so reads and writes are O(1)
/// vector indexing.
class ObjectStore {
 public:
  /// Initializes every object to its catalog initial value. The catalog
  /// must outlive the store and must not gain objects afterwards.
  explicit ObjectStore(const Catalog* catalog);

  /// Current value of an object in this replica.
  Value Read(ObjectId o) const;

  /// Full version metadata of an object in this replica.
  const VersionInfo& Info(ObjectId o) const;

  /// Installs a new version. The caller (the node's scheduler) is
  /// responsible for ordering; the store only records.
  void Write(ObjectId o, Value value, TxnId writer, SeqNum frag_seq,
             SimTime now);

  /// True if every object has the same value in both replicas (mutual
  /// consistency check; version metadata is not compared because two
  /// replicas that converged through §4.4.3 repackaging may carry different
  /// writer ids for equal contents).
  bool SameContents(const ObjectStore& other) const;

  /// Objects whose values differ from `other` (for diagnostics).
  std::vector<ObjectId> DiffContents(const ObjectStore& other) const;

  /// Copy of one fragment's objects, as carried by a §4.4.2A
  /// move-with-data agent.
  struct FragmentSnapshot {
    FragmentId fragment = kInvalidFragment;
    std::vector<ObjectId> objects;
    std::vector<VersionInfo> versions;
  };
  FragmentSnapshot Snapshot(FragmentId fragment) const;

  /// Overwrites this replica's copy of the snapshot's fragment.
  void InstallSnapshot(const FragmentSnapshot& snapshot);

  /// Reverts every object to its catalog initial value (amnesia crash:
  /// the replica's contents were volatile).
  void Reset();

  /// Overwrites the whole replica from a checkpoint image (dense by
  /// ObjectId). Extra trailing entries are ignored; a short vector leaves
  /// the remaining objects untouched.
  void RestoreAll(const std::vector<VersionInfo>& versions);

  /// Every version, dense by ObjectId (checkpoint capture).
  const std::vector<VersionInfo>& AllVersions() const { return versions_; }

  const Catalog* catalog() const { return catalog_; }

 private:
  const Catalog* catalog_;
  std::vector<VersionInfo> versions_;
};

}  // namespace fragdb

#endif  // FRAGDB_STORAGE_OBJECT_STORE_H_
