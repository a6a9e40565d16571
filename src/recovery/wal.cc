#include "recovery/wal.h"

#include <utility>

#include "recovery/codec.h"

namespace fragdb {

namespace {

std::string QuasiPayload(WalRecord::Type type, FragmentId fragment,
                         Epoch epoch, const QuasiTxn& q) {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(type));
  PutI32(&p, fragment);
  PutI32(&p, epoch);
  PutI64(&p, q.origin_txn);
  PutI64(&p, q.seq);
  PutI32(&p, q.origin_node);
  PutI64(&p, q.origin_time);
  PutU32(&p, static_cast<uint32_t>(q.writes.size()));
  for (const WriteOp& w : q.writes) {
    PutI64(&p, w.object);
    PutI64(&p, w.value);
  }
  return p;
}

std::string Frame(const std::string& payload) {
  std::string framed;
  framed.reserve(payload.size() + 8);
  PutU32(&framed, static_cast<uint32_t>(payload.size()));
  PutU32(&framed, Fnv1a(payload));
  framed += payload;
  return framed;
}

bool DecodePayload(const std::string& payload, WalRecord* out) {
  ByteReader r(payload);
  uint8_t type = r.U8();
  out->fragment = r.I32();
  out->epoch = r.I32();
  if (type == static_cast<uint8_t>(WalRecord::Type::kEpochChange)) {
    out->type = WalRecord::Type::kEpochChange;
    out->epoch_base = r.I64();
    return r.ok && r.pos == payload.size();
  }
  if (type != static_cast<uint8_t>(WalRecord::Type::kQuasi) &&
      type != static_cast<uint8_t>(WalRecord::Type::kPaxosSlot)) {
    return false;
  }
  out->type = static_cast<WalRecord::Type>(type);
  QuasiTxn& q = out->quasi;
  q.fragment = out->fragment;
  q.origin_txn = r.I64();
  q.seq = r.I64();
  q.origin_node = r.I32();
  q.origin_time = r.I64();
  uint32_t n = r.U32();
  if (!r.ok) return false;
  // Cheap sanity bound before reserving: each write is 16 payload bytes.
  if (static_cast<size_t>(n) * 16 > payload.size()) return false;
  q.writes.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    q.writes[i].object = r.I64();
    q.writes[i].value = r.I64();
  }
  return r.ok && r.pos == payload.size();
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  if (record.type != WalRecord::Type::kEpochChange) {
    return Frame(QuasiPayload(record.type, record.fragment, record.epoch,
                              record.quasi));
  }
  std::string p;
  PutU8(&p, static_cast<uint8_t>(record.type));
  PutI32(&p, record.fragment);
  PutI32(&p, record.epoch);
  PutI64(&p, record.epoch_base);
  return Frame(p);
}

std::string EncodeQuasiRecord(WalRecord::Type type, Epoch epoch,
                              const QuasiTxn& quasi) {
  return Frame(QuasiPayload(type, quasi.fragment, epoch, quasi));
}

WalScan ScanWal(const std::string& bytes) {
  WalScan scan;
  size_t pos = 0;
  while (pos + 8 <= bytes.size()) {
    ByteReader header(bytes, pos);
    uint32_t len = header.U32();
    uint32_t sum = header.U32();
    if (pos + 8 + len > bytes.size()) break;  // torn: length past EOF
    std::string payload = bytes.substr(pos + 8, len);
    if (Fnv1a(payload) != sum) break;  // torn or corrupt record
    WalRecord record;
    if (!DecodePayload(payload, &record)) break;
    scan.records.push_back(std::move(record));
    pos += 8 + len;
    scan.valid_bytes = pos;
  }
  scan.torn = scan.valid_bytes < bytes.size();
  return scan;
}

WalWriter::WalWriter(NodeId node, SimEngine* engine, StableStorage* storage,
                     std::string file, SimTime fsync_time)
    : node_(node),
      engine_(engine),
      storage_(storage),
      file_(std::move(file)),
      fsync_time_(fsync_time),
      staging_(std::make_shared<Staging>()) {}

void WalWriter::Append(const WalRecord& record) {
  AppendEncoded(EncodeWalRecord(record));
}

void WalWriter::AppendEncoded(const std::string& bytes) {
  staging_->buf += bytes;
  ++records_appended_;
  if (staging_->sync_scheduled) return;
  staging_->sync_scheduled = true;
  std::weak_ptr<Staging> weak = staging_;
  StableStorage* storage = storage_;
  std::string file = file_;
  engine_->AfterNode(node_, fsync_time_, [weak, storage, file] {
    auto staging = weak.lock();
    if (!staging) return;  // the writer crashed; the staged bytes are lost
    storage->Append(file, staging->buf);
    if (!staging->buf.empty()) staging->syncs += 1;
    staging->buf.clear();
    staging->sync_scheduled = false;
  });
}

void WalWriter::SyncNow() {
  if (staging_->buf.empty()) return;
  storage_->Append(file_, staging_->buf);
  staging_->syncs += 1;
  staging_->buf.clear();
  // A scheduled sync event finding an empty buffer is a harmless no-op
  // append, so sync_scheduled can be cleared here as well.
  staging_->sync_scheduled = false;
}

}  // namespace fragdb
