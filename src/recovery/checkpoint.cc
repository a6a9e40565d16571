#include "recovery/checkpoint.h"

#include <memory>
#include <utility>

#include "recovery/codec.h"

namespace fragdb {

namespace {

constexpr uint32_t kBaseMagic = 0x46444243;   // "FDBC"
constexpr uint32_t kDeltaMagic = 0x46444244;  // "FDBD"
// magic + payload length before the payload, checksum after it.
constexpr size_t kFrameHeader = 8;
constexpr size_t kFrameOverhead = kFrameHeader + 4;
// Lower bounds on encoded sizes, for sanity checks before reserving.
constexpr size_t kVersionBytes = 32;
constexpr size_t kStreamBytes = 32;
constexpr size_t kQuasiBytes = 32;
constexpr size_t kWriteBytes = 16;

std::string BeginFrame(uint32_t magic) {
  std::string out;
  PutU32(&out, magic);
  PutU32(&out, 0);  // payload length, patched by EndFrame
  return out;
}

void EndFrame(std::string* out) {
  const size_t len = out->size() - kFrameHeader;
  for (int i = 0; i < 4; ++i) {
    (*out)[4 + i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  PutU32(out, Fnv1a(out->data() + kFrameHeader, len));
}

void PutVersion(std::string* p, const VersionInfo& v) {
  PutI64(p, v.value);
  PutI64(p, v.writer);
  PutI64(p, v.frag_seq);
  PutI64(p, v.installed_at);
}

void PutStreams(std::string* p, const std::vector<StreamCheckpoint>& streams) {
  PutU32(p, static_cast<uint32_t>(streams.size()));
  for (const StreamCheckpoint& s : streams) {
    PutI32(p, s.fragment);
    PutI32(p, s.epoch);
    PutI64(p, s.epoch_base);
    PutI64(p, s.applied_seq);
    PutI64(p, s.next_seq);
    PutU32(p, static_cast<uint32_t>(s.log.size()));
    for (const QuasiRef& ref : s.log) {
      const QuasiTxn& q = *ref;
      PutI64(p, q.origin_txn);
      PutI64(p, q.seq);
      PutI32(p, q.origin_node);
      PutI64(p, q.origin_time);
      PutU32(p, static_cast<uint32_t>(q.writes.size()));
      for (const WriteOp& w : q.writes) {
        PutI64(p, w.object);
        PutI64(p, w.value);
      }
    }
  }
}

/// Reads one frame's payload, which ends at `end`.
class FrameReader {
 public:
  FrameReader(const std::string& bytes, size_t begin, size_t end)
      : r_(bytes, begin), end_(end) {}

  ByteReader& r() { return r_; }

  /// True if `count` items of at least `each` bytes can still fit.
  bool Fits(uint32_t count, size_t each) const {
    return r_.ok && r_.pos <= end_ && static_cast<size_t>(count) * each <=
                                          end_ - r_.pos;
  }

  bool Done() const { return r_.ok && r_.pos == end_; }

  VersionInfo Version() {
    VersionInfo v;
    v.value = r_.I64();
    v.writer = r_.I64();
    v.frag_seq = r_.I64();
    v.installed_at = r_.I64();
    return v;
  }

  bool Streams(std::vector<StreamCheckpoint>* out) {
    uint32_t nstreams = r_.U32();
    if (!Fits(nstreams, kStreamBytes)) return false;
    out->resize(nstreams);
    for (StreamCheckpoint& s : *out) {
      s.fragment = r_.I32();
      s.epoch = r_.I32();
      s.epoch_base = r_.I64();
      s.applied_seq = r_.I64();
      s.next_seq = r_.I64();
      uint32_t nlog = r_.U32();
      if (!Fits(nlog, kQuasiBytes)) return false;
      s.log.reserve(nlog);
      for (uint32_t i = 0; i < nlog; ++i) {
        auto q = std::make_shared<QuasiTxn>();
        q->fragment = s.fragment;
        q->origin_txn = r_.I64();
        q->seq = r_.I64();
        q->origin_node = r_.I32();
        q->origin_time = r_.I64();
        uint32_t nwrites = r_.U32();
        if (!Fits(nwrites, kWriteBytes)) return false;
        q->writes.resize(nwrites);
        for (WriteOp& w : q->writes) {
          w.object = r_.I64();
          w.value = r_.I64();
        }
        s.log.push_back(std::move(q));
      }
    }
    return r_.ok;
  }

 private:
  ByteReader r_;
  size_t end_;
};

bool DecodeBase(FrameReader& f, CheckpointImage* image) {
  image->taken_at = f.r().I64();
  uint32_t nversions = f.r().U32();
  if (!f.Fits(nversions, kVersionBytes)) return false;
  image->versions.resize(nversions);
  for (VersionInfo& v : image->versions) v = f.Version();
  return f.Streams(&image->streams) && f.Done();
}

/// Applies one delta frame to `image`, the fold of the frames before it.
bool ApplyDelta(FrameReader& f, CheckpointImage* image) {
  image->taken_at = f.r().I64();
  uint32_t nversions = f.r().U32();
  uint32_t nchanged = f.r().U32();
  if (!f.Fits(nchanged, kVersionBytes + 4)) return false;
  image->versions.resize(nversions);
  for (uint32_t i = 0; i < nchanged; ++i) {
    uint32_t object = f.r().U32();
    if (object >= nversions) return false;
    image->versions[object] = f.Version();
  }
  std::vector<StreamCheckpoint> streams;
  if (!f.Streams(&streams) || !f.Done()) return false;
  // The frame lists every stream; each keeps the log it had and extends
  // it with the frame's entries.
  for (StreamCheckpoint& s : streams) {
    for (StreamCheckpoint& old : image->streams) {
      if (old.fragment != s.fragment) continue;
      if (!old.log.empty() && !s.log.empty() &&
          s.log.front()->seq <= old.log.back()->seq) {
        return false;
      }
      old.log.insert(old.log.end(), std::make_move_iterator(s.log.begin()),
                     std::make_move_iterator(s.log.end()));
      s.log = std::move(old.log);
      break;
    }
  }
  image->streams = std::move(streams);
  return true;
}

}  // namespace

const StreamCheckpoint& CheckpointImage::StreamFor(FragmentId fragment) const {
  for (const StreamCheckpoint& s : streams) {
    if (s.fragment == fragment) return s;
  }
  static const StreamCheckpoint kFresh;
  return kFresh;
}

std::string CheckpointImage::Encode() const {
  std::string out = BeginFrame(kBaseMagic);
  PutI64(&out, taken_at);
  PutU32(&out, static_cast<uint32_t>(versions.size()));
  for (const VersionInfo& v : versions) PutVersion(&out, v);
  PutStreams(&out, streams);
  EndFrame(&out);
  return out;
}

std::string CheckpointImage::EncodeDelta(
    const std::vector<VersionInfo>& previous_versions) const {
  std::string changed;
  uint32_t nchanged = 0;
  for (size_t i = 0; i < versions.size(); ++i) {
    if (i < previous_versions.size() && versions[i] == previous_versions[i]) {
      continue;
    }
    PutU32(&changed, static_cast<uint32_t>(i));
    PutVersion(&changed, versions[i]);
    ++nchanged;
  }
  std::string out = BeginFrame(kDeltaMagic);
  PutI64(&out, taken_at);
  PutU32(&out, static_cast<uint32_t>(versions.size()));
  PutU32(&out, nchanged);
  out += changed;
  PutStreams(&out, streams);
  EndFrame(&out);
  return out;
}

bool CheckpointImage::Decode(const std::string& bytes, CheckpointImage* out) {
  CheckpointImage image;
  size_t pos = 0;
  bool base = true;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameOverhead) return false;
    ByteReader header(bytes, pos);
    const uint32_t magic = header.U32();
    const size_t len = header.U32();
    if (magic != (base ? kBaseMagic : kDeltaMagic) ||
        bytes.size() - pos - kFrameOverhead < len) {
      return false;
    }
    const size_t begin = pos + kFrameHeader;
    ByteReader tail(bytes, begin + len);
    if (tail.U32() != Fnv1a(bytes.data() + begin, len)) return false;
    FrameReader frame(bytes, begin, begin + len);
    if (!(base ? DecodeBase(frame, &image) : ApplyDelta(frame, &image))) {
      return false;
    }
    base = false;
    pos = begin + len + 4;
  }
  if (base) return false;  // no frame at all
  *out = std::move(image);
  return true;
}

}  // namespace fragdb
