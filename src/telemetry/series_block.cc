#include "telemetry/series_block.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/strings.h"

namespace seagull {

namespace {

constexpr char kMagic[4] = {'S', 'G', 'B', '1'};
constexpr uint32_t kVersion = 1;
// Header: magic(4) + version(4) + reserved(4) + interval(8) +
// server_count(8) + total_samples(8).
constexpr size_t kHeaderBytes = 36;
constexpr size_t kTrailerBytes = 8;
// A directory entry with an empty id: id_len(4) + backup window(16) +
// sample_count(8).
constexpr size_t kMinDirectoryEntryBytes = 28;
// One sample: an i64 timestamp word plus an f64 value word.
constexpr size_t kSampleBytes = 16;
// A directory id longer than this is corruption, not telemetry.
constexpr uint32_t kMaxServerIdBytes = 1 << 16;
constexpr size_t kTimestampChunkBytes = 256 * 1024;

// SGB1's trailer basis. It is not the standard FNV-1a basis (one digit
// short of 14695981039346656037), but every blob ever written carries
// it, so it is part of the format.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;

void AppendLE(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU32(std::string* out, uint32_t v) { AppendLE(out, v, 4); }
void AppendI64(std::string* out, int64_t v) {
  AppendLE(out, static_cast<uint64_t>(v), 8);
}

/// One 64-bit little-endian column word — the append-pass hot path, so
/// a single memcpy on little-endian hosts instead of eight pushes.
void AppendWord(std::string* out, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out->append(buf, 8);
  } else {
    AppendLE(out, v, 8);
  }
}

/// Bounds-checked little-endian reader over the blob.
class BlockReader {
 public:
  explicit BlockReader(std::string_view blob) : blob_(blob) {}

  size_t offset() const { return off_; }
  size_t remaining() const { return blob_.size() - off_; }

  bool ReadU32(uint32_t* v) {
    uint64_t wide = 0;
    if (!ReadLE(4, &wide)) return false;
    *v = static_cast<uint32_t>(wide);
    return true;
  }
  bool ReadI64(int64_t* v) {
    uint64_t wide = 0;
    if (!ReadLE(8, &wide)) return false;
    *v = static_cast<int64_t>(wide);
    return true;
  }
  bool ReadBytes(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = blob_.substr(off_, n);
    off_ += n;
    return true;
  }

 private:
  bool ReadLE(int bytes, uint64_t* v) {
    if (remaining() < static_cast<size_t>(bytes)) return false;
    uint64_t acc = 0;
    for (int i = 0; i < bytes; ++i) {
      acc |= static_cast<uint64_t>(
                 static_cast<unsigned char>(blob_[off_ + i]))
             << (8 * i);
    }
    off_ += static_cast<size_t>(bytes);
    *v = acc;
    return true;
  }

  std::string_view blob_;
  size_t off_ = 0;
};

}  // namespace

bool IsSeriesBlock(std::string_view blob) {
  return blob.size() >= 4 && std::memcmp(blob.data(), kMagic, 4) == 0;
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

SeriesBlockWriter::SeriesBlockWriter(Sink sink, int64_t interval_minutes)
    : sink_(std::move(sink)),
      interval_minutes_(interval_minutes),
      checksum_(kFnvOffset) {}

Status SeriesBlockWriter::Fail(Status st) {
  state_ = State::kFailed;
  return st;
}

Status SeriesBlockWriter::Emit(std::string_view bytes) {
  checksum_ = Fnv1aFold(checksum_, bytes);
  bytes_written_ += static_cast<int64_t>(bytes.size());
  Status st = sink_(bytes);
  if (!st.ok()) return Fail(std::move(st));
  return Status::OK();
}

void SeriesBlockWriter::NoteResident() {
  const int64_t resident = directory_bytes_ +
                           static_cast<int64_t>(ts_chunk_.size()) +
                           static_cast<int64_t>(value_words_.size());
  if (resident > peak_resident_bytes_) peak_resident_bytes_ = resident;
}

Status SeriesBlockWriter::Declare(std::string_view server_id,
                                  int64_t sample_count,
                                  int64_t default_backup_start,
                                  int64_t default_backup_end) {
  switch (state_) {
    case State::kDeclaring:
      break;
    case State::kFailed:
      return Status::Invalid("SeriesBlockWriter: writer already failed");
    default:
      return Fail(Status::Invalid(
          "SeriesBlockWriter: Declare after StartAppend"));
  }
  if (sample_count < 0) {
    return Fail(Status::Invalid(
        "SeriesBlockWriter: negative sample count for server '" +
        std::string(server_id) + "'"));
  }
  // A server with no rows produces no directory entry.
  if (sample_count == 0) return Status::OK();
  for (const Declared& d : directory_) {
    if (d.id == server_id) {
      return Fail(Status::Invalid(
          "SeriesBlockWriter: duplicate declaration for server '" +
          std::string(server_id) +
          "' (merge duplicates before streaming, e.g. via "
          "WriteSeriesBlockFromRecords)"));
    }
  }
  Declared d;
  d.id.assign(server_id);
  d.backup_start = default_backup_start;
  d.backup_end = default_backup_end;
  d.sample_count = sample_count;
  directory_bytes_ += static_cast<int64_t>(sizeof(Declared) + d.id.size());
  directory_.push_back(std::move(d));
  declared_samples_ += sample_count;
  NoteResident();
  return Status::OK();
}

Status SeriesBlockWriter::StartAppend() {
  switch (state_) {
    case State::kDeclaring:
      break;
    case State::kFailed:
      return Status::Invalid("SeriesBlockWriter: writer already failed");
    default:
      return Fail(Status::Invalid("SeriesBlockWriter: StartAppend twice"));
  }
  std::string head;
  head.reserve(kHeaderBytes + directory_.size() * kMinDirectoryEntryBytes);
  head.append(kMagic, 4);
  AppendU32(&head, kVersion);
  AppendU32(&head, 0);  // reserved
  AppendI64(&head, interval_minutes_);
  AppendI64(&head, static_cast<int64_t>(directory_.size()));
  AppendI64(&head, declared_samples_);
  for (const Declared& d : directory_) {
    AppendU32(&head, static_cast<uint32_t>(d.id.size()));
    head.append(d.id);
    AppendI64(&head, d.backup_start);
    AppendI64(&head, d.backup_end);
    AppendI64(&head, d.sample_count);
  }
  state_ = State::kAppending;
  SEAGULL_RETURN_NOT_OK(Emit(head));
  // The value column's final size is known exactly; reserving up front
  // keeps the high-water mark at 8 * total_samples instead of letting
  // geometric growth overshoot by up to 2x mid-append.
  value_words_.reserve(static_cast<size_t>(declared_samples_) * 8);
  ts_chunk_.reserve(kTimestampChunkBytes + 8);
  append_slot_ = 0;
  slot_remaining_ = directory_.empty() ? 0 : directory_.front().sample_count;
  return Status::OK();
}

Status SeriesBlockWriter::FlushTimestamps() {
  if (ts_chunk_.empty()) return Status::OK();
  SEAGULL_RETURN_NOT_OK(Emit(ts_chunk_));
  ts_chunk_.clear();
  return Status::OK();
}

Status SeriesBlockWriter::Append(std::string_view server_id, int64_t timestamp,
                                 double avg_cpu) {
  switch (state_) {
    case State::kAppending:
      break;
    case State::kFailed:
      return Status::Invalid("SeriesBlockWriter: writer already failed");
    case State::kDeclaring:
      return Fail(Status::Invalid(
          "SeriesBlockWriter: Append before StartAppend"));
    default:
      return Fail(Status::Invalid("SeriesBlockWriter: Append after Finish"));
  }
  if (slot_remaining_ == 0) {
    ++append_slot_;
    if (append_slot_ >= directory_.size()) {
      return Fail(Status::Invalid(
          "SeriesBlockWriter: append past the declared sample total"));
    }
    slot_remaining_ = directory_[append_slot_].sample_count;
  }
  const Declared& current = directory_[append_slot_];
  if (server_id != current.id) {
    return Fail(Status::Invalid(
        "SeriesBlockWriter: appends must follow declaration order with "
        "each server contiguous (got '" +
        std::string(server_id) + "', expected '" + current.id + "')"));
  }
  AppendWord(&ts_chunk_, static_cast<uint64_t>(timestamp));
  AppendWord(&value_words_,
             std::bit_cast<uint64_t>(QuantizeFixed4(avg_cpu)));
  --slot_remaining_;
  NoteResident();
  if (ts_chunk_.size() >= kTimestampChunkBytes) {
    SEAGULL_RETURN_NOT_OK(FlushTimestamps());
  }
  return Status::OK();
}

Status SeriesBlockWriter::Finish() {
  switch (state_) {
    case State::kDeclaring:
      // An all-zero (or empty) declaration set never enters the append
      // pass explicitly; emit the header for it now.
      SEAGULL_RETURN_NOT_OK(StartAppend());
      break;
    case State::kAppending:
      break;
    case State::kFailed:
      return Status::Invalid("SeriesBlockWriter: writer already failed");
    default:
      return Fail(Status::Invalid("SeriesBlockWriter: Finish twice"));
  }
  const bool undelivered =
      !directory_.empty() &&
      (append_slot_ + 1 < directory_.size() || slot_remaining_ > 0);
  if (undelivered) {
    return Fail(Status::Invalid(
        "SeriesBlockWriter: Finish with undelivered declared samples"));
  }
  SEAGULL_RETURN_NOT_OK(FlushTimestamps());
  SEAGULL_RETURN_NOT_OK(Emit(value_words_));
  value_words_.clear();
  value_words_.shrink_to_fit();
  const uint64_t sum = checksum_;  // trailer is not folded into itself
  std::string trailer;
  AppendLE(&trailer, sum, 8);
  SEAGULL_RETURN_NOT_OK(Emit(trailer));
  state_ = State::kFinished;
  return Status::OK();
}

Status WriteSeriesBlockFromRecords(const std::vector<TelemetryRecord>& records,
                                   int64_t interval_minutes,
                                   const SeriesBlockWriter::Sink& sink,
                                   int64_t* peak_resident_bytes) {
  // Group rows per server in first-appearance order. Rows arrive
  // server-major from Load Extraction, so the last-server fast path
  // makes this one hash lookup per server, not per row.
  struct Group {
    const TelemetryRecord* last = nullptr;  // backup window source
    std::vector<const TelemetryRecord*> rows;
  };
  std::unordered_map<std::string_view, size_t> index;
  std::vector<Group> groups;
  {
    std::string_view last_id;
    size_t last_slot = 0;
    bool have_last = false;
    for (const auto& r : records) {
      size_t slot;
      if (have_last && last_id == r.server_id) {
        slot = last_slot;
      } else {
        auto [it, inserted] = index.try_emplace(r.server_id, groups.size());
        if (inserted) groups.emplace_back();
        slot = it->second;
        last_id = it->first;
        last_slot = slot;
        have_last = true;
      }
      Group& g = groups[slot];
      g.rows.push_back(&r);
      g.last = &r;
    }
  }

  SeriesBlockWriter writer(sink, interval_minutes);
  for (const Group& g : groups) {
    SEAGULL_RETURN_NOT_OK(writer.Declare(
        g.rows.front()->server_id, static_cast<int64_t>(g.rows.size()),
        g.last->default_backup_start, g.last->default_backup_end));
  }
  SEAGULL_RETURN_NOT_OK(writer.StartAppend());
  for (const Group& g : groups) {
    for (const TelemetryRecord* r : g.rows) {
      SEAGULL_RETURN_NOT_OK(
          writer.Append(r->server_id, r->timestamp, r->avg_cpu));
    }
  }
  SEAGULL_RETURN_NOT_OK(writer.Finish());
  if (peak_resident_bytes != nullptr) {
    *peak_resident_bytes = writer.peak_resident_bytes();
  }
  return Status::OK();
}

std::string EncodeSeriesBlock(const std::vector<TelemetryRecord>& records,
                              int64_t interval_minutes) {
  std::string out;
  // Rows always group into a valid protocol run and the sink never
  // fails, so the write cannot fail.
  WriteSeriesBlockFromRecords(records, interval_minutes,
                              [&out](std::string_view bytes) {
                                out.append(bytes);
                                return Status::OK();
                              })
      .Abort();
  return out;
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

Status SeriesBlockCursor::ReadEnvelope(std::string_view blob) {
  if (blob.size() < kHeaderBytes + kTrailerBytes) {
    return Status::Invalid("SeriesBlock truncated: shorter than header");
  }
  if (std::memcmp(blob.data(), kMagic, 4) != 0) {
    return Status::Invalid("not a SeriesBlock: bad magic");
  }
  const size_t body = blob.size() - kTrailerBytes;
  BlockReader trailer(blob.substr(body));
  int64_t stored_checksum = 0;
  trailer.ReadI64(&stored_checksum);
  if (static_cast<uint64_t>(stored_checksum) !=
      Fnv1aFold(kFnvOffset, blob.substr(0, body))) {
    return Status::DataLoss("SeriesBlock checksum mismatch (corrupt blob)");
  }

  BlockReader reader(blob.substr(0, body));
  std::string_view magic;
  uint32_t reserved = 0;
  if (!reader.ReadBytes(4, &magic) || !reader.ReadU32(&info_.version) ||
      !reader.ReadU32(&reserved) || !reader.ReadI64(&info_.interval_minutes) ||
      !reader.ReadI64(&info_.server_count) ||
      !reader.ReadI64(&info_.total_samples)) {
    return Status::Invalid("SeriesBlock truncated: short header");
  }
  if (info_.version != kVersion) {
    return Status::Invalid(StringPrintf(
        "unsupported SeriesBlock version %u", info_.version));
  }
  if (info_.interval_minutes <= 0 || info_.server_count < 0 ||
      info_.total_samples < 0) {
    return Status::Invalid("SeriesBlock header has negative counts");
  }
  // The checksum is no proof of sanity — anyone can compute it — so
  // bound the header counts by the bytes actually present before they
  // size an allocation or enter a multiply.
  const size_t payload = reader.remaining();
  if (static_cast<uint64_t>(info_.server_count) >
      payload / kMinDirectoryEntryBytes) {
    return Status::Invalid(
        "SeriesBlock header lists more servers than the blob can hold");
  }
  if (static_cast<uint64_t>(info_.total_samples) > payload / kSampleBytes) {
    return Status::Invalid(
        "SeriesBlock header lists more samples than the blob can hold");
  }

  entries_.reserve(static_cast<size_t>(info_.server_count));
  int64_t samples_listed = 0;
  for (int64_t s = 0; s < info_.server_count; ++s) {
    EntryMeta entry;
    uint32_t id_len = 0;
    if (!reader.ReadU32(&id_len) || id_len > kMaxServerIdBytes ||
        !reader.ReadBytes(id_len, &entry.id) ||
        !reader.ReadI64(&entry.backup_start) ||
        !reader.ReadI64(&entry.backup_end) ||
        !reader.ReadI64(&entry.sample_count)) {
      return Status::Invalid("SeriesBlock truncated: bad directory entry");
    }
    if (entry.sample_count < 0) {
      return Status::Invalid("SeriesBlock directory has negative sample count");
    }
    if (entry.sample_count > info_.total_samples - samples_listed) {
      return Status::Invalid(
          "SeriesBlock directory lists more samples than the header");
    }
    entry.sample_begin = samples_listed;
    samples_listed += entry.sample_count;
    entries_.push_back(entry);
  }
  if (samples_listed != info_.total_samples) {
    return Status::Invalid(
        "SeriesBlock directory sample counts disagree with header");
  }
  const size_t column_bytes = static_cast<size_t>(info_.total_samples) * 8;
  if (reader.remaining() != 2 * column_bytes) {
    return Status::Invalid("SeriesBlock column section has the wrong size");
  }
  timestamps_base_ = blob.data() + reader.offset();
  values_base_ = timestamps_base_ + column_bytes;
  return Status::OK();
}

Result<SeriesBlockCursor> SeriesBlockCursor::Open(std::string_view blob) {
  SeriesBlockCursor cursor;
  SEAGULL_RETURN_NOT_OK(cursor.ReadEnvelope(blob));
  return cursor;
}

Result<SeriesBlockCursor> SeriesBlockCursor::Open(BlobRef blob) {
  if (!blob) {
    return Status::Invalid("SeriesBlockCursor: empty blob ref");
  }
  SEAGULL_ASSIGN_OR_RETURN(SeriesBlockCursor cursor, Open(blob.view()));
  cursor.pin_ = blob.owner();
  return cursor;
}

SeriesBlockServerView SeriesBlockCursor::Entry(int64_t i) const {
  const EntryMeta& meta = entries_[static_cast<size_t>(i)];
  SeriesBlockServerView view;
  view.server_id = meta.id;
  view.default_backup_start = meta.backup_start;
  view.default_backup_end = meta.backup_end;
  view.timestamps = SeriesBlockColumn<int64_t>(
      timestamps_base_ + meta.sample_begin * 8, meta.sample_count);
  view.values = SeriesBlockColumn<double>(
      values_base_ + meta.sample_begin * 8, meta.sample_count);
  return view;
}

bool SeriesBlockCursor::Next(SeriesBlockServerView* out) {
  if (next_ >= size()) return false;
  *out = Entry(next_++);
  return true;
}

Result<SeriesBlockInfo> PeekSeriesBlock(std::string_view blob) {
  SEAGULL_ASSIGN_OR_RETURN(SeriesBlockCursor cursor,
                           SeriesBlockCursor::Open(blob));
  return cursor.info();
}

Result<std::vector<TelemetryRecord>> DecodeSeriesBlock(std::string_view blob) {
  SEAGULL_ASSIGN_OR_RETURN(SeriesBlockCursor cursor,
                           SeriesBlockCursor::Open(blob));
  std::vector<TelemetryRecord> out;
  out.reserve(static_cast<size_t>(cursor.info().total_samples));
  SeriesBlockServerView view;
  while (cursor.Next(&view)) {
    for (int64_t i = 0; i < view.sample_count(); ++i) {
      TelemetryRecord r;
      r.server_id.assign(view.server_id);
      r.timestamp = view.timestamps[i];
      r.avg_cpu = view.values[i];
      r.default_backup_start = view.default_backup_start;
      r.default_backup_end = view.default_backup_end;
      out.push_back(std::move(r));
    }
  }
  return out;
}

Status StreamSeriesBlockServers(
    const SeriesBlockCursor& cursor,
    const std::function<Status(ServerTelemetry&&)>& fn) {
  // Pass 1, directory order: grid validation and per-id extent/window
  // accumulation. Directory order is the row order DecodeSeriesBlock
  // yields, so a malformed blob fails on the first off-grid row.
  // Only O(directory) state is kept.
  struct Acc {
    std::string_view id;
    std::vector<int64_t> entries;  ///< directory indices, in order
    int64_t backup_start = 0;
    int64_t backup_end = 0;
    MinuteStamp min_t = 0;
    MinuteStamp max_t = 0;
    bool any = false;
  };
  const int64_t interval = cursor.info().interval_minutes;
  std::unordered_map<std::string_view, size_t> index;
  std::vector<Acc> accs;
  accs.reserve(static_cast<size_t>(cursor.size()));
  for (int64_t e = 0; e < cursor.size(); ++e) {
    const SeriesBlockServerView view = cursor.Entry(e);
    if (view.sample_count() == 0) continue;  // no rows -> server absent
    auto [it, inserted] = index.try_emplace(view.server_id, accs.size());
    if (inserted) accs.emplace_back();
    Acc& acc = accs[it->second];
    acc.id = view.server_id;
    acc.entries.push_back(e);
    acc.backup_start = view.default_backup_start;
    acc.backup_end = view.default_backup_end;
    for (int64_t i = 0; i < view.sample_count(); ++i) {
      const MinuteStamp t = view.timestamps[i];
      if (t % interval != 0) {
        return Status::Invalid(StringPrintf(
            "timestamp %lld of server %s is off the %lld-minute grid",
            static_cast<long long>(t),
            std::string(view.server_id).c_str(),
            static_cast<long long>(interval)));
      }
      if (!acc.any) {
        acc.min_t = acc.max_t = t;
        acc.any = true;
      } else {
        acc.min_t = std::min(acc.min_t, t);
        acc.max_t = std::max(acc.max_t, t);
      }
    }
  }
  // Servers are yielded sorted by id.
  std::sort(accs.begin(), accs.end(),
            [](const Acc& a, const Acc& b) { return a.id < b.id; });

  // Pass 2, sorted order: build one server at a time straight from the
  // column views and hand it off before touching the next.
  for (const auto& acc : accs) {
    const int64_t len = (acc.max_t - acc.min_t) / interval + 1;
    SEAGULL_ASSIGN_OR_RETURN(
        LoadSeries series, LoadSeries::MakeEmpty(acc.min_t, interval, len));
    for (const int64_t e : acc.entries) {
      const SeriesBlockServerView view = cursor.Entry(e);
      for (int64_t i = 0; i < view.sample_count(); ++i) {
        // Duplicate timestamps keep the last value.
        series.SetValue((view.timestamps[i] - acc.min_t) / interval,
                        view.values[i]);
      }
    }
    ServerTelemetry st;
    st.server_id.assign(acc.id);
    st.load = std::move(series);
    st.default_backup_start = acc.backup_start;
    st.default_backup_end = acc.backup_end;
    SEAGULL_RETURN_NOT_OK(fn(std::move(st)));
  }
  return Status::OK();
}

Result<std::vector<ServerTelemetry>> DecodeTelemetryBlob(
    std::string_view blob) {
  // Borrowing cursor: `blob` outlives this call, and every view is
  // consumed before returning.
  SEAGULL_ASSIGN_OR_RETURN(SeriesBlockCursor cursor,
                           SeriesBlockCursor::Open(blob));
  std::vector<ServerTelemetry> out;
  out.reserve(static_cast<size_t>(cursor.size()));
  SEAGULL_RETURN_NOT_OK(
      StreamSeriesBlockServers(cursor, [&](ServerTelemetry&& st) {
        out.push_back(std::move(st));
        return Status::OK();
      }));
  return out;
}

}  // namespace seagull
