/// \file series_block.h
/// \brief `SeriesBlock`: the binary columnar telemetry blob format, its
/// one encoder (`SeriesBlockWriter`) and its one decoder
/// (`SeriesBlockCursor`).
///
/// SGB1 is the one telemetry format of the lake: Load Extraction writes
/// it and every pipeline and CLI reader decodes it. It stores a
/// region-week extraction in a packed columnar layout that decodes with
/// column loads instead of per-field `strtod`, and groups per server at
/// write time so ingestion never builds a records intermediate. CSV
/// (records.h) is only an interchange edge: `seagull transcode` and
/// `ImportAzureVmTrace` convert text to SGB1 through
/// `WriteSeriesBlockFromRecords`, and `transcode --to csv` prints a
/// block back through `DecodeSeriesBlock`.
///
/// Layout (version 1, all integers little-endian):
///
///     offset 0   "SGB1"                magic, 4 bytes
///            4   u32  version          currently 1
///            8   u32  reserved         zero
///           12   i64  interval_minutes sample grid (5 for servers)
///           20   i64  server_count
///           28   i64  total_samples
///     directory, server_count entries (first-appearance order):
///            u32  id_len, id bytes
///            i64  default_backup_start
///            i64  default_backup_end
///            i64  sample_count
///     columns (server-major, directory order):
///            total_samples x i64  timestamps
///            total_samples x f64  avg_cpu values
///     trailer:
///            u64  FNV-1a checksum of every preceding byte
///
/// Losslessness contract: CPU values are quantized on encode through
/// `QuantizeFixed4` (common/strings.h), the function the CSV writer
/// prints with, so a block transcoded to CSV and back reproduces its
/// bytes, and CSV transcoded to a block and back reproduces the CSV
/// (rows are canonicalized to server-major order, the order Load
/// Extraction writes anyway).
/// `SeriesBlockTest.EmitterBlockSurvivesCsvRoundTrip` pins that the
/// emitter's block survives that round trip byte for byte.
///
/// Every SGB1 byte is produced by `SeriesBlockWriter` and every SGB1
/// byte is read through `SeriesBlockCursor`; `EncodeSeriesBlock`,
/// `DecodeSeriesBlock`, `PeekSeriesBlock` and `DecodeTelemetryBlob`
/// are thin wrappers over those two. tests/golden/series_block_v1.json
/// pins the encoder's output bytes.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/blob_ref.h"
#include "common/result.h"
#include "telemetry/records.h"

namespace seagull {

/// Header facts of a block, cheap to read (no column decode).
struct SeriesBlockInfo {
  uint32_t version = 0;
  int64_t interval_minutes = 0;
  int64_t server_count = 0;
  int64_t total_samples = 0;
};

/// True if `blob` starts with the SeriesBlock magic. `seagull
/// transcode` uses it to pick its direction; CSV starts with its header
/// line, so the first four bytes tell the two apart.
bool IsSeriesBlock(std::string_view blob);

/// \name Encoding.
///
/// `SeriesBlockWriter` produces a block incrementally while holding
/// only (a) the directory metadata and (b) the value column, because
/// the column layout (ALL timestamps server-major, then ALL values)
/// lets exactly one of the two columns stream straight to the sink
/// while the other waits for its turn.
///
/// Two-pass protocol:
///
///   1. *Sizing pass* — `Declare(id, sample_count, backup_start,
///      backup_end)` once per server, in the order servers should
///      appear. Declarations with zero samples are skipped entirely (a
///      server with no rows has no directory entry). After the last
///      declaration, `StartAppend()` emits the header and the complete
///      directory to the sink.
///   2. *Append pass* — `Append(id, timestamp, value)` for every
///      sample, servers in declaration order with each server's samples
///      contiguous and in row order. Timestamp words stream to the sink
///      in 256 KB chunks as they arrive; quantized value words are
///      buffered (8 bytes/sample — the irreducible second column).
///      `Finish()` flushes the value column and the FNV-1a trailer.
///
/// The checksum is folded incrementally over every byte as it is
/// emitted, so the writer never needs the blob in memory to compute the
/// trailer. Peak resident cost is `8 * total_samples` plus one chunk —
/// ~48 MB for a 1000-server region-week; `peak_resident_bytes()`
/// reports the measured high-water mark for the bench gate.
///
/// Inputs with interleaved or duplicate server ids cannot stream (their
/// groups are not contiguous); `WriteSeriesBlockFromRecords` handles
/// them by grouping first.
/// @{

/// \brief Incremental SGB1 encoder; see above for the protocol.
class SeriesBlockWriter {
 public:
  /// Receives consecutive byte ranges of the blob, in order. Returning
  /// a non-OK status aborts the write and surfaces from the caller.
  using Sink = std::function<Status(std::string_view)>;

  explicit SeriesBlockWriter(Sink sink,
                             int64_t interval_minutes = kServerIntervalMinutes);

  /// Sizing pass: registers one server's directory entry. Zero-count
  /// declarations are dropped. Declaring after `StartAppend` or a
  /// duplicate id is an error.
  Status Declare(std::string_view server_id, int64_t sample_count,
                 int64_t default_backup_start, int64_t default_backup_end);

  /// Ends the sizing pass: emits header + directory to the sink.
  Status StartAppend();

  /// Append pass: one sample. Servers must arrive in declaration order,
  /// contiguously, each with exactly its declared sample count; the
  /// value is stored as `QuantizeFixed4(avg_cpu)`.
  Status Append(std::string_view server_id, int64_t timestamp,
                double avg_cpu);

  /// Flushes the value column and the checksum trailer. After an OK
  /// `Finish` the sink has received a complete, decodable SGB1 blob.
  Status Finish();

  /// Total bytes handed to the sink so far.
  int64_t bytes_written() const { return bytes_written_; }

  /// High-water mark of internal buffering (directory metadata + value
  /// column + pending timestamp chunk) — the encoder's resident cost.
  int64_t peak_resident_bytes() const { return peak_resident_bytes_; }

 private:
  enum class State { kDeclaring, kAppending, kFinished, kFailed };

  struct Declared {
    std::string id;
    int64_t backup_start;
    int64_t backup_end;
    int64_t sample_count;
  };

  Status Emit(std::string_view bytes);
  Status FlushTimestamps();
  void NoteResident();
  Status Fail(Status st);

  Sink sink_;
  int64_t interval_minutes_;
  State state_ = State::kDeclaring;

  std::vector<Declared> directory_;
  int64_t declared_samples_ = 0;
  int64_t directory_bytes_ = 0;

  size_t append_slot_ = 0;      ///< directory index being filled
  int64_t slot_remaining_ = 0;  ///< samples left for the current slot

  std::string ts_chunk_;    ///< pending timestamp words, flushed at 256 KB
  std::string value_words_; ///< whole value column, flushed in Finish

  uint64_t checksum_;  ///< FNV-1a folded over every emitted byte
  int64_t bytes_written_ = 0;
  int64_t peak_resident_bytes_ = 0;
};

/// Streams `records` through a `SeriesBlockWriter`, grouping rows per
/// server in first-appearance order (interleaved/duplicate ids merge,
/// per-server row order is kept, the backup window comes from a
/// group's last row). If `peak_resident_bytes` is non-null it receives
/// the writer's high-water mark.
Status WriteSeriesBlockFromRecords(const std::vector<TelemetryRecord>& records,
                                   int64_t interval_minutes,
                                   const SeriesBlockWriter::Sink& sink,
                                   int64_t* peak_resident_bytes = nullptr);

/// `WriteSeriesBlockFromRecords` collected into a string.
std::string EncodeSeriesBlock(
    const std::vector<TelemetryRecord>& records,
    int64_t interval_minutes = kServerIntervalMinutes);

/// @}

/// \name Decoding.
///
/// `SeriesBlockCursor` validates the envelope once and then yields
/// per-server column *views* straight into the blob bytes; the only
/// per-server allocation left in grouped decode is the output
/// `LoadSeries` itself.
///
/// Lifetime contract: views alias the blob. A cursor opened on a
/// `BlobRef` (the `LakeStore::GetBlob` form) pins the backing storage
/// for the cursor's lifetime, so a replace or delete of the blob after
/// `Open` cannot dangle the views. A cursor opened on a
/// raw `string_view` borrows: the caller must keep the bytes alive for
/// as long as any view is read.
/// @{

/// Little-endian 64-bit column over unaligned blob bytes. Elements are
/// loaded with `memcpy` (one mov on x86) because the column section
/// starts after a variable-length directory and has no alignment
/// guarantee — `reinterpret_cast` would be UB the sanitizer gate
/// rightly rejects.
template <typename T>
class SeriesBlockColumn {
  static_assert(sizeof(T) == 8, "columns store 64-bit words");

 public:
  SeriesBlockColumn() = default;
  SeriesBlockColumn(const char* bytes, int64_t size)
      : bytes_(bytes), size_(size) {}

  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The aliased bytes (tests assert views point into the blob).
  const char* bytes() const { return bytes_; }

  T operator[](int64_t i) const {
    uint64_t word;
    std::memcpy(&word, bytes_ + i * 8, 8);
    if constexpr (std::endian::native != std::endian::little) {
      word = ((word & 0x00000000000000ffull) << 56) |
             ((word & 0x000000000000ff00ull) << 40) |
             ((word & 0x0000000000ff0000ull) << 24) |
             ((word & 0x00000000ff000000ull) << 8) |
             ((word & 0x000000ff00000000ull) >> 8) |
             ((word & 0x0000ff0000000000ull) >> 24) |
             ((word & 0x00ff000000000000ull) >> 40) |
             ((word & 0xff00000000000000ull) >> 56);
    }
    return std::bit_cast<T>(word);
  }

 private:
  const char* bytes_ = nullptr;
  int64_t size_ = 0;
};

/// One directory entry's telemetry, viewed in place (directory order;
/// a malformed-but-checksummed blob may repeat a server id, exactly as
/// interleaved CSV rows may).
struct SeriesBlockServerView {
  std::string_view server_id;
  int64_t default_backup_start = 0;
  int64_t default_backup_end = 0;
  SeriesBlockColumn<int64_t> timestamps;
  SeriesBlockColumn<double> values;

  int64_t sample_count() const { return timestamps.size(); }
};

/// \brief Validates the SGB1 envelope (magic, checksum, version, header
/// counts against the blob size, directory arithmetic, column bounds)
/// once, then serves per-server column views with no further copying
/// or validation cost.
class SeriesBlockCursor {
 public:
  /// Borrowing open: `blob` must outlive every view read.
  static Result<SeriesBlockCursor> Open(std::string_view blob);

  /// Pinning open over a `BlobRef` (the form `LakeStore::GetBlob`
  /// returns): decode aliases the ref's bytes directly — zero heap
  /// copies end to end for a mapped ref — and the ref's owner stays
  /// alive for the cursor's lifetime.
  static Result<SeriesBlockCursor> Open(BlobRef blob);

  const SeriesBlockInfo& info() const { return info_; }
  /// Directory entries (== info().server_count).
  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  /// Random access, directory order.
  SeriesBlockServerView Entry(int64_t i) const;

  /// Iteration, directory order: fills `out` and advances; false at end.
  bool Next(SeriesBlockServerView* out);
  void Rewind() { next_ = 0; }

 private:
  SeriesBlockCursor() = default;

  struct EntryMeta {
    std::string_view id;
    int64_t backup_start = 0;
    int64_t backup_end = 0;
    int64_t sample_begin = 0;  ///< prefix sum of earlier sample counts
    int64_t sample_count = 0;
  };

  /// Fills every member but `pin_` from `blob`, or says why it can't.
  Status ReadEnvelope(std::string_view blob);

  SeriesBlockInfo info_;
  std::vector<EntryMeta> entries_;
  const char* timestamps_base_ = nullptr;
  const char* values_base_ = nullptr;
  int64_t next_ = 0;
  std::shared_ptr<const void> pin_;  ///< type-erased owner; null = borrow
};

/// Validates the whole blob and returns its header.
Result<SeriesBlockInfo> PeekSeriesBlock(std::string_view blob);

/// Inverse of `EncodeSeriesBlock`: back to flat rows, server-major.
Result<std::vector<TelemetryRecord>> DecodeSeriesBlock(std::string_view blob);

/// The one per-server grouping of telemetry: streams the cursor's
/// servers sorted by id, each as a `LoadSeries` on the block's grid
/// spanning its first to last stamp (absent stamps missing). Directory
/// entries that repeat an id merge in directory order, a repeated
/// timestamp keeps its last value, the backup window comes from the
/// id's last entry, and a stamp off the grid is `Invalid`. Peak
/// transient memory is O(largest single server), not O(total_samples):
/// each `ServerTelemetry` is built from column views and handed to `fn`
/// before the next one is touched. A non-OK status from `fn` stops the
/// stream and is returned. tests/reference/telemetry_reference.h holds
/// the row-by-row grouping it must match bit for bit, status text
/// included.
Status StreamSeriesBlockServers(
    const SeriesBlockCursor& cursor,
    const std::function<Status(ServerTelemetry&&)>& fn);

/// @}

/// Reader for "recent load" consumers (CLI schedule / advise / serve):
/// decodes a `SeriesBlock` into the grouped per-server form through
/// `StreamSeriesBlockServers`. Anything else — CSV included — fails with
/// the cursor's `Invalid` status. Takes a view so `GetBlob` callers
/// decode straight out of the mapping.
Result<std::vector<ServerTelemetry>> DecodeTelemetryBlob(
    std::string_view blob);

}  // namespace seagull
