#include "replay/trace_format.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/strings.h"

namespace qsched::replay {

namespace {

// File magic "QSRT" and segment magic "QSEG", little-endian u32.
constexpr uint32_t kFileMagic = 0x54525351u;
constexpr uint32_t kSegmentMagic = 0x47455351u;
constexpr uint32_t kSegmentRecords = 0;
constexpr uint32_t kSegmentSummary = 1;
// magic + version + record_bytes + reserved + time_scale + seed.
constexpr size_t kFileHeaderBytes = 4 + 4 + 4 + 4 + 8 + 8;
// magic + type + count + payload_bytes + crc.
constexpr size_t kSegmentHeaderBytes = 4 + 4 + 4 + 4 + 4;
// control_interval + system_cost_limit + total_utility + allocator + n.
constexpr size_t kSummaryFixedBytes = 8 + 8 + 8 + 4 + 4;
// class_id + attainment + measured + cost_limit.
constexpr size_t kSummaryClassBytes = 4 + 8 + 8 + 8;

// Fixed-offset little-endian stores and loads: one move on a
// little-endian host, plus a byte reversal on a big-endian one, so the
// file bytes never depend on the host.
template <typename T>
T LittleEndian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    uint8_t bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    std::reverse(bytes, bytes + sizeof(T));
    std::memcpy(&v, bytes, sizeof(T));
  }
  return v;
}

template <typename T>
void Store(uint8_t* p, T v) {
  v = LittleEndian(v);
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
T Load(const uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  return LittleEndian(v);
}

/// Bounds-checked little-endian cursor over a parsed buffer.
struct Cursor {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  size_t remaining() const { return size - pos; }

  template <typename T>
  bool Read(T* v) {
    if (remaining() < sizeof(T)) return false;
    *v = Load<T>(data + pos);
    pos += sizeof(T);
    return true;
  }
};

// Record layout: arrival_ns, trace_id, cost_timerons, class_id,
// template_id at these byte offsets.
void EncodeRecord(uint8_t* p, const TraceRecord& record) {
  Store<uint64_t>(p, record.arrival_ns);
  Store<uint64_t>(p + 8, record.trace_id);
  Store<double>(p + 16, record.cost_timerons);
  Store<uint16_t>(p + 24, record.class_id);
  Store<uint16_t>(p + 26, record.template_id);
}

void DecodeRecord(const uint8_t* p, TraceRecord* record) {
  record->arrival_ns = Load<uint64_t>(p);
  record->trace_id = Load<uint64_t>(p + 8);
  record->cost_timerons = Load<double>(p + 16);
  record->class_id = Load<uint16_t>(p + 24);
  record->template_id = Load<uint16_t>(p + 26);
}

/// Appends the summary payload to `out`.
void EncodeSummary(const TraceSummary& summary, std::vector<uint8_t>* out) {
  size_t at = out->size();
  out->resize(at + kSummaryFixedBytes +
              summary.classes.size() * kSummaryClassBytes);
  uint8_t* p = out->data() + at;
  Store<double>(p, summary.control_interval_seconds);
  Store<double>(p + 8, summary.system_cost_limit);
  Store<double>(p + 16, summary.total_utility);
  Store<uint32_t>(p + 24, summary.allocator);
  Store<uint32_t>(p + 28, static_cast<uint32_t>(summary.classes.size()));
  p += kSummaryFixedBytes;
  for (const TraceSummaryClass& cls : summary.classes) {
    Store<uint32_t>(p, cls.class_id);
    Store<double>(p + 4, cls.attainment);
    Store<double>(p + 12, cls.measured);
    Store<double>(p + 20, cls.cost_limit);
    p += kSummaryClassBytes;
  }
}

bool DecodeSummary(const uint8_t* data, size_t size, TraceSummary* out) {
  Cursor cur{data, size};
  uint32_t n = 0;
  if (!cur.Read(&out->control_interval_seconds) ||
      !cur.Read(&out->system_cost_limit) ||
      !cur.Read(&out->total_utility) || !cur.Read(&out->allocator) ||
      !cur.Read(&n)) {
    return false;
  }
  // Readers copy the interval into a scheduler config and divide by it.
  if (!std::isfinite(out->control_interval_seconds) ||
      out->control_interval_seconds <= 0.0) {
    return false;
  }
  if (cur.remaining() / kSummaryClassBytes < n) return false;
  out->classes.resize(n);
  for (TraceSummaryClass& cls : out->classes) {
    cur.Read(&cls.class_id);
    cur.Read(&cls.attainment);
    cur.Read(&cls.measured);
    cur.Read(&cls.cost_limit);
  }
  return true;
}

/// Slicing-by-8 tables: tables[0] is the classic bytewise table and
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so one
/// step folds 8 input bytes with 8 independent lookups.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32Tables& SliceTables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < t.size(); ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

/// Reads the whole regular file at `path` with one sized read.
Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open trace file " + path);
  Status status = Status::OK();
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    status = Status::InvalidArgument(path + " is not a regular file");
  } else {
    bytes->resize(static_cast<size_t>(st.st_size));
    size_t got = 0;
    while (got < bytes->size()) {
      const ssize_t n = ::read(fd, bytes->data() + got, bytes->size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        status = Status::Internal("cannot read trace file " + path);
        break;
      }
      if (n == 0) break;  // shrank since fstat: parse what is there
      got += static_cast<size_t>(n);
    }
    bytes->resize(got);
  }
  ::close(fd);
  return status;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len, uint32_t seed) {
  const Crc32Tables& t = SliceTables();
  uint32_t crc = ~seed;
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = Load<uint32_t>(data) ^ crc;
    const uint32_t hi = Load<uint32_t>(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
  }
  return ~crc;
}

TraceWriter::TraceWriter(const TraceWriterOptions& options)
    : options_(options) {
  // A segment's payload size must fit its u32 header field.
  options_.records_per_segment =
      std::clamp<size_t>(options_.records_per_segment, 1,
                         UINT32_MAX / TraceRecord::kWireBytes);
  segment_.resize(kSegmentHeaderBytes);
}

TraceWriter::~TraceWriter() { Close(); }

Result<std::unique_ptr<TraceWriter>> TraceWriter::Open(
    const TraceWriterOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("trace path is empty");
  }
  std::unique_ptr<TraceWriter> writer(new TraceWriter(options));
  Status opened = writer->OpenFile(options.path);
  if (!opened.ok()) return opened;
  return writer;
}

Status TraceWriter::OpenFile(const std::string& path) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) return Fail("cannot open trace file " + path);
  uint8_t header[kFileHeaderBytes];
  Store<uint32_t>(header, kFileMagic);
  Store<uint32_t>(header + 4, options_.header.version);
  Store<uint32_t>(header + 8,
                  static_cast<uint32_t>(TraceRecord::kWireBytes));
  Store<uint32_t>(header + 12, 0);  // reserved
  Store<double>(header + 16, options_.header.time_scale);
  Store<uint64_t>(header + 24, options_.header.seed);
  out_.write(reinterpret_cast<const char*>(header), sizeof(header));
  if (!out_) return Fail("cannot write trace header to " + path);
  bytes_current_file_ = sizeof(header);
  bytes_total_ += sizeof(header);
  files_.push_back(path);
  return Status::OK();
}

Status TraceWriter::Fail(const std::string& message) {
  error_ = Status::Internal(message);
  return error_;
}

Status TraceWriter::Append(const TraceRecord& record) {
  if (closed_) return Status::FailedPrecondition("trace writer closed");
  if (!error_.ok()) return error_;
  const size_t at = segment_.size();
  segment_.resize(at + TraceRecord::kWireBytes);
  EncodeRecord(segment_.data() + at, record);
  if (++segment_records_ >= options_.records_per_segment) return Flush();
  return Status::OK();
}

Status TraceWriter::SealSegment(uint32_t type, uint32_t count) {
  const size_t payload_bytes = segment_.size() - kSegmentHeaderBytes;
  uint8_t* header = segment_.data();
  Store<uint32_t>(header, kSegmentMagic);
  Store<uint32_t>(header + 4, type);
  Store<uint32_t>(header + 8, count);
  Store<uint32_t>(header + 12, static_cast<uint32_t>(payload_bytes));
  Store<uint32_t>(header + 16,
                  Crc32(segment_.data() + kSegmentHeaderBytes, payload_bytes));
  out_.write(reinterpret_cast<const char*>(segment_.data()),
             static_cast<std::streamsize>(segment_.size()));
  out_.flush();
  // Once bytes are lost the file has a hole; every later call reports it.
  if (!out_) return Fail("trace segment write failed");
  bytes_current_file_ += segment_.size();
  bytes_total_ += segment_.size();
  ++segments_written_;
  if (type == kSegmentRecords) records_written_ += count;
  segment_.resize(kSegmentHeaderBytes);
  // Rotation happens between segments so every file is independently
  // parseable: header + whole segments.
  if (options_.rotate_bytes > 0 &&
      bytes_current_file_ >= options_.rotate_bytes) {
    out_.close();
    ++rotations_;
    return OpenFile(options_.path + "." + std::to_string(rotations_));
  }
  return Status::OK();
}

Status TraceWriter::Flush() {
  if (closed_) return Status::FailedPrecondition("trace writer closed");
  if (!error_.ok()) return error_;
  if (segment_records_ == 0) return Status::OK();
  const uint32_t count = static_cast<uint32_t>(segment_records_);
  segment_records_ = 0;
  return SealSegment(kSegmentRecords, count);
}

Status TraceWriter::WriteSummary(const TraceSummary& summary) {
  Status flushed = Flush();
  if (!flushed.ok()) return flushed;
  EncodeSummary(summary, &segment_);
  return SealSegment(kSegmentSummary,
                     static_cast<uint32_t>(summary.classes.size()));
}

Status TraceWriter::Close() {
  if (closed_) return error_;
  Status flushed = Flush();
  closed_ = true;
  out_.close();
  return flushed;
}

Result<TraceReadResult> ReadTraceFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  Status loaded = ReadWholeFile(path, &bytes);
  if (!loaded.ok()) return loaded;

  TraceReadResult result;
  result.bytes_read = bytes.size();
  Cursor cur{bytes.data(), bytes.size()};
  uint32_t magic = 0, version = 0, record_bytes = 0, reserved = 0;
  if (!cur.Read(&magic) || magic != kFileMagic) {
    return Status::InvalidArgument(path + " is not a qsched trace");
  }
  if (!cur.Read(&version) || !cur.Read(&record_bytes) ||
      !cur.Read(&reserved) || !cur.Read(&result.header.time_scale) ||
      !cur.Read(&result.header.seed)) {
    return Status::InvalidArgument(path + ": truncated trace header");
  }
  result.header.version = version;
  if (version != 1 || record_bytes != TraceRecord::kWireBytes) {
    return Status::InvalidArgument(
        StrPrintf("%s: unsupported trace version %u / record size %u",
                  path.c_str(), version, record_bytes));
  }
  // Every decoded record lies inside the file, so this one reservation
  // bounds the whole decode: no reallocation, and no allocation sized by
  // an untrusted header field.
  result.records.reserve(cur.remaining() / TraceRecord::kWireBytes);

  while (cur.remaining() >= kSegmentHeaderBytes) {
    const uint8_t* header = cur.data + cur.pos;
    const uint32_t seg_magic = Load<uint32_t>(header);
    const uint32_t type = Load<uint32_t>(header + 4);
    const uint32_t count = Load<uint32_t>(header + 8);
    const uint32_t payload_bytes = Load<uint32_t>(header + 12);
    const uint32_t crc = Load<uint32_t>(header + 16);
    cur.pos += kSegmentHeaderBytes;
    if (seg_magic != kSegmentMagic) {
      // The stream lost sync (overwritten or garbage tail): nothing after
      // this point can be trusted to be segment-aligned.
      ++result.segments_corrupt;
      break;
    }
    if (cur.remaining() < payload_bytes) {
      // Truncated mid-segment (crash during write): keep what we have.
      ++result.segments_corrupt;
      break;
    }
    const uint8_t* payload = cur.data + cur.pos;
    cur.pos += payload_bytes;
    if (Crc32(payload, payload_bytes) != crc) {
      ++result.segments_corrupt;
      continue;  // skip the damaged segment, later ones are still aligned
    }
    if (type == kSegmentRecords) {
      if (payload_bytes != uint64_t{count} * TraceRecord::kWireBytes) {
        ++result.segments_corrupt;
        continue;
      }
      const size_t at = result.records.size();
      result.records.resize(at + count);
      TraceRecord* out = result.records.data() + at;
      for (uint32_t i = 0; i < count; ++i) {
        DecodeRecord(payload + i * TraceRecord::kWireBytes, &out[i]);
      }
      ++result.segments_ok;
    } else if (type == kSegmentSummary) {
      TraceSummary summary;
      if (DecodeSummary(payload, payload_bytes, &summary)) {
        result.summary = std::move(summary);
        result.has_summary = true;
        ++result.segments_ok;
      } else {
        ++result.segments_corrupt;
      }
    } else {
      // Unknown segment type from a newer writer: skip, stay aligned.
      ++result.segments_ok;
    }
  }
  return result;
}

Result<TraceReadResult> ReadTraceChain(const std::string& path) {
  Result<TraceReadResult> first = ReadTraceFile(path);
  if (!first.ok()) return first;
  TraceReadResult merged = std::move(first).ValueOrDie();
  for (int i = 1;; ++i) {
    Result<TraceReadResult> part =
        ReadTraceFile(path + "." + std::to_string(i));
    if (part.status().code() == StatusCode::kNotFound) break;
    if (!part.ok()) return part;
    TraceReadResult piece = std::move(part).ValueOrDie();
    merged.records.insert(merged.records.end(), piece.records.begin(),
                          piece.records.end());
    merged.segments_ok += piece.segments_ok;
    merged.segments_corrupt += piece.segments_corrupt;
    merged.bytes_read += piece.bytes_read;
    if (piece.has_summary) {
      merged.summary = std::move(piece.summary);
      merged.has_summary = true;
    }
  }
  return merged;
}

}  // namespace qsched::replay
