#ifndef QSCHED_REPLAY_TRACE_FORMAT_H_
#define QSCHED_REPLAY_TRACE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace qsched::replay {

/// CRC-32 (IEEE 802.3 polynomial, reflected), computed slicing-by-8: eight
/// bytes per step, the same values as the classic bytewise table. `seed`
/// lets callers chain calls over split buffers; pass the previous return
/// value.
uint32_t Crc32(const uint8_t* data, size_t len, uint32_t seed = 0);

/// One captured arrival. Everything the replayer and the shadow planner
/// need to reconstruct the query: when it arrived (relative to capture
/// start), what class it belonged to, which workload template it was
/// drawn from, and the optimizer cost estimate the control plane saw.
/// The true resource demand is NOT stored — it is regenerated
/// deterministically from (template_id, replay seed), which keeps records
/// at 28 bytes and shadow runs bit-reproducible.
struct TraceRecord {
  /// Wall nanoseconds since the recorder started.
  uint64_t arrival_ns = 0;
  /// The gateway-assigned query id (0 when unknown).
  uint64_t trace_id = 0;
  /// Optimizer estimate in timerons, as captured.
  double cost_timerons = 0.0;
  uint16_t class_id = 0;
  /// Template index; bit 15 set = OLTP transaction type, clear = OLAP
  /// query template (see TemplateCodec).
  uint16_t template_id = 0;

  /// Encoded size on the wire.
  static constexpr size_t kWireBytes = 28;

  bool operator==(const TraceRecord& other) const {
    return arrival_ns == other.arrival_ns && trace_id == other.trace_id &&
           cost_timerons == other.cost_timerons &&
           class_id == other.class_id && template_id == other.template_id;
  }
};

/// Marks a template_id as belonging to the OLTP transaction family.
inline constexpr uint16_t kOltpTemplateBit = 0x8000;
/// Template could not be resolved by name at capture time; the replayer
/// substitutes template 0 of the record's family.
inline constexpr uint16_t kUnknownTemplate = 0x7FFF;

/// Fixed per-file header, written once at the start of every trace file
/// (including rotation continuations).
struct TraceHeader {
  uint32_t version = 1;
  /// Model seconds per wall second of the capturing runtime — what maps
  /// captured wall gaps onto shadow-planner model time.
  double time_scale = 1.0;
  /// Seed of the capturing process, echoed for provenance.
  uint64_t seed = 0;
};

/// Live-run context appended as a trailing summary segment when the
/// capturing CLI shuts down cleanly: per-class measured performance and
/// SLO attainment during capture plus the plan that was live, so a
/// what-if report can put predicted candidate utility side by side with
/// what actually happened. Truncated traces simply lack it.
struct TraceSummaryClass {
  uint32_t class_id = 0;
  /// Fraction of the capture's control intervals with completions of the
  /// class whose per-query mean met the goal.
  double attainment = 0.0;
  /// Mean velocity (OLAP) or mean response seconds (OLTP) over every
  /// query of the class completed during the capture.
  double measured = 0.0;
  /// The class cost limit of the plan live at capture end.
  double cost_limit = 0.0;
};

struct TraceSummary {
  /// Finite and > 0; a reader drops a summary segment that is not.
  double control_interval_seconds = 0.0;
  double system_cost_limit = 0.0;
  /// Total utility of the measured per-class performance under the
  /// capture-side utility function.
  double total_utility = 0.0;
  /// 0 = utility search, 1 = greedy auction.
  uint32_t allocator = 0;
  std::vector<TraceSummaryClass> classes;
};

struct TraceWriterOptions {
  std::string path;
  /// Rotate to `<path>.1`, `<path>.2`, ... once the current file exceeds
  /// this many bytes (checked at segment boundaries); 0 = never rotate.
  uint64_t rotate_bytes = 0;
  /// Records buffered per CRC'd segment; a crash loses at most one
  /// segment's worth.
  size_t records_per_segment = 1024;
  TraceHeader header;
};

/// Sequential trace writer. Not thread-safe: the recorder serializes all
/// appends onto its dedicated writer thread.
class TraceWriter {
 public:
  static Result<std::unique_ptr<TraceWriter>> Open(
      const TraceWriterOptions& options);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// The first failed write is sticky: that call and every later Append,
  /// Flush, WriteSummary and Close return it, because the file now lacks
  /// records.
  Status Append(const TraceRecord& record);
  /// Seals the open segment's records, CRCs them and writes the segment.
  Status Flush();
  /// Flushes, then appends the summary as its own segment (always to the
  /// newest file).
  Status WriteSummary(const TraceSummary& summary);
  /// Flush + close. Idempotent; the destructor calls it.
  Status Close();

  uint64_t records_written() const { return records_written_; }
  uint64_t segments_written() const { return segments_written_; }
  /// Bytes written across all files so far.
  uint64_t bytes_written() const { return bytes_total_; }
  /// All files produced, oldest first (`path`, then rotations).
  const std::vector<std::string>& files() const { return files_; }

 private:
  explicit TraceWriter(const TraceWriterOptions& options);

  Status OpenFile(const std::string& path);
  /// Fills in the open segment's header, writes it and starts a new one.
  Status SealSegment(uint32_t type, uint32_t count);
  /// Records `message` as the sticky error and returns it.
  Status Fail(const std::string& message);

  TraceWriterOptions options_;
  std::ofstream out_;
  /// The open segment: header space, then each appended record encoded
  /// in place.
  std::vector<uint8_t> segment_;
  size_t segment_records_ = 0;
  Status error_;
  std::vector<std::string> files_;
  uint64_t bytes_current_file_ = 0;
  uint64_t bytes_total_ = 0;
  uint64_t records_written_ = 0;
  uint64_t segments_written_ = 0;
  int rotations_ = 0;
  bool closed_ = false;
};

/// Everything parsed out of one trace file. Reads are truncation- and
/// corruption-tolerant: a segment whose CRC fails is skipped (counted in
/// segments_corrupt), a segment cut off by EOF ends the parse — records
/// from intact segments survive either way.
struct TraceReadResult {
  TraceHeader header;
  std::vector<TraceRecord> records;
  bool has_summary = false;
  TraceSummary summary;
  uint64_t segments_ok = 0;
  uint64_t segments_corrupt = 0;
  uint64_t bytes_read = 0;
};

/// Parses one trace file. Fails only when the file cannot be read or its
/// fixed header is missing/foreign; damage past the header degrades to
/// partial data instead of an error.
Result<TraceReadResult> ReadTraceFile(const std::string& path);

/// Reads `path` plus any rotation continuations (`path.1`, `path.2`, ...)
/// into one result, concatenating records in file order. The summary (if
/// any) is taken from the newest file that has one.
Result<TraceReadResult> ReadTraceChain(const std::string& path);

}  // namespace qsched::replay

#endif  // QSCHED_REPLAY_TRACE_FORMAT_H_
