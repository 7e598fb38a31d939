// Capture & replay subsystem tests: trace-format round trips over
// randomized records, truncation/corruption recovery, the lock-cheap
// recorder's conservation invariant under concurrent producers, the
// replay source's rank partition, replay conservation against a loopback
// server, and the shadow what-if
// planner: bit-determinism across --jobs, a pinned report over a
// tie-heavy trace, and pending events bounded by the queries in flight.
// The concurrent cases run in the TSan and ASan gates (see
// tests/CMakeLists.txt).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/server.h"
#include "obs/telemetry.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "replay/shadow_planner.h"
#include "replay/template_codec.h"
#include "replay/trace_format.h"
#include "rt/runtime.h"
#include "scheduler/service_class.h"
#include "workload/tpcc_workload.h"
#include "workload/tpch_workload.h"

namespace qsched::replay {
namespace {

// Size and Crc32 of the file TraceFileBytesPinned writes.
constexpr size_t kPinnedBytes = 84200;
constexpr uint32_t kPinnedCrc = 0x04D18BDDu;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "qsched_replay_" + name;
}

std::vector<TraceRecord> RandomRecords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<TraceRecord> records;
  records.reserve(n);
  uint64_t arrival = 0;
  for (size_t i = 0; i < n; ++i) {
    TraceRecord record;
    arrival += rng.NextU32() % 2000000;  // up to 2 ms apart
    record.arrival_ns = arrival;
    record.trace_id = i + 1;
    record.cost_timerons = static_cast<double>(rng.NextU32() % 100000);
    record.class_id = static_cast<uint16_t>(1 + rng.NextU32() % 3);
    record.template_id = static_cast<uint16_t>(
        record.class_id == 3 ? (kOltpTemplateBit | (rng.NextU32() % 5))
                             : (rng.NextU32() % 18));
    records.push_back(record);
  }
  return records;
}

Status WriteAll(const TraceWriterOptions& options,
                const std::vector<TraceRecord>& records,
                const TraceSummary* summary = nullptr) {
  Result<std::unique_ptr<TraceWriter>> opened = TraceWriter::Open(options);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<TraceWriter> writer = std::move(opened).ValueOrDie();
  for (const TraceRecord& record : records) {
    Status appended = writer->Append(record);
    if (!appended.ok()) return appended;
  }
  if (summary != nullptr) {
    Status wrote = writer->WriteSummary(*summary);
    if (!wrote.ok()) return wrote;
  }
  return writer->Close();
}

TEST(ReplayTest, TraceRoundTripRandomized) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const size_t n = 100 + seed * 357;  // straddles segment boundaries
    const std::vector<TraceRecord> records = RandomRecords(n, seed);
    const std::string path =
        TempPath("roundtrip_" + std::to_string(seed) + ".bin");

    TraceWriterOptions options;
    options.path = path;
    options.records_per_segment = 128;
    options.header.time_scale = 60.0;
    options.header.seed = seed;
    TraceSummary summary;
    summary.control_interval_seconds = 15.0;
    summary.system_cost_limit = 300000.0;
    summary.total_utility = 6.25;
    summary.allocator = 1;
    summary.classes.push_back({1, 0.5, 0.42, 120000.0});
    summary.classes.push_back({3, 1.0, 0.125, 60000.0});
    ASSERT_TRUE(WriteAll(options, records, &summary).ok());

    Result<TraceReadResult> read = ReadTraceFile(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    const TraceReadResult& result = read.ValueOrDie();
    EXPECT_EQ(result.header.time_scale, 60.0);
    EXPECT_EQ(result.header.seed, seed);
    EXPECT_EQ(result.segments_corrupt, 0u);
    ASSERT_EQ(result.records.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_TRUE(result.records[i] == records[i]) << "record " << i;
    }
    ASSERT_TRUE(result.has_summary);
    EXPECT_EQ(result.summary.control_interval_seconds, 15.0);
    EXPECT_EQ(result.summary.system_cost_limit, 300000.0);
    EXPECT_EQ(result.summary.total_utility, 6.25);
    EXPECT_EQ(result.summary.allocator, 1u);
    ASSERT_EQ(result.summary.classes.size(), 2u);
    EXPECT_EQ(result.summary.classes[1].class_id, 3u);
    EXPECT_EQ(result.summary.classes[1].measured, 0.125);
    std::remove(path.c_str());
  }
}

// A CRC-valid summary whose control interval is not finite and positive
// would reach a scheduler config: the reader drops it as corrupt and
// keeps the records.
TEST(ReplayTest, SummaryWithBadIntervalIsDropped) {
  const std::vector<TraceRecord> records = RandomRecords(300, 21);
  const std::string path = TempPath("bad_interval.bin");
  for (double interval : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(), 0.0,
                          -15.0}) {
    TraceWriterOptions options;
    options.path = path;
    TraceSummary summary;
    summary.control_interval_seconds = interval;
    summary.system_cost_limit = 300000.0;
    summary.classes.push_back({3, 1.0, 0.125, 60000.0});
    ASSERT_TRUE(WriteAll(options, records, &summary).ok());
    Result<TraceReadResult> read = ReadTraceFile(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_FALSE(read.ValueOrDie().has_summary) << interval;
    EXPECT_EQ(read.ValueOrDie().segments_corrupt, 1u) << interval;
    EXPECT_TRUE(read.ValueOrDie().records == records) << interval;
  }
  std::remove(path.c_str());
}

TEST(ReplayTest, RotationChainReadsAllFiles) {
  const std::vector<TraceRecord> records = RandomRecords(2000, 9);
  const std::string path = TempPath("rotate.bin");
  TraceWriterOptions options;
  options.path = path;
  options.records_per_segment = 100;
  options.rotate_bytes = 8 * 1024;  // forces several rotations
  ASSERT_TRUE(WriteAll(options, records).ok());

  // The base file alone holds only a prefix ...
  Result<TraceReadResult> base = ReadTraceFile(path);
  ASSERT_TRUE(base.ok());
  EXPECT_LT(base.ValueOrDie().records.size(), records.size());
  // ... the chain holds everything, in order.
  Result<TraceReadResult> chain = ReadTraceChain(path);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain.ValueOrDie().records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(chain.ValueOrDie().records[i] == records[i]);
  }
  std::remove(path.c_str());
  for (int i = 1; i < 100; ++i) {
    if (std::remove((path + "." + std::to_string(i)).c_str()) != 0) break;
  }
}

TEST(ReplayTest, TruncatedFileRecoversIntactPrefix) {
  const std::vector<TraceRecord> records = RandomRecords(1000, 11);
  const std::string path = TempPath("truncated.bin");
  TraceWriterOptions options;
  options.path = path;
  options.records_per_segment = 100;
  ASSERT_TRUE(WriteAll(options, records).ok());

  // Chop the file mid-segment: the last partial segment is dropped, the
  // intact prefix survives, and the parse still succeeds.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  const size_t cut = bytes.size() - bytes.size() / 3;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(cut));
  out.close();

  Result<TraceReadResult> read = ReadTraceFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const TraceReadResult& result = read.ValueOrDie();
  EXPECT_GT(result.records.size(), 0u);
  EXPECT_LT(result.records.size(), records.size());
  EXPECT_EQ(result.records.size() % 100, 0u);  // whole segments only
  for (size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_TRUE(result.records[i] == records[i]);
  }
  EXPECT_FALSE(result.has_summary);
  std::remove(path.c_str());
}

TEST(ReplayTest, CorruptSegmentSkippedOthersSurvive) {
  const std::vector<TraceRecord> records = RandomRecords(500, 13);
  const std::string path = TempPath("corrupt.bin");
  TraceWriterOptions options;
  options.path = path;
  options.records_per_segment = 100;
  ASSERT_TRUE(WriteAll(options, records).ok());

  // Flip one byte inside the payload of the middle segment (header is
  // 32 bytes; each segment is 20 + 100 * 28 bytes).
  const size_t segment_bytes = 20 + 100 * TraceRecord::kWireBytes;
  const size_t victim = 32 + 2 * segment_bytes + 20 + 57;
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(static_cast<std::streamoff>(victim));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(static_cast<std::streamoff>(victim));
  file.write(&byte, 1);
  file.close();

  Result<TraceReadResult> read = ReadTraceFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const TraceReadResult& result = read.ValueOrDie();
  EXPECT_EQ(result.segments_corrupt, 1u);
  ASSERT_EQ(result.records.size(), records.size() - 100);
  // Records before and after the bad segment are intact.
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(result.records[i] == records[i]);
  }
  for (size_t i = 200; i < result.records.size(); ++i) {
    EXPECT_TRUE(result.records[i] == records[i + 100]);
  }
  std::remove(path.c_str());
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// One bit at a time, straight from the polynomial: the reference the
/// table-driven Crc32 must match.
uint32_t BitwiseCrc32(const uint8_t* data, size_t len, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

TEST(ReplayTest, Crc32KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);

  Rng rng(21);
  std::vector<uint8_t> buffer(64 * 1024);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.NextU32());
  // Lengths 0-17 cover every tail size with zero, one and two 8-byte
  // steps; the offsets misalign the 8-byte loads.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 17; ++len) {
      EXPECT_EQ(Crc32(buffer.data() + offset, len),
                BitwiseCrc32(buffer.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  const uint32_t whole = Crc32(buffer.data(), buffer.size());
  EXPECT_EQ(whole, BitwiseCrc32(buffer.data(), buffer.size()));

  // Chaining through `seed` at any split point gives the one-shot value.
  const size_t n = 1000;
  const uint32_t one_shot = Crc32(buffer.data(), n);
  for (size_t split = 0; split <= n; ++split) {
    const uint32_t head = Crc32(buffer.data(), split);
    EXPECT_EQ(Crc32(buffer.data() + split, n - split, head), one_shot)
        << "split " << split;
  }
  EXPECT_EQ(Crc32(buffer.data() + 4096, buffer.size() - 4096,
                  Crc32(buffer.data(), 4096)),
            whole);
}

// The exact bytes of a fixed trace, captured from the bytewise-CRC,
// per-field codec this one replaced: any format drift fails here.
TEST(ReplayTest, TraceFileBytesPinned) {
  const std::string path = TempPath("pinned.bin");
  TraceWriterOptions options;
  options.path = path;  // default 1024 records per segment: 3 segments
  options.header.time_scale = 60.0;
  options.header.seed = 42;
  TraceSummary summary;
  summary.control_interval_seconds = 15.0;
  summary.system_cost_limit = 300000.0;
  summary.total_utility = 2.75;
  summary.allocator = 1;
  summary.classes.push_back({1, 0.5, 0.42, 120000.0});
  summary.classes.push_back({3, 1.0, 0.125, 60000.0});
  const std::vector<TraceRecord> records = RandomRecords(3000, 15);
  ASSERT_TRUE(WriteAll(options, records, &summary).ok());

  const std::vector<uint8_t> bytes = ReadBytes(path);
  EXPECT_EQ(bytes.size(), kPinnedBytes);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), kPinnedCrc);

  Result<TraceReadResult> read = ReadTraceFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie().segments_ok, 4u);
  EXPECT_TRUE(read.ValueOrDie().records == records);
  std::remove(path.c_str());
}

TEST(ReplayTest, ShortFilesRejected) {
  const std::string path = TempPath("short.bin");
  WriteBytes(path, {});
  Result<TraceReadResult> empty = ReadTraceFile(path);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // A real header cut one byte short of its 32.
  TraceWriterOptions options;
  options.path = path;
  ASSERT_TRUE(WriteAll(options, {}).ok());
  std::vector<uint8_t> bytes = ReadBytes(path);
  ASSERT_EQ(bytes.size(), 32u);
  bytes.pop_back();
  WriteBytes(path, bytes);
  Result<TraceReadResult> cut = ReadTraceFile(path);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ReplayTest, DirectoryPathIsAnError) {
  EXPECT_FALSE(ReadTraceFile(::testing::TempDir()).ok());
  EXPECT_FALSE(ReadTraceChain(::testing::TempDir()).ok());
}

TEST(ReplayTest, OversizedSegmentCountIsCorrupt) {
  const std::vector<TraceRecord> records = RandomRecords(300, 19);
  const std::string path = TempPath("oversized.bin");
  TraceWriterOptions options;
  options.path = path;
  options.records_per_segment = 100;
  ASSERT_TRUE(WriteAll(options, records).ok());

  // Forge a segment with a valid CRC over one record's 28 bytes whose
  // header claims 2^32 - 1 records, and put it before the intact ones.
  std::vector<uint8_t> payload(TraceRecord::kWireBytes, 0xAB);
  const uint32_t fields[] = {0x47455351u, 0u, 0xFFFFFFFFu,
                             static_cast<uint32_t>(payload.size()),
                             Crc32(payload.data(), payload.size())};
  std::vector<uint8_t> forged;
  for (uint32_t field : fields) {
    for (int i = 0; i < 4; ++i) {
      forged.push_back(static_cast<uint8_t>(field >> (8 * i)));
    }
  }
  forged.insert(forged.end(), payload.begin(), payload.end());
  std::vector<uint8_t> bytes = ReadBytes(path);
  bytes.insert(bytes.begin() + 32, forged.begin(), forged.end());
  WriteBytes(path, bytes);

  Result<TraceReadResult> read = ReadTraceFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const TraceReadResult& result = read.ValueOrDie();
  EXPECT_EQ(result.segments_corrupt, 1u);
  EXPECT_EQ(result.segments_ok, 3u);
  EXPECT_TRUE(result.records == records);
  // Nothing was sized from the forged count.
  EXPECT_LE(result.records.capacity(),
            bytes.size() / TraceRecord::kWireBytes);
  std::remove(path.c_str());
}

// A failed segment write (disk full) loses records, so it must not be
// forgotten by the time the capture is closed.
TEST(ReplayTest, WriterFailureSurvivesClose) {
  const std::string full = "/dev/full";
  if (!std::ifstream(full)) GTEST_SKIP() << full << " is not available";
  TraceWriterOptions options;
  options.path = full;
  options.records_per_segment = 1;
  Result<std::unique_ptr<TraceWriter>> opened = TraceWriter::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<TraceWriter> writer = std::move(opened).ValueOrDie();
  const TraceRecord record = RandomRecords(1, 23)[0];
  const Status failed = writer->Append(record);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(writer->Append(record), failed);
  EXPECT_EQ(writer->Flush(), failed);
  EXPECT_EQ(writer->WriteSummary(TraceSummary{}), failed);
  EXPECT_EQ(writer->Close(), failed);
  EXPECT_EQ(writer->Close(), failed);
  EXPECT_EQ(writer->records_written(), 0u);

  RecorderOptions recorder_options;
  recorder_options.writer = options;
  TraceRecorder recorder(recorder_options);
  ASSERT_TRUE(recorder.Start().ok());
  workload::TpccWorkload gen(workload::TpccWorkloadParams{}, 5);
  workload::Query query = gen.Next();
  query.class_id = 3;
  recorder.Record(query);
  EXPECT_FALSE(recorder.Stop().ok());
}

TEST(ReplayTest, TemplateCodecRoundTrip) {
  workload::TpchWorkloadParams tpch;
  workload::TpccWorkloadParams tpcc;
  TemplateCodec codec(tpch, tpcc, 21);
  workload::TpchWorkload olap(tpch, 99);
  workload::TpccWorkload oltp(tpcc, 98);

  for (size_t i = 0; i < olap.num_templates(); ++i) {
    workload::Query query = olap.MakeFromTemplate(i);
    query.class_id = 1;
    const uint16_t id = codec.Encode(query);
    EXPECT_EQ(id, static_cast<uint16_t>(i));
    EXPECT_EQ(codec.TemplateName(id), query.template_name);
  }
  for (size_t i = 0; i < oltp.num_transaction_types(); ++i) {
    workload::Query query = oltp.MakeTransaction(i);
    query.class_id = 3;
    const uint16_t id = codec.Encode(query);
    EXPECT_EQ(id, static_cast<uint16_t>(i | kOltpTemplateBit));
    EXPECT_EQ(codec.TemplateName(id), query.template_name);
  }

  // Materialize restores the captured class and cost estimate.
  TraceRecord record;
  record.template_id = kOltpTemplateBit | 1;
  record.class_id = 3;
  record.cost_timerons = 777.0;
  workload::Query rebuilt = codec.Materialize(record);
  EXPECT_EQ(rebuilt.class_id, 3);
  EXPECT_EQ(rebuilt.cost_timerons, 777.0);
  EXPECT_EQ(rebuilt.template_name, "payment");
}

TEST(ReplayTest, CaptureUnderLoadConservation) {
  const std::string path = TempPath("capture.bin");
  obs::Telemetry telemetry;
  RecorderOptions options;
  options.writer.path = path;
  options.writer.header.time_scale = 60.0;
  // Small buffers + a slow sweep make overflow plausible; the invariant
  // must hold with or without drops.
  options.buffer_records = 512;
  options.flush_interval_seconds = 0.005;
  TraceRecorder recorder(options, &telemetry);
  ASSERT_TRUE(recorder.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&recorder, t] {
      workload::TpccWorkload gen(workload::TpccWorkloadParams{},
                                 static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        workload::Query query = gen.Next();
        query.class_id = 3;
        query.id = static_cast<uint64_t>(t) * kPerThread +
                   static_cast<uint64_t>(i);
        recorder.Record(query);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(recorder.Stop().ok());

  const uint64_t offered =
      static_cast<uint64_t>(kThreads) * static_cast<uint64_t>(kPerThread);
  EXPECT_EQ(recorder.captured() + recorder.dropped(), offered);
  EXPECT_GT(recorder.captured(), 0u);

  // Every captured record — and only those — is on disk.
  Result<TraceReadResult> read = ReadTraceChain(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie().records.size(), recorder.captured());
  EXPECT_EQ(read.ValueOrDie().segments_corrupt, 0u);

  // The metrics agree with the recorder's own accounting.
  EXPECT_EQ(telemetry.registry
                .GetCounter("qsched_replay_captured_records_total")
                ->value(),
            static_cast<double>(recorder.captured()));
  EXPECT_EQ(telemetry.registry
                .GetCounter("qsched_replay_dropped_records_total")
                ->value(),
            static_cast<double>(recorder.dropped()));
  std::remove(path.c_str());
}

TEST(ReplayTest, RecordAfterStopCountsDropped) {
  const std::string path = TempPath("afterstop.bin");
  RecorderOptions options;
  options.writer.path = path;
  TraceRecorder recorder(options);
  ASSERT_TRUE(recorder.Start().ok());
  workload::TpccWorkload gen(workload::TpccWorkloadParams{}, 5);
  workload::Query query = gen.Next();
  query.class_id = 3;
  recorder.Record(query);
  ASSERT_TRUE(recorder.Stop().ok());
  recorder.Record(query);  // late: must not be written, must not hang
  EXPECT_EQ(recorder.captured(), 1u);
  Result<TraceReadResult> read = ReadTraceChain(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.ValueOrDie().records.size(), 1u);
  std::remove(path.c_str());
}

// A flush interval of +inf, or one too long for the clock's ticks,
// means "sweep only at Stop": the writer waits without bound instead of
// overflowing a double -> tick conversion, and Stop still wakes it at
// once and writes everything captured.
TEST(ReplayTest, UnboundedFlushIntervalStopsPromptly) {
  for (double interval : {std::numeric_limits<double>::infinity(), 1e300}) {
    const std::string path = TempPath("unbounded_flush.bin");
    RecorderOptions options;
    options.writer.path = path;
    options.flush_interval_seconds = interval;
    TraceRecorder recorder(options);
    ASSERT_TRUE(recorder.Start().ok());
    workload::TpccWorkload gen(workload::TpccWorkloadParams{}, 6);
    constexpr uint64_t kOffered = 200;
    for (uint64_t i = 0; i < kOffered; ++i) {
      workload::Query query = gen.Next();
      query.class_id = 3;
      query.id = i + 1;
      recorder.Record(query);
    }
    const auto stop_start = std::chrono::steady_clock::now();
    ASSERT_TRUE(recorder.Stop().ok()) << "interval " << interval;
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - stop_start)
                  .count(),
              5.0)
        << "interval " << interval;
    EXPECT_EQ(recorder.captured() + recorder.dropped(), kOffered)
        << "interval " << interval;
    Result<TraceReadResult> read = ReadTraceChain(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read.ValueOrDie().records.size(), recorder.captured())
        << "interval " << interval;
    std::remove(path.c_str());
  }
}

TEST(ReplayTest, ReplayLoopbackConservation) {
  obs::Telemetry telemetry;
  rt::RuntimeOptions runtime_options;
  runtime_options.time_scale = 120.0;
  runtime_options.horizon_model_seconds = 7200.0;
  runtime_options.seed = 11;
  runtime_options.gateway.queue_capacity = 8192;
  runtime_options.telemetry = &telemetry;
  rt::Runtime runtime(sched::MakePaperClasses(), runtime_options);
  runtime.Start();
  net::Server server(&runtime.gateway(), net::ServerOptions{},
                     &telemetry);
  ASSERT_TRUE(server.Start().ok());

  // A synthetic OLTP burst: 400 transactions 0.5 ms apart.
  TraceReadResult trace;
  trace.header.time_scale = 120.0;
  for (int i = 0; i < 400; ++i) {
    TraceRecord record;
    record.arrival_ns = static_cast<uint64_t>(i) * 500000;
    record.trace_id = static_cast<uint64_t>(i) + 1;
    record.cost_timerons = 50.0;
    record.class_id = 3;
    record.template_id =
        static_cast<uint16_t>(kOltpTemplateBit | (i % 5));
    trace.records.push_back(record);
  }

  ReplayOptions options;
  options.host = "127.0.0.1";
  options.port = server.port();
  options.speed = 4.0;  // 0.2 s feed -> 50 ms
  options.connections = 2;
  options.seed = 17;
  Replayer replayer(trace, options, &telemetry);
  Result<net::LoadReport> ran = replayer.Run();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  const net::LoadReport& report = ran.ValueOrDie();
  EXPECT_EQ(report.offered, 400u);
  EXPECT_EQ(report.offered, report.accepted + report.rejected());
  EXPECT_EQ(report.completed, report.accepted);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.unmatched, 0u);
  EXPECT_TRUE(report.conserved());
  EXPECT_EQ(telemetry.registry.GetCounter("qsched_replay_offered_total")
                ->value(),
            report.offered);
  EXPECT_EQ(telemetry.registry.GetCounter("qsched_replay_completed_total")
                ->value(),
            report.completed);

  server.Stop();
  runtime.Shutdown();
}

TEST(ReplayTest, TraceSourcePartitionsByRank) {
  // Arrival ranks 0..9 stored out of order; record rank r arrives at
  // r ms and costs 100 + r timerons.
  const int kRanks[10] = {7, 2, 9, 0, 5, 1, 8, 3, 6, 4};
  TraceReadResult trace;
  for (int rank : kRanks) {
    TraceRecord record;
    record.arrival_ns = 5000000 + static_cast<uint64_t>(rank) * 1000000;
    record.trace_id = static_cast<uint64_t>(rank) + 1;
    record.cost_timerons = 100.0 + rank;
    record.class_id = 3;
    record.template_id = static_cast<uint16_t>(kOltpTemplateBit | 1);
    trace.records.push_back(record);
  }
  const std::vector<const TraceRecord*> order = ArrivalOrder(trace);
  ReplayOptions options;
  options.connections = 3;
  for (int connection = 0; connection < 3; ++connection) {
    TraceSource source(order, connection, options);
    double due = -1.0;
    workload::Query query;
    for (int rank = connection; rank < 10; rank += 3) {
      ASSERT_TRUE(source.Next(&due, &query));
      EXPECT_EQ(query.cost_timerons, 100.0 + rank);
      EXPECT_DOUBLE_EQ(due, rank * 1e-3);
      EXPECT_EQ(query.client_id, connection);
    }
    EXPECT_FALSE(source.Next(&due, &query));
  }
}

TraceReadResult MixedTrace(size_t n) {
  TraceReadResult trace;
  trace.header.time_scale = 60.0;
  Rng rng(31);
  uint64_t arrival = 0;
  for (size_t i = 0; i < n; ++i) {
    TraceRecord record;
    arrival += 1000000 + rng.NextU32() % 4000000;
    record.arrival_ns = arrival;
    record.trace_id = i + 1;
    const uint32_t pick = rng.NextU32() % 100;
    if (pick < 6) {
      record.class_id = static_cast<uint16_t>(pick < 3 ? 1 : 2);
      record.template_id = static_cast<uint16_t>(rng.NextU32() % 18);
      record.cost_timerons = 5000.0 + (rng.NextU32() % 8) * 10000.0;
    } else {
      record.class_id = 3;
      record.template_id =
          static_cast<uint16_t>(kOltpTemplateBit | (rng.NextU32() % 5));
      record.cost_timerons = 40.0 + rng.NextU32() % 100;
    }
    trace.records.push_back(record);
  }
  trace.has_summary = true;
  trace.summary.control_interval_seconds = 15.0;
  trace.summary.system_cost_limit = 300000.0;
  trace.summary.allocator = 0;
  trace.summary.classes.push_back({1, 1.0, 0.55, 120000.0});
  trace.summary.classes.push_back({2, 0.5, 0.45, 120000.0});
  trace.summary.classes.push_back({3, 1.0, 0.08, 60000.0});
  return trace;
}

TEST(ReplayTest, WhatifDeterministicAcrossJobs) {
  const TraceReadResult trace = MixedTrace(600);
  ShadowPlannerOptions options;
  options.seed = 42;
  options.base.control_interval_seconds = 15.0;
  options.base.system_cost_limit = 300000.0;
  ShadowPlanner planner(trace, options);

  Result<std::vector<PlanCandidate>> parsed = ParsePlanCandidates(
      "base,interval=5,greedy,olap=20000", options.base,
      planner.classes());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<PlanCandidate>& candidates = parsed.ValueOrDie();
  ASSERT_EQ(candidates.size(), 4u);
  EXPECT_TRUE(candidates[3].frozen_plan);

  const ShadowOutcome live = planner.LiveOutcome();
  const std::vector<ShadowOutcome> serial =
      planner.Evaluate(candidates, 1);
  const std::vector<ShadowOutcome> parallel =
      planner.Evaluate(candidates, 4);
  const std::string report_serial =
      ShadowPlanner::FormatReport(&live, serial);
  const std::string report_parallel =
      ShadowPlanner::FormatReport(&live, parallel);
  EXPECT_EQ(report_serial, report_parallel);

  // Every candidate ran the whole trace and produced class outcomes.
  for (const ShadowOutcome& outcome : serial) {
    EXPECT_EQ(outcome.completed + outcome.cancelled, trace.records.size())
        << outcome.name;
    EXPECT_EQ(outcome.classes.size(), 3u);
  }
  // The frozen olap=20000 plan must never replan.
  EXPECT_EQ(serial[3].planning_cycles, 0u);
  EXPECT_GT(serial[0].planning_cycles, 0u);
}

// A trace built to stress the arrival order: every 250 ms wall offset
// (15.0 model s at time scale 60, a control-interval boundary for both
// the 15 s and the 5 s candidates) carries three arrivals at exactly the
// same arrival_ns, and a quarter of the arrivals between boundaries are
// duplicated. Records are appended out of order — each boundary's group
// after the interval it opens — so the planner's stable sort decides the
// order among ties.
TraceReadResult TiesTrace() {
  TraceReadResult trace;
  trace.header.time_scale = 60.0;
  Rng rng(77);
  uint64_t next_id = 1;
  auto add = [&trace, &next_id, &rng](uint64_t arrival_ns, bool olap) {
    TraceRecord record;
    record.arrival_ns = arrival_ns;
    record.trace_id = next_id++;
    if (olap) {
      record.class_id = static_cast<uint16_t>(1 + rng.NextU32() % 2);
      record.template_id = static_cast<uint16_t>(rng.NextU32() % 18);
      record.cost_timerons = 8000.0 + (rng.NextU32() % 6) * 12000.0;
    } else {
      record.class_id = 3;
      record.template_id =
          static_cast<uint16_t>(kOltpTemplateBit | (rng.NextU32() % 5));
      record.cost_timerons = 40.0 + rng.NextU32() % 100;
    }
    trace.records.push_back(record);
  };
  constexpr uint64_t kBaseNs = 1000000000;
  constexpr uint64_t kBoundaryNs = 250000000;
  for (uint64_t k = 0; k < 12; ++k) {
    const uint64_t boundary = kBaseNs + k * kBoundaryNs;
    for (int i = 0; i < 30; ++i) {
      const uint64_t offset_ms = 1 + rng.NextU32() % 249;
      const uint64_t arrival = boundary + offset_ms * 1000000;
      const bool olap = rng.NextU32() % 10 == 0;
      add(arrival, olap);
      if (rng.NextU32() % 4 == 0) add(arrival, !olap);
    }
    add(boundary, /*olap=*/true);
    add(boundary, /*olap=*/false);
    add(boundary, /*olap=*/false);
  }
  return trace;
}

TEST(ReplayTest, WhatifReportPinnedWithTies) {
  const TraceReadResult trace = TiesTrace();
  ShadowPlannerOptions options;
  options.seed = 42;
  options.base.control_interval_seconds = 15.0;
  options.base.system_cost_limit = 300000.0;
  ShadowPlanner planner(trace, options);
  Result<std::vector<PlanCandidate>> parsed = ParsePlanCandidates(
      "base,interval=5,greedy,olap=20000", options.base,
      planner.classes());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string report = ShadowPlanner::FormatReport(
      nullptr, planner.Evaluate(parsed.ValueOrDie(), 2));
  // Captured from the planner that scheduled every arrival up front; the
  // streamed worlds must reproduce it byte for byte, tie order included.
  const std::string expected =
      "plan base                         utility   -21.1301  completed    "
      "473  cycles   13\n"
      "  class 1: measured=0.127475 goal_ratio=0.3187 attainment=0.1042 "
      "utility=0.3187\n"
      "  class 2: measured=0.169007 goal_ratio=0.2817 attainment=0.0976 "
      "utility=-0.8733\n"
      "  class 3: measured=0.904875 goal_ratio=-1.6195 attainment=0.2308 "
      "utility=-20.5755\n"
      "plan interval:5                   utility   -20.9344  completed    "
      "473  cycles   37\n"
      "  class 1: measured=0.122503 goal_ratio=0.3063 attainment=0.0962 "
      "utility=0.3063\n"
      "  class 2: measured=0.321688 goal_ratio=0.5361 attainment=0.2000 "
      "utility=0.1446\n"
      "  class 3: measured=0.927368 goal_ratio=-1.7095 attainment=0.5556 "
      "utility=-21.3852\n"
      "plan greedy                       utility   -24.2101  completed    "
      "473  cycles   13\n"
      "  class 1: measured=0.137970 goal_ratio=0.3449 attainment=0.1400 "
      "utility=0.3449\n"
      "  class 2: measured=0.216748 goal_ratio=0.3612 attainment=0.1081 "
      "utility=-0.5550\n"
      "  class 3: measured=1.148947 goal_ratio=-2.0000 attainment=0.2308 "
      "utility=-24.0000\n"
      "plan olap:20000                   utility    -8.1052  completed    "
      "473  cycles    0\n"
      "  class 1: measured=0.086003 goal_ratio=0.2150 attainment=0.0600 "
      "utility=0.2150\n"
      "  class 2: measured=0.076661 goal_ratio=0.1278 attainment=0.0185 "
      "utility=-1.4889\n"
      "  class 3: measured=0.523092 goal_ratio=-0.0924 attainment=0.7692 "
      "utility=-6.8313\n"
      "WHATIF plan=base utility=-21.130090 completed=473 cycles=13 "
      "c1_measured=0.127475 c1_ratio=0.3187 c1_att=0.1042 "
      "c2_measured=0.169007 c2_ratio=0.2817 c2_att=0.0976 "
      "c3_measured=0.904875 c3_ratio=-1.6195 c3_att=0.2308\n"
      "WHATIF plan=interval:5 utility=-20.934389 completed=473 cycles=37 "
      "c1_measured=0.122503 c1_ratio=0.3063 c1_att=0.0962 "
      "c2_measured=0.321688 c2_ratio=0.5361 c2_att=0.2000 "
      "c3_measured=0.927368 c3_ratio=-1.7095 c3_att=0.5556\n"
      "WHATIF plan=greedy utility=-24.210088 completed=473 cycles=13 "
      "c1_measured=0.137970 c1_ratio=0.3449 c1_att=0.1400 "
      "c2_measured=0.216748 c2_ratio=0.3612 c2_att=0.1081 "
      "c3_measured=1.148947 c3_ratio=-2.0000 c3_att=0.2308\n"
      "WHATIF plan=olap:20000 utility=-8.105230 completed=473 cycles=0 "
      "c1_measured=0.086003 c1_ratio=0.2150 c1_att=0.0600 "
      "c2_measured=0.076661 c2_ratio=0.1278 c2_att=0.0185 "
      "c3_measured=0.523092 c3_ratio=-0.0924 c3_att=0.7692\n";
  EXPECT_EQ(report, expected);
}

// A world's pending events track the queries in flight: on a 20k-record
// trace the slot high-water mark stays far below the record count
// (scheduling every arrival up front made it >= the record count).
TEST(ReplayTest, WhatifPendingEventsStayBounded) {
  const TraceReadResult trace = MixedTrace(20000);
  ShadowPlannerOptions options;
  options.seed = 42;
  options.base.control_interval_seconds = 15.0;
  options.base.system_cost_limit = 300000.0;
  ShadowPlanner planner(trace, options);
  Result<std::vector<PlanCandidate>> parsed =
      ParsePlanCandidates("base", options.base, planner.classes());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ShadowOutcome outcome = planner.EvaluateOne(parsed.ValueOrDie()[0]);
  EXPECT_EQ(outcome.completed + outcome.cancelled, trace.records.size());
  EXPECT_GT(outcome.peak_pending_events, 0u);
  EXPECT_LT(outcome.peak_pending_events, trace.records.size() / 16);
}

// The planner copies what it needs from the trace, so building it from a
// temporary read result is safe (the ASan gate runs ReplayTest.*).
TEST(ReplayTest, WhatifPlannerOutlivesTemporaryTrace) {
  const TraceReadResult trace = MixedTrace(400);
  const std::string path = TempPath("temporary.bin");
  TraceWriterOptions writer;
  writer.path = path;
  writer.header.time_scale = trace.header.time_scale;
  ASSERT_TRUE(WriteAll(writer, trace.records, &trace.summary).ok());

  ShadowPlannerOptions options;
  options.seed = 42;
  options.base.control_interval_seconds = 15.0;
  options.base.system_cost_limit = 300000.0;
  const ShadowPlanner from_temporary(ReadTraceChain(path).ValueOrDie(),
                                     options);
  std::remove(path.c_str());
  const ShadowPlanner from_local(trace, options);

  Result<std::vector<PlanCandidate>> parsed = ParsePlanCandidates(
      "base,olap=20000", options.base, from_local.classes());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(from_temporary.has_live());
  const ShadowOutcome live = from_temporary.LiveOutcome();
  const ShadowOutcome expected_live = from_local.LiveOutcome();
  EXPECT_EQ(
      ShadowPlanner::FormatReport(
          &live, from_temporary.Evaluate(parsed.ValueOrDie(), 1)),
      ShadowPlanner::FormatReport(
          &expected_live, from_local.Evaluate(parsed.ValueOrDie(), 1)));
}

TEST(ReplayTest, ParsePlanCandidatesRejectsMalformed) {
  sched::QuerySchedulerConfig base;
  const sched::ServiceClassSet classes = sched::MakePaperClasses();
  EXPECT_FALSE(ParsePlanCandidates("", base, classes).ok());
  EXPECT_FALSE(ParsePlanCandidates("bogus", base, classes).ok());
  EXPECT_FALSE(ParsePlanCandidates("interval=abc", base, classes).ok());
  EXPECT_FALSE(ParsePlanCandidates("interval=-3", base, classes).ok());
  EXPECT_FALSE(ParsePlanCandidates("step=2", base, classes).ok());
  // strtod reads these; none is a usable value.
  EXPECT_FALSE(ParsePlanCandidates("interval=nan", base, classes).ok());
  EXPECT_FALSE(ParsePlanCandidates("step=nan", base, classes).ok());
  EXPECT_FALSE(ParsePlanCandidates("limit=inf", base, classes).ok());
  EXPECT_FALSE(ParsePlanCandidates("olap=nan", base, classes).ok());
  EXPECT_FALSE(ParsePlanCandidates("limit=nan", base, classes).ok());
  EXPECT_FALSE(ParsePlanCandidates("interval=inf", base, classes).ok());
  Result<std::vector<PlanCandidate>> ok = ParsePlanCandidates(
      "base,limit=250000+interval=7.5+greedy", base, classes);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie()[1].config.system_cost_limit, 250000.0);
  EXPECT_EQ(ok.ValueOrDie()[1].config.control_interval_seconds, 7.5);
  EXPECT_EQ(ok.ValueOrDie()[1].config.allocator,
            sched::QuerySchedulerConfig::Allocator::kGreedyAuction);
}

}  // namespace
}  // namespace qsched::replay
