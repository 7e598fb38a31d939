// Byte-level tests for net::Connection over socketpairs: the EOF rule
// (frames that beat the EOF are delivered first), partial-write resume
// under a tiny send buffer, sticky decode errors and frames split
// across many writes. These run in the TSan and ASan gates (see
// tests/CMakeLists.txt) because Connection owns every socket buffer on
// the serving path.

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/connection.h"
#include "net/frame.h"

namespace qsched::net {
namespace {

/// A connected AF_UNIX stream pair; [0] is wrapped by the Connection
/// under test, [1] is the raw peer.
struct SocketPair {
  SocketPair() {
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    if (fds[1] >= 0) close(fds[1]);
  }
  int fds[2] = {-1, -1};
};

void WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = write(fd, bytes.data() + sent, bytes.size() - sent);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

Frame Ping(uint64_t request_id) {
  Frame frame;
  frame.type = FrameType::kPing;
  frame.request_id = request_id;
  return frame;
}

/// Frame `i` of a deterministic mix of every body shape.
Frame MixedFrame(uint64_t i) {
  Frame frame;
  frame.request_id = i + 1;
  switch (i % 4) {
    case 0:
      frame.type = FrameType::kSubmit;
      frame.query.class_id = static_cast<int>(i % 3) + 1;
      frame.query.template_name = std::string(i % 97, 'q');
      frame.query.cost_timerons = static_cast<double>(i) * 1.5;
      break;
    case 1:
      frame.type = FrameType::kCompleted;
      frame.class_id = 3;
      frame.response_seconds = static_cast<double>(i) / 8.0;
      break;
    case 2:
      frame.type = FrameType::kError;
      frame.error_code = WireError::kBadState;
      frame.error_message = std::string(i % 200, 'e');
      break;
    default:
      frame.type = FrameType::kPing;
      break;
  }
  return frame;
}

void ExpectSameFrame(const Frame& got, const Frame& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.request_id, want.request_id);
  EXPECT_EQ(got.query.template_name, want.query.template_name);
  EXPECT_EQ(got.query.cost_timerons, want.query.cost_timerons);
  EXPECT_EQ(got.response_seconds, want.response_seconds);
  EXPECT_EQ(got.error_message, want.error_message);
}

// 64 KiB then EOF: a read that fills the whole buffer is followed by
// one that sees EOF. Every frame read before it must still come out,
// in order, and only then the close.
TEST(ConnectionTest, FramesBufferedBeforeEofAreDelivered) {
  SocketPair pair;
  std::vector<uint8_t> bytes;
  std::vector<Frame> sent;
  // PINGs until an ERROR frame's message can pad to exactly 64 KiB.
  constexpr size_t kTotal = 64 * 1024;
  constexpr size_t kErrorOverhead = 4 + 1 + 1 + 8 + 1 + 2;
  while (kTotal - bytes.size() > kErrorOverhead + kMaxErrorMessageBytes) {
    sent.push_back(Ping(sent.size() + 1));
    EncodeFrame(sent.back(), &bytes);
  }
  Frame pad;
  pad.type = FrameType::kError;
  pad.request_id = sent.size() + 1;
  pad.error_message = std::string(kTotal - bytes.size() - kErrorOverhead, 'x');
  sent.push_back(pad);
  EncodeFrame(pad, &bytes);
  ASSERT_EQ(bytes.size(), kTotal);
  WriteAll(pair.fds[1], bytes);
  ASSERT_EQ(shutdown(pair.fds[1], SHUT_WR), 0);

  Connection conn(pair.fds[0]);
  conn.Receive();
  Frame frame;
  for (const Frame& want : sent) {
    ASSERT_EQ(conn.Next(&frame), Connection::RecvStatus::kFrame)
        << "frame " << want.request_id << " lost before EOF";
    ExpectSameFrame(frame, want);
  }
  EXPECT_EQ(conn.Next(&frame), Connection::RecvStatus::kClosed);
  EXPECT_EQ(conn.error(), 0);
}

// A send buffer far smaller than the queue forces many partial writes;
// each Flush() must resume exactly where the last one stopped.
TEST(ConnectionTest, PartialWritesResumeInOrder) {
  SocketPair pair;
  int small = 4096;
  ASSERT_EQ(setsockopt(pair.fds[0], SOL_SOCKET, SO_SNDBUF, &small,
                       sizeof(small)),
            0);
  Connection conn(pair.fds[0]);
  constexpr uint64_t kFrames = 1500;
  for (uint64_t i = 0; i < kFrames; ++i) conn.Send(MixedFrame(i));

  std::vector<uint8_t> inbuf;
  uint64_t decoded = 0;
  int partial_flushes = 0;
  while (decoded < kFrames) {
    ASSERT_TRUE(conn.Flush());
    if (conn.wants_write()) ++partial_flushes;
    uint8_t chunk[61];
    ssize_t n = recv(pair.fds[1], chunk, sizeof(chunk), MSG_DONTWAIT);
    ASSERT_GT(n, 0) << "stream ended after " << decoded << " frames";
    inbuf.insert(inbuf.end(), chunk, chunk + n);
    size_t offset = 0;
    Frame frame;
    size_t consumed = 0;
    DecodeStatus status;
    while ((status = DecodeFrame(inbuf.data() + offset, inbuf.size() - offset,
                                 &frame, &consumed)) == DecodeStatus::kOk) {
      ASSERT_EQ(frame.request_id, decoded + 1);
      ExpectSameFrame(frame, MixedFrame(decoded));
      ++decoded;
      offset += consumed;
    }
    ASSERT_EQ(status, DecodeStatus::kNeedMore);
    inbuf.erase(inbuf.begin(), inbuf.begin() + static_cast<long>(offset));
  }
  EXPECT_FALSE(conn.wants_write());
  EXPECT_TRUE(inbuf.empty());
  EXPECT_GT(partial_flushes, 10);
}

// A corrupt frame ends delivery for good: the frames before it come
// out, the error is reported with the decoder's own status, and the
// valid frame queued behind it never surfaces.
TEST(ConnectionTest, CorruptFrameStopsDelivery) {
  struct Case {
    const char* name;
    DecodeStatus want;
    std::vector<uint8_t> bytes;
  };
  std::vector<uint8_t> bad_version;
  EncodeFrame(Ping(7), &bad_version);
  bad_version[4] = 0xEE;
  std::vector<uint8_t> bad_type;
  EncodeFrame(Ping(7), &bad_type);
  bad_type[5] = 0xC8;
  std::vector<uint8_t> oversized;
  Frame big = MixedFrame(0);
  big.query.template_name = std::string(200, 'o');
  EncodeFrame(big, &oversized);
  // SUBMIT whose payload covers only the header: its body is missing.
  const std::vector<uint8_t> malformed = {
      10, 0, 0, 0, kProtocolVersion, static_cast<uint8_t>(FrameType::kSubmit),
      0,  0, 0, 0, 0,                0,
      0,  7};
  const std::vector<Case> cases = {
      {"bad_version", DecodeStatus::kBadVersion, bad_version},
      {"bad_type", DecodeStatus::kBadType, bad_type},
      {"oversized", DecodeStatus::kOversized, oversized},
      {"malformed", DecodeStatus::kMalformed, malformed},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SocketPair pair;
    std::vector<uint8_t> bytes;
    EncodeFrame(Ping(1), &bytes);
    bytes.insert(bytes.end(), c.bytes.begin(), c.bytes.end());
    EncodeFrame(Ping(2), &bytes);
    WriteAll(pair.fds[1], bytes);

    Connection conn(pair.fds[0], /*max_payload=*/128);
    conn.Receive();
    Frame frame;
    ASSERT_EQ(conn.Next(&frame), Connection::RecvStatus::kFrame);
    EXPECT_EQ(frame.request_id, 1u);
    EXPECT_EQ(conn.Next(&frame), Connection::RecvStatus::kCorrupt);
    EXPECT_EQ(conn.decode_status(), c.want);
    EXPECT_EQ(conn.Next(&frame), Connection::RecvStatus::kCorrupt);
    EXPECT_EQ(frame.request_id, 1u);  // the PING behind it never decoded
  }
}

TEST(ConnectionTest, FrameSplitAcrossOneByteWritesDecodesOnce) {
  SocketPair pair;
  Connection conn(pair.fds[0]);
  const Frame want = MixedFrame(40);  // a SUBMIT with a template name
  std::vector<uint8_t> bytes;
  EncodeFrame(want, &bytes);
  Frame frame;
  int frames = 0;
  for (uint8_t byte : bytes) {
    ASSERT_EQ(write(pair.fds[1], &byte, 1), 1);
    conn.Receive();
    Connection::RecvStatus status;
    while ((status = conn.Next(&frame)) == Connection::RecvStatus::kFrame) {
      ExpectSameFrame(frame, want);
      ++frames;
    }
    EXPECT_EQ(status, Connection::RecvStatus::kIdle);
  }
  EXPECT_EQ(frames, 1);
}

}  // namespace
}  // namespace qsched::net
