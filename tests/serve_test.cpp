// Tests for the serve subsystem: the TraceStreamFeeder push-parser (every
// chunking of a TRF1/text stream reduces byte-identically to the offline
// path), the framing protocol, and the daemon end to end — concurrent-client
// soak over registry workloads (incl. scenario:*), adversarial protocol
// inputs (malformed frames, truncated handshake, abrupt disconnects), and
// the stalled-reader backpressure bound (docs/SERVE.md §4).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tracered.hpp"

#include "core/cross_rank.hpp"
#include "eval/workloads.hpp"
#include "serve/client.hpp"
#include "serve/feeder.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace/trace_codec.hpp"
#include "util/bytebuf.hpp"
#include "util/socket.hpp"

namespace tracered::serve {
namespace {

Trace smallTrace(const std::string& workload = "late_sender", double scale = 0.15) {
  eval::WorkloadOptions opts;
  opts.scale = scale;
  return eval::runWorkload(workload, opts);
}

/// The batch path's bytes for `trace` under `spec`: the reference every
/// daemon/feeder result must equal byte for byte.
std::vector<std::uint8_t> offlineReduceBytes(const Trace& trace,
                                             const std::string& spec) {
  const core::ReductionConfig config = core::ReductionConfig::fromName(spec);
  core::ReductionSession session(trace.names(), config);
  return serializeReducedTrace(session.reduce(segmentTrace(trace)).reduced);
}

/// The exception message of `fn()`; fails the test if nothing is thrown.
template <class Fn>
std::string thrownMessage(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

void expectMessageContains(const std::string& msg, const std::string& want) {
  EXPECT_NE(msg.find(want), std::string::npos) << "message was: \"" << msg << '"';
}

std::vector<std::uint8_t> feedInChunks(TraceStreamFeeder& feeder,
                                       const std::vector<std::uint8_t>& bytes,
                                       std::size_t chunk) {
  for (std::size_t off = 0; off < bytes.size(); off += chunk)
    feeder.push(bytes.data() + off, std::min(chunk, bytes.size() - off));
  return serializeReducedTrace(feeder.finishStream().reduced);
}

// ---------------------------------------------------------------- feeder --

TEST(Feeder, BinaryByteAtATimeMatchesOfflineReduce) {
  const Trace trace = smallTrace();
  const std::vector<std::uint8_t> bytes = serializeFullTrace(trace);
  const std::vector<std::uint8_t> expected = offlineReduceBytes(trace, "avgWave@0.2");

  TraceStreamFeeder feeder(core::ReductionConfig::fromName("avgWave@0.2"));
  EXPECT_EQ(feedInChunks(feeder, bytes, 1), expected);
  EXPECT_EQ(feeder.recordsFed(), trace.totalRecords());
  EXPECT_EQ(feeder.pendingBytes(), 0u);
}

TEST(Feeder, BinaryOddChunksMatchOfflineReduce) {
  const Trace trace = smallTrace();
  const std::vector<std::uint8_t> bytes = serializeFullTrace(trace);
  const std::vector<std::uint8_t> expected = offlineReduceBytes(trace, "relDiff");
  for (const std::size_t chunk :
       {std::size_t{3}, std::size_t{17}, std::size_t{1000}, bytes.size()}) {
    TraceStreamFeeder feeder(core::ReductionConfig::fromName("relDiff"));
    EXPECT_EQ(feedInChunks(feeder, bytes, chunk), expected) << "chunk " << chunk;
  }
}

TEST(Feeder, TextStreamMatchesOfflineReduceOfSameText) {
  const Trace trace = smallTrace("early_gather", 0.1);
  const std::string text = traceToText(trace);
  const std::vector<std::uint8_t> bytes(text.begin(), text.end());
  // The reference reduces exactly what the text round trip preserves.
  const std::vector<std::uint8_t> expected =
      offlineReduceBytes(traceFromText(text), "avgWave@0.2");

  TraceStreamFeeder feeder(core::ReductionConfig::fromName("avgWave@0.2"));
  EXPECT_EQ(feedInChunks(feeder, bytes, 7), expected);
}

TEST(Feeder, TruncatedBinaryStreamIsAnError) {
  const std::vector<std::uint8_t> bytes = serializeFullTrace(smallTrace());
  TraceStreamFeeder feeder(core::ReductionConfig{});
  feeder.push(bytes.data(), bytes.size() / 2);
  EXPECT_THROW(feeder.finishStream(), std::runtime_error);
}

TEST(Feeder, TrailingBytesAfterBinaryTraceAreAnError) {
  std::vector<std::uint8_t> bytes = serializeFullTrace(smallTrace());
  bytes.push_back('x');
  TraceStreamFeeder feeder(core::ReductionConfig{});
  EXPECT_THROW(feeder.push(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(Feeder, ReducedTraceInputIsRejected) {
  const Trace trace = smallTrace();
  const std::vector<std::uint8_t> trr = offlineReduceBytes(trace, "relDiff");
  TraceStreamFeeder feeder(core::ReductionConfig{});
  EXPECT_THROW(feeder.push(trr.data(), trr.size()), std::runtime_error);
}

TEST(Feeder, GarbageStreamIsRejected) {
  const std::string garbage = "definitely not a trace\n";
  TraceStreamFeeder feeder(core::ReductionConfig{});
  EXPECT_THROW(
      feeder.push(reinterpret_cast<const std::uint8_t*>(garbage.data()), garbage.size()),
      std::runtime_error);
}

TEST(Feeder, MergedTraceInputIsRejectedWithPointedMessage) {
  // A TRM1 stream is a *result* of cross-rank merging, not something the
  // daemon can reduce again: the rejection names the format it saw.
  const Trace trace = smallTrace();
  core::ReductionSession session(trace.names(),
                                 core::ReductionConfig::fromName("relDiff"));
  const auto reduced = session.reduce(segmentTrace(trace)).reduced;
  const std::vector<std::uint8_t> trm =
      serializeMergedTrace(core::mergeAcrossRanks(reduced, core::MergeOptions{}).merged);

  TraceStreamFeeder feeder(core::ReductionConfig{});
  expectMessageContains(thrownMessage([&] { feeder.push(trm.data(), trm.size()); }),
                        "cross-rank merged trace (TRM1)");
}

TEST(Feeder, UvarintOverflowIsRejectedImmediately) {
  // Regression for the varint exception-type fix: an overflowing varint
  // used to throw std::out_of_range, which the feeder reads as "incomplete
  // — wait for more bytes", so the stream stalled until the parse window
  // filled and failed with a misleading window-size error. It is malformed,
  // and must fail on the push that delivers it, naming the real problem.
  ByteWriter w;
  w.u32(codec::kFullMagic);
  w.u8(codec::kVersion);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.insert(bytes.end(), 10, 0xff);  // string-table count: overlong varint

  TraceStreamFeeder feeder(core::ReductionConfig{});
  expectMessageContains(thrownMessage([&] { feeder.push(bytes.data(), bytes.size()); }),
                        "uvarint overflows 64 bits");
}

TEST(Feeder, OutOfRangeRankIdIsRejectedByName) {
  // A TRF1 rank id of 2^32+1 used to be narrowed to rank 1 and reduced
  // silently; it is malformed (rank ids are 32-bit) and rejected on push.
  ByteWriter w;
  w.u32(codec::kFullMagic);
  w.u8(codec::kVersion);
  w.uvarint(0);                 // no strings
  w.uvarint(1);                 // one rank section...
  w.uvarint((1ull << 32) + 1);  // ...whose id does not fit a Rank
  w.uvarint(0);
  const std::vector<std::uint8_t> bytes = w.bytes();
  TraceStreamFeeder feeder(core::ReductionConfig{});
  expectMessageContains(thrownMessage([&] { feedInChunks(feeder, bytes, 3); }),
                        "rank id 4294967297 exceeds the maximum 2147483647");
}

TEST(Feeder, TextHugeDeclaredRanksIsRejected) {
  // The text format's declared-ranks cap guards the serve daemon too: a
  // 20-byte hostile header must not cost count-proportional memory.
  const std::string text = "# tracered text trace v1\nranks 2000000000\n";
  TraceStreamFeeder feeder(core::ReductionConfig{});
  expectMessageContains(
      thrownMessage([&] {
        feeder.push(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
      }),
      "exceeds the text format's maximum");
}

// -------------------------------------------------------------- protocol --

TEST(Protocol, FrameRoundTripAndPartialExtraction) {
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  appendFrame(wire, FrameType::kData, payload);

  // Every strict prefix is "incomplete", never an error.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::size_t consumed = 9999;
    EXPECT_FALSE(tryExtractFrame(wire.data(), len, consumed).has_value());
  }
  std::size_t consumed = 0;
  const std::optional<Frame> f = tryExtractFrame(wire.data(), wire.size(), consumed);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(f->type, FrameType::kData);
  EXPECT_EQ(f->payload, payload);
}

TEST(Protocol, MalformedFrameHeadersThrow) {
  std::size_t consumed = 0;
  const std::uint8_t zeroLen[5] = {0, 0, 0, 0, 0x02};
  EXPECT_THROW(tryExtractFrame(zeroLen, sizeof zeroLen, consumed), std::runtime_error);
  const std::uint8_t huge[5] = {0xff, 0xff, 0xff, 0xff, 0x02};
  EXPECT_THROW(tryExtractFrame(huge, sizeof huge, consumed), std::runtime_error);
}

TEST(Protocol, FrameTypeConfusionNamesThePayload) {
  // A WELCOME body handed to the HELLO decoder (the daemon's first-frame
  // confusion case) fails on the magic, not by misreading fields as magic.
  WelcomePayload welcome{};
  welcome.windowBytes = kDefaultWindowBytes;
  expectMessageContains(thrownMessage([&] { decodeHello(encodeWelcome(welcome)); }),
                        "HELLO missing the TRSV magic");

  // A HELLO body handed to the ACK decoder: ACK is exactly eight bytes, so
  // the trailing config spelling is rejected rather than silently dropped.
  HelloPayload hello;
  hello.config = "avgWave@0.2";
  expectMessageContains(thrownMessage([&] { decodeAck(encodeHello(hello)); }),
                        "trailing bytes in ACK");
}

TEST(Protocol, HelloAndStatsRoundTrip) {
  HelloPayload hello;
  hello.config = "avgWave@0.2";
  const HelloPayload back = decodeHello(encodeHello(hello));
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.config, "avgWave@0.2");

  const std::vector<std::pair<std::string, std::string>> rows = {
      {"records", "123"}, {"file %", "12.3%"}};
  EXPECT_EQ(decodeStats(encodeStats(rows)), rows);
}

// ---------------------------------------------------------------- daemon --

std::string freshUnixAddr() {
  static std::atomic<int> counter{0};
  return "unix:/tmp/tracered_serve_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

/// A daemon on a background thread, stopped and joined on scope exit.
class RunningServer {
 public:
  explicit RunningServer(ServerOptions options)
      : server_(std::move(options)), thread_([this] { server_.run(); }) {}
  ~RunningServer() {
    server_.stop();
    thread_.join();
  }
  Server* operator->() { return &server_; }

 private:
  Server server_;
  std::thread thread_;
};

ServerOptions unixOptions(std::size_t windowBytes = kDefaultWindowBytes) {
  ServerOptions o;
  o.listenAddrs = {freshUnixAddr()};
  o.windowBytes = windowBytes;
  return o;
}

/// Hand-rolled protocol speaker for the adversarial tests (the real client
/// refuses to misbehave).
class RawClient {
 public:
  explicit RawClient(const std::string& addr)
      : fd_(util::connectSocket(addr, /*retryMs=*/2000)) {}

  int fd() const { return fd_.get(); }

  void sendBytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const util::IoResult r =
          util::writeSome(fd_.get(), bytes.data() + off, bytes.size() - off);
      ASSERT_EQ(r.status, util::IoStatus::kOk) << "peer closed while sending";
      off += r.n;
    }
  }

  void sendFrame(FrameType type, const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> wire;
    appendFrame(wire, type, payload);
    sendBytes(wire);
  }

  /// Next frame, or nullopt on EOF (blocking).
  std::optional<Frame> recvFrame() {
    for (;;) {
      std::size_t consumed = 0;
      std::optional<Frame> f =
          tryExtractFrame(buf_.data() + off_, buf_.size() - off_, consumed);
      if (f) {
        off_ += consumed;
        return f;
      }
      std::uint8_t chunk[4096];
      const util::IoResult r = util::readSome(fd_.get(), chunk, sizeof chunk);
      if (r.status != util::IoStatus::kOk) return std::nullopt;
      buf_.insert(buf_.end(), chunk, chunk + r.n);
    }
  }

  void close() { fd_.reset(); }

 private:
  util::Fd fd_;
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
};

/// Waits for an ERROR frame whose message contains `needle`; fails the test
/// on EOF without one.
void expectErrorContaining(RawClient& client, const std::string& needle) {
  std::optional<Frame> f;
  while ((f = client.recvFrame())) {
    if (f->type != FrameType::kError) continue;
    const std::string message = decodeError(f->payload);
    EXPECT_NE(message.find(needle), std::string::npos)
        << "ERROR message was: " << message;
    return;
  }
  FAIL() << "connection closed without an ERROR frame (wanted one containing '"
         << needle << "')";
}

TEST(ServeDaemon, UnixRoundTripIsByteIdenticalToOfflineReduce) {
  const Trace trace = smallTrace();
  const std::vector<std::uint8_t> bytes = serializeFullTrace(trace);
  const std::vector<std::uint8_t> expected = offlineReduceBytes(trace, "avgWave@0.2");

  RunningServer server(unixOptions());
  const std::string addr = server->boundAddresses().at(0);
  const RemoteReduceResult rr =
      reduceRemote(addr, "avgWave@0.2", bytes.data(), bytes.size(), 2000);

  EXPECT_EQ(rr.trrBytes, expected);
  EXPECT_EQ(rr.windowBytes, kDefaultWindowBytes);
  bool sawRecords = false;
  for (const auto& [key, value] : rr.statsRows)
    if (key == "records") {
      sawRecords = true;
      EXPECT_EQ(value, std::to_string(trace.totalRecords()));
    }
  EXPECT_TRUE(sawRecords) << "STATS rows missing 'records'";
}

TEST(ServeDaemon, TcpRoundTripViaKernelAssignedPort) {
  const Trace trace = smallTrace("late_receiver", 0.1);
  const std::vector<std::uint8_t> bytes = serializeFullTrace(trace);
  const std::vector<std::uint8_t> expected = offlineReduceBytes(trace, "relDiff");

  ServerOptions options;
  options.listenAddrs = {"tcp:127.0.0.1:0"};
  RunningServer server(std::move(options));
  const std::string addr = server->boundAddresses().at(0);
  ASSERT_NE(addr, "tcp:127.0.0.1:0") << "port 0 must resolve to the real port";

  const RemoteReduceResult rr =
      reduceRemote(addr, "relDiff", bytes.data(), bytes.size(), 2000);
  EXPECT_EQ(rr.trrBytes, expected);
}

TEST(ServeDaemon, TextTraceStreamsRemotelyToo) {
  const Trace trace = smallTrace("early_gather", 0.1);
  const std::string text = traceToText(trace);
  const std::vector<std::uint8_t> bytes(text.begin(), text.end());
  const std::vector<std::uint8_t> expected =
      offlineReduceBytes(traceFromText(text), "avgWave@0.2");

  RunningServer server(unixOptions());
  const RemoteReduceResult rr = reduceRemote(server->boundAddresses().at(0),
                                             "avgWave@0.2", bytes.data(), bytes.size());
  EXPECT_EQ(rr.trrBytes, expected);
}

TEST(ServeDaemon, SoakManyConcurrentClientsAllByteIdentical) {
  // K >= 8 concurrent producers over distinct registry workloads (including
  // scenario:* generators) and mixed configs, all against ONE daemon sharing
  // ONE executor — the acceptance soak. Each client makes several round
  // trips, so the daemon also serves connections that arrive after earlier
  // ones closed.
  const std::vector<std::pair<std::string, std::string>> jobs = {
      {"late_sender", "avgWave@0.2"},
      {"late_receiver", "relDiff"},
      {"early_gather", "avgWave@0.2"},
      {"late_sender", "relDiff"},
      {"scenario:bursty_phases", "avgWave@0.2"},
      {"scenario:bursty_phases", "relDiff"},
      {"late_receiver", "avgWave@0.2"},
      {"early_gather", "relDiff"},
  };
  ASSERT_GE(jobs.size(), 8u);
  constexpr std::size_t kTrips = 3;

  struct Prepared {
    std::vector<std::uint8_t> trf;
    std::vector<std::uint8_t> expected;
    std::string config;
  };
  std::vector<Prepared> prepared(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Trace trace = smallTrace(jobs[i].first, 0.1);
    prepared[i] = {serializeFullTrace(trace), offlineReduceBytes(trace, jobs[i].second),
                   jobs[i].second};
  }

  RunningServer server(unixOptions());
  const std::string addr = server->boundAddresses().at(0);

  std::vector<std::thread> clients;
  std::vector<std::string> failures(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    clients.emplace_back([&, i] {
      try {
        for (std::size_t trip = 0; trip < kTrips && failures[i].empty(); ++trip) {
          const RemoteReduceResult rr =
              reduceRemote(addr, prepared[i].config, prepared[i].trf.data(),
                           prepared[i].trf.size(), 5000);
          if (rr.trrBytes != prepared[i].expected)
            failures[i] = "trip " + std::to_string(trip) +
                          ": daemon bytes differ from offline reduce";
        }
      } catch (const std::exception& e) {
        failures[i] = e.what();
      }
    });
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_TRUE(failures[i].empty())
        << jobs[i].first << " / " << jobs[i].second << ": " << failures[i];
  const Server::Metrics m = server->metrics();
  EXPECT_EQ(m.tracesServed, jobs.size() * kTrips);
  EXPECT_EQ(m.protocolErrors, 0u);
}

TEST(ServeDaemon, NonHelloFirstFrameIsAnError) {
  RunningServer server(unixOptions());
  RawClient client(server->boundAddresses().at(0));
  client.sendFrame(FrameType::kData, {1, 2, 3});
  expectErrorContaining(client, "expected HELLO");
}

TEST(ServeDaemon, BadHelloMagicIsAnError) {
  RunningServer server(unixOptions());
  RawClient client(server->boundAddresses().at(0));
  std::vector<std::uint8_t> payload = encodeHello({kProtocolVersion, "relDiff"});
  payload[0] ^= 0xff;  // corrupt the magic
  client.sendFrame(FrameType::kHello, payload);
  expectErrorContaining(client, "magic");
}

TEST(ServeDaemon, VersionMismatchNamesBothVersions) {
  RunningServer server(unixOptions());
  RawClient client(server->boundAddresses().at(0));
  client.sendFrame(FrameType::kHello,
                   encodeHello({static_cast<std::uint16_t>(999), "relDiff"}));
  expectErrorContaining(client, "version mismatch");
}

TEST(ServeDaemon, UnknownConfigSpellingReportsServerError) {
  RunningServer server(unixOptions());
  RawClient client(server->boundAddresses().at(0));
  client.sendFrame(FrameType::kHello, encodeHello({kProtocolVersion, "avgWav@0.2"}));
  expectErrorContaining(client, "avgWav");
  EXPECT_GE(server->metrics().protocolErrors, 1u);
}

TEST(ServeDaemon, MalformedFrameHeaderIsAnError) {
  RunningServer server(unixOptions());
  RawClient client(server->boundAddresses().at(0));
  // Length prefix far above kMaxFramePayload: must be rejected as a protocol
  // error, never allocated.
  client.sendBytes({0xff, 0xff, 0xff, 0xff, 0x01});
  expectErrorContaining(client, "exceeds");
}

TEST(ServeDaemon, MalformedTracePayloadIsAnError) {
  RunningServer server(unixOptions());
  RawClient client(server->boundAddresses().at(0));
  client.sendFrame(FrameType::kHello, encodeHello({kProtocolVersion, "relDiff"}));
  std::optional<Frame> welcome = client.recvFrame();
  ASSERT_TRUE(welcome && welcome->type == FrameType::kWelcome);
  const std::string garbage = "definitely not a trace\n";
  client.sendFrame(FrameType::kData,
                   std::vector<std::uint8_t>(garbage.begin(), garbage.end()));
  expectErrorContaining(client, "unrecognized");
}

TEST(ServeDaemon, TruncatedHandshakeThenDisconnectLeavesServerHealthy) {
  RunningServer server(unixOptions());
  const std::string addr = server->boundAddresses().at(0);
  {
    RawClient client(addr);
    client.sendBytes({0x0a, 0x00});  // 2 bytes of a frame header, then gone
    client.close();
  }
  {
    RawClient client(addr);
    client.close();  // connect-and-vanish
  }

  // A healthy client right after must be served normally.
  const Trace trace = smallTrace();
  const std::vector<std::uint8_t> bytes = serializeFullTrace(trace);
  const RemoteReduceResult rr =
      reduceRemote(addr, "relDiff", bytes.data(), bytes.size(), 2000);
  EXPECT_EQ(rr.trrBytes, offlineReduceBytes(trace, "relDiff"));
  EXPECT_EQ(server->metrics().protocolErrors, 0u);
}

TEST(ServeDaemon, AbruptDisconnectMidStreamLeavesServerHealthy) {
  const Trace trace = smallTrace();
  const std::vector<std::uint8_t> bytes = serializeFullTrace(trace);

  RunningServer server(unixOptions());
  const std::string addr = server->boundAddresses().at(0);
  {
    RawClient client(addr);
    client.sendFrame(FrameType::kHello, encodeHello({kProtocolVersion, "relDiff"}));
    std::optional<Frame> welcome = client.recvFrame();
    ASSERT_TRUE(welcome && welcome->type == FrameType::kWelcome);
    const std::size_t firstChunk = std::min<std::size_t>(bytes.size() / 2, 4096);
    client.sendFrame(FrameType::kData,
                     std::vector<std::uint8_t>(
                         bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(
                                                            firstChunk)));
    client.close();  // vanish mid-stream
  }

  const RemoteReduceResult rr =
      reduceRemote(addr, "relDiff", bytes.data(), bytes.size(), 2000);
  EXPECT_EQ(rr.trrBytes, offlineReduceBytes(trace, "relDiff"));
}

TEST(ServeDaemon, StalledReaderBackpressureCapsBufferedBytes) {
  // A producer that blasts DATA but refuses to read ACKs: the server must
  // stop reading once ~window un-sent output accumulates, so per-connection
  // memory stays O(window) no matter how much the client ships. Window is
  // tiny (4 KiB) so acks pile up fast; the trace is far larger than every
  // allowed buffer combined. Dense acks (one per DATA frame) plus a shrunken
  // server SO_SNDBUF make the pause engage within the first ~100 KiB instead
  // of after the megabytes a default kernel socket buffer would absorb.
  const std::size_t window = 4096;
  const Trace trace = smallTrace("late_sender", 4.0);
  const std::vector<std::uint8_t> bytes = serializeFullTrace(trace);
  ASSERT_GT(bytes.size(), 20 * window) << "trace too small to prove the bound";
  const std::vector<std::uint8_t> expected = offlineReduceBytes(trace, "relDiff");

  ServerOptions options = unixOptions(window);
  options.ackEveryBytes = 1;
  options.sendBufferBytes = 4096;
  RunningServer server(options);
  RawClient client(server->boundAddresses().at(0));
  client.sendFrame(FrameType::kHello, encodeHello({kProtocolVersion, "relDiff"}));
  std::optional<Frame> welcome = client.recvFrame();
  ASSERT_TRUE(welcome && welcome->type == FrameType::kWelcome);
  EXPECT_EQ(decodeWelcome(welcome->payload).windowBytes, window);

  // Frame the whole trace up front in small DATA frames (each earns a
  // 13-byte ACK, so un-drained output grows at ~1/5 the streamed rate);
  // write without ever reading.
  const std::size_t payloadPer = 64;
  std::vector<std::uint8_t> wire;
  for (std::size_t off = 0; off < bytes.size(); off += payloadPer)
    appendFrame(wire, FrameType::kData, bytes.data() + off,
                std::min(payloadPer, bytes.size() - off));
  appendFrame(wire, FrameType::kEnd, nullptr, 0);

  // Shrink this side's send buffer too, or the blast would fit in the
  // default ~200 KiB kernel buffer and never observe the stall.
  const int sndbuf = 4096;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
  util::setNonBlocking(client.fd());
  std::size_t sent = 0;
  int stalls = 0;
  while (sent < wire.size() && stalls < 40) {
    const util::IoResult r =
        util::writeSome(client.fd(), wire.data() + sent, wire.size() - sent);
    if (r.status == util::IoStatus::kOk) {
      sent += r.n;
      stalls = 0;
    } else {
      ASSERT_EQ(r.status, util::IoStatus::kWouldBlock);
      ++stalls;  // server paused reading: the backpressure path engaged
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(stalls, 40) << "writer never stalled: backpressure did not engage";
  ASSERT_LT(sent, wire.size());

  // The bound: input ring + undecoded parse tail + un-sent output, each
  // capped at `window`, plus the acks one full ring of tiny frames can mint
  // after the pause gate last passed (~ring/69 frames x 13 bytes < window/2).
  const std::size_t bound = 3 * window + window / 2;
  EXPECT_LE(server->metrics().peakConnBufferedBytes, bound);

  // Recovery: start draining ACKs while finishing the send — the reply must
  // still be byte-identical to the offline reduce.
  std::vector<std::uint8_t> reply;
  std::vector<std::uint8_t> trr;
  bool statsSeen = false, endSeen = false;
  std::uint64_t lastAck = 0;
  std::size_t replyOff = 0;
  while (!endSeen) {
    pollfd p{client.fd(),
             static_cast<short>(sent < wire.size() ? POLLIN | POLLOUT : POLLIN), 0};
    ASSERT_GE(::poll(&p, 1, 10000), 0);
    if (sent < wire.size() && (p.revents & POLLOUT)) {
      const util::IoResult r =
          util::writeSome(client.fd(), wire.data() + sent, wire.size() - sent);
      if (r.status == util::IoStatus::kOk) sent += r.n;
    }
    if ((p.revents & (POLLIN | POLLHUP)) == 0) continue;
    std::uint8_t chunk[4096];
    const util::IoResult r = util::readSome(client.fd(), chunk, sizeof chunk);
    if (r.status == util::IoStatus::kWouldBlock) continue;
    ASSERT_EQ(r.status, util::IoStatus::kOk) << "server closed before END";
    reply.insert(reply.end(), chunk, chunk + r.n);
    for (;;) {
      std::size_t consumed = 0;
      std::optional<Frame> f =
          tryExtractFrame(reply.data() + replyOff, reply.size() - replyOff, consumed);
      if (!f) break;
      replyOff += consumed;
      switch (f->type) {
        case FrameType::kAck: {
          const std::uint64_t ack = decodeAck(f->payload);
          EXPECT_GE(ack, lastAck) << "ACK sequence numbers must be cumulative";
          lastAck = ack;
          break;
        }
        case FrameType::kStats:
          statsSeen = true;
          break;
        case FrameType::kResult:
          trr.insert(trr.end(), f->payload.begin(), f->payload.end());
          break;
        case FrameType::kEnd:
          endSeen = true;
          break;
        case FrameType::kError:
          FAIL() << "server error: " << decodeError(f->payload);
        default:
          FAIL() << "unexpected frame " << frameTypeName(f->type);
      }
    }
  }
  EXPECT_EQ(sent, wire.size());
  EXPECT_TRUE(statsSeen);
  EXPECT_EQ(lastAck, bytes.size());
  EXPECT_EQ(trr, expected);
}

TEST(ServeDaemon, MaxTracesStopsTheServerAfterServing) {
  const Trace trace = smallTrace();
  const std::vector<std::uint8_t> bytes = serializeFullTrace(trace);

  ServerOptions options = unixOptions();
  options.maxTraces = 1;
  Server server(std::move(options));
  std::thread t([&] { server.run(); });
  const RemoteReduceResult rr = reduceRemote(server.boundAddresses().at(0), "relDiff",
                                             bytes.data(), bytes.size(), 2000);
  t.join();  // run() must return on its own after the one trace
  EXPECT_EQ(rr.trrBytes, offlineReduceBytes(trace, "relDiff"));
  EXPECT_EQ(server.metrics().tracesServed, 1u);
}

}  // namespace
}  // namespace tracered::serve
