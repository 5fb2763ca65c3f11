// Wire-path batching tests (DESIGN.md §8): write_batch and FrameReader
// over real loopback TCP. Frames written one at a time and frames
// coalesced into one sendmsg are the same bytes, and FrameReader decodes
// both in bulk; the robustness cases cover corruption and truncation.
#include "net/framing.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "message/codec.h"
#include "net_test_util.h"

namespace iov {
namespace {

struct Pair {
  TcpConn client;
  TcpConn server;
};

Pair make_pair() {
  auto listener = TcpListener::listen(0);
  EXPECT_TRUE(listener.has_value());
  auto client =
      TcpConn::connect(NodeId::loopback(listener->port()), seconds(1.0));
  EXPECT_TRUE(client.has_value());
  EXPECT_TRUE(test::wait_readable(listener->fd(), seconds(1.0)));
  auto server = listener->accept();
  EXPECT_TRUE(server.has_value());
  EXPECT_TRUE(server->set_nonblocking(false));  // the tests read blocking
  return Pair{std::move(*client), std::move(*server)};
}

std::vector<MsgPtr> make_msgs(std::size_t n, std::size_t payload_bytes) {
  std::vector<MsgPtr> msgs;
  msgs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    msgs.push_back(Msg::data(NodeId::loopback(1), 7, static_cast<u32>(i),
                             payload_bytes == 0
                                 ? Buffer::empty_buffer()
                                 : Buffer::pattern(payload_bytes,
                                                   static_cast<u32>(i))));
  }
  return msgs;
}

void expect_same_payload(const MsgPtr& got, const MsgPtr& want) {
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->seq(), want->seq());
  ASSERT_EQ(got->payload_size(), want->payload_size());
  EXPECT_EQ(got->payload()->view(), want->payload()->view());
}

// --- Single and batched writes decode the same stream ---------------------

TEST(WireBatch, BatchCoalescesUpTo32FramesPerSendmsg) {
  auto pair = make_pair();
  const auto msgs = make_msgs(50, 100);
  u64 syscalls = 0;
  ASSERT_TRUE(write_batch(pair.client, msgs.data(), msgs.size(), &syscalls));
  // 50 messages coalesce into ceil(50/32) = 2 sendmsg calls.
  EXPECT_LE(syscalls, 4u);
  EXPECT_GE(syscalls, 2u);
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  for (const auto& want : msgs) {
    expect_same_payload(reader.next(), want);
  }
}

TEST(WireBatch, SingleFrameWritesReadInBulk) {
  auto pair = make_pair();
  const auto msgs = make_msgs(50, 100);
  for (const auto& m : msgs) ASSERT_TRUE(test::write_frame(pair.client, m));
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  for (const auto& want : msgs) {
    expect_same_payload(reader.next(), want);
  }
  EXPECT_EQ(reader.msgs(), 50u);
  // All ~6 KB sit in the socket buffer: far fewer recv calls than frames.
  EXPECT_LT(reader.syscalls(), 50u);
}

TEST(WireBatch, BatchedWriteReadByFrameReader) {
  auto pair = make_pair();
  const auto msgs = make_msgs(64, 200);
  ASSERT_TRUE(write_batch(pair.client, msgs.data(), msgs.size()));
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  for (const auto& want : msgs) {
    expect_same_payload(reader.next(), want);
  }
}

TEST(WireBatch, ZeroPayloadMessages) {
  auto pair = make_pair();
  const auto msgs = make_msgs(10, 0);
  ASSERT_TRUE(write_batch(pair.client, msgs.data(), msgs.size()));
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  for (const auto& want : msgs) {
    MsgPtr got = reader.next();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->seq(), want->seq());
    EXPECT_EQ(got->payload_size(), 0u);
  }
}

TEST(WireBatch, SingleMessageBatchIsOneSendmsg) {
  auto pair = make_pair();
  const auto msgs = make_msgs(1, 333);
  u64 syscalls = 0;
  ASSERT_TRUE(write_batch(pair.client, msgs.data(), 1, &syscalls));
  EXPECT_EQ(syscalls, 1u);
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  expect_same_payload(reader.next(), msgs[0]);
}

// --- FrameReader internals: chunk reuse, compaction, slices ---------------

TEST(FrameReader, FramesStraddlingChunkBoundaries) {
  auto pair = make_pair();
  // 124-byte frames against a 256-byte chunk: nearly every frame straddles
  // a refill, and holding all payloads alive forces the fresh-chunk
  // compaction path (the drained-chunk rewind is never available).
  const auto msgs = make_msgs(40, 100);
  ASSERT_TRUE(write_batch(pair.client, msgs.data(), msgs.size()));
  SlabPool pool;
  FrameReader reader(pair.server, pool, 256);
  std::vector<MsgPtr> got;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    got.push_back(reader.next());
    ASSERT_NE(got.back(), nullptr);
  }
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    expect_same_payload(got[i], msgs[i]);
    EXPECT_TRUE(got[i]->payload()->is_slice());
  }
}

TEST(FrameReader, BufferedReflectsDecodableFrames) {
  auto pair = make_pair();
  const auto msgs = make_msgs(8, 128);
  ASSERT_TRUE(write_batch(pair.client, msgs.data(), msgs.size()));
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  EXPECT_FALSE(reader.buffered());  // nothing received yet
  expect_same_payload(reader.next(), msgs[0]);
  // The first refill pulled the whole ~1.2 KB batch from the socket: the
  // remaining frames must decode without another syscall, and buffered()
  // must say so.
  EXPECT_TRUE(reader.buffered());
  const u64 syscalls = reader.syscalls();
  for (std::size_t i = 1; i < msgs.size(); ++i) {
    expect_same_payload(reader.next(), msgs[i]);
  }
  EXPECT_EQ(reader.syscalls(), syscalls);
  EXPECT_FALSE(reader.buffered());  // stream drained
}

TEST(FrameReader, SlicesOutliveTheReader) {
  auto pair = make_pair();
  const auto msgs = make_msgs(5, 64);
  ASSERT_TRUE(write_batch(pair.client, msgs.data(), msgs.size()));
  std::vector<MsgPtr> got;
  {
    SlabPool pool;
    FrameReader reader(pair.server, pool);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      got.push_back(reader.next());
      ASSERT_NE(got.back(), nullptr);
    }
  }  // reader (and its chunk handle) destroyed; slices keep the chunk alive
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    expect_same_payload(got[i], msgs[i]);
  }
}

// --- Large-frame edges: chunk-size boundaries, pooled slabs ---------------

TEST(FrameReader, FrameExactlyAtChunkSizeStaysOnSlicePath) {
  auto pair = make_pair();
  // total = 24 + 232 = 256 == chunk: not *larger* than the chunk, so the
  // frame must decode as a chunk slice, not via read_large.
  const auto at = make_msgs(1, 256 - Msg::kHeaderSize);
  const auto after = make_msgs(1, 32);
  std::thread writer([&] {
    EXPECT_TRUE(test::write_frame(pair.client, at[0]));
    EXPECT_TRUE(test::write_frame(pair.client, after[0]));
  });
  SlabPool pool;
  FrameReader reader(pair.server, pool, 256);
  MsgPtr got = reader.next();
  expect_same_payload(got, at[0]);
  EXPECT_TRUE(got->payload()->is_slice());
  // One acquire: the receive chunk the frame was sliced from. The
  // large-frame path would have taken a second slab for the payload.
  EXPECT_EQ(pool.hits() + pool.misses(), 1u);
  expect_same_payload(reader.next(), after[0]);
  writer.join();
}

TEST(FrameReader, FrameOneByteOverChunkTakesThePooledLargePath) {
  auto pair = make_pair();
  const auto over = make_msgs(1, 256 - Msg::kHeaderSize + 1);
  std::thread writer(
      [&] { EXPECT_TRUE(test::write_frame(pair.client, over[0])); });
  SlabPool pool;
  FrameReader reader(pair.server, pool, 256);
  MsgPtr got = reader.next();
  expect_same_payload(got, over[0]);
  EXPECT_TRUE(got->payload()->is_slice());  // slab-backed view
  // Two slabs: the receive chunk and the payload's own slab.
  EXPECT_EQ(pool.misses(), 2u);
  // The payload owns its slab rather than a slice of the chunk the
  // reader still holds: releasing it parks exactly one slab.
  got.reset();
  EXPECT_EQ(pool.free_bytes(), SlabPool::kMinSlabBytes);
  writer.join();
}

TEST(FrameReader, LargeHeaderStraddlingSlicedChunkCarryOver) {
  auto pair = make_pair();
  // A 220-byte-payload frame occupies 244 of the 256-byte chunk; the
  // following large frame's header straddles the boundary: 12 bytes land
  // in the (already sliced) chunk tail, the rest arrives after the
  // fresh-chunk carry-over. The large payload must still decode intact.
  const auto small = make_msgs(1, 220);
  const auto big = make_msgs(1, 1000);
  std::thread writer([&] {
    EXPECT_TRUE(test::write_frame(pair.client, small[0]));
    EXPECT_TRUE(test::write_frame(pair.client, big[0]));
  });
  SlabPool pool;
  FrameReader reader(pair.server, pool, 256);
  MsgPtr got_small = reader.next();
  expect_same_payload(got_small, small[0]);
  EXPECT_TRUE(got_small->payload()->is_slice());
  MsgPtr got_big = reader.next();
  expect_same_payload(got_big, big[0]);
  // The sliced small payload must stay intact after the carry-over.
  expect_same_payload(got_small, small[0]);
  writer.join();
}

TEST(FrameReader, LargeFramesInterleavedWithSlicedSmallFrames) {
  auto pair = make_pair();
  std::vector<MsgPtr> msgs;
  for (std::size_t i = 0; i < 10; ++i) {
    auto batch = make_msgs(1, i % 2 == 0 ? 100 : 1000);
    msgs.push_back(batch[0]);
  }
  // The whole ~5.7 KB stream is queued before the first read, so every
  // recv returns what it asks for and the acquire count is exact.
  for (const auto& m : msgs) ASSERT_TRUE(test::write_frame(pair.client, m));
  SlabPool pool;
  FrameReader reader(pair.server, pool, 256);
  std::vector<MsgPtr> got;  // hold all payloads live across the stream
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    got.push_back(reader.next());
    ASSERT_NE(got.back(), nullptr) << "frame " << i;
  }
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    expect_same_payload(got[i], msgs[i]);
    EXPECT_TRUE(got[i]->payload()->is_slice());
  }
  // Each small frame was sliced from its own chunk (the large frame
  // after it drains the chunk), and all five large frames were
  // pool-served: ten slabs. With every payload held live, no slab could
  // recycle, so each acquire was a miss.
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 10u);
  // Releasing the payloads returns every slab to the freelist except the
  // chunk the reader still holds.
  got.clear();
  EXPECT_EQ(pool.free_bytes(), 9u * SlabPool::kMinSlabBytes);
}

TEST(FrameReader, SteadyLargeStreamRecyclesOneSlab) {
  auto pair = make_pair();
  const auto msgs = make_msgs(20, 1000);
  std::thread writer([&] {
    for (const auto& m : msgs) EXPECT_TRUE(test::write_frame(pair.client, m));
  });
  SlabPool pool;
  FrameReader reader(pair.server, pool, 256);
  for (const auto& want : msgs) {
    // Release each payload before reading the next — the steady state of
    // a switch that forwards and drops its reference.
    expect_same_payload(reader.next(), want);
  }
  // Two allocations for the whole stream: the receive chunk, which only
  // ever holds headers and so is rewound in place, and one payload slab
  // that each frame recycles.
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.hits(), 19u);
  writer.join();
}

// --- Receive chunks: pool slabs sized to the load -------------------------

TEST(FrameReader, OneFramePerRecvRecyclesSmallChunks) {
  auto pair = make_pair();
  const auto msgs = make_msgs(1000, 1000);
  SlabPool pool;
  {
    FrameReader reader(pair.server, pool);
    for (const auto& want : msgs) {
      // One frame in the socket per read, each payload released before
      // the next: a low-rate link.
      ASSERT_TRUE(test::write_frame(pair.client, want));
      expect_same_payload(reader.next(), want);
    }
    EXPECT_EQ(reader.syscalls(), msgs.size());
  }
  // A chunk takes frames until it has no room for another, so the reader
  // acquires at most one chunk per two frames; it alternates between two
  // chunks, and every chunk it ever took was a small slab.
  EXPECT_LE(pool.misses(), 2u);
  EXPECT_LE(pool.hits() + pool.misses(), msgs.size() / 2);
  EXPECT_EQ(pool.free_bytes(), pool.misses() * SlabPool::kMinSlabBytes);
}

TEST(FrameReader, BackToBackSmallStreamGrowsToFullChunks) {
  auto pair = make_pair();
  const auto msgs = make_msgs(1000, 1000);  // ~1 MB
  std::atomic<bool> written{false};
  std::thread writer([&] {
    EXPECT_TRUE(write_batch(pair.client, msgs.data(), msgs.size()));
    written = true;
  });
  // Let the stream queue up in the socket buffers first, as on a
  // saturated link (a bounded wait: reading also unblocks the writer).
  for (int i = 0; i < 200 && !written; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  for (const auto& want : msgs) expect_same_payload(reader.next(), want);
  // The first chunk is small; a recv that fills it makes every later
  // chunk a full one, so a recv decodes ~60 frames.
  EXPECT_LE(reader.syscalls(), msgs.size() / 32 + 4);
  writer.join();
}

TEST(FrameReader, PayloadsReleasedOnAnotherThreadRecycleChunks) {
  auto pair = make_pair();
  const auto msgs = make_msgs(2000, 1000);
  std::thread writer([&] {
    // Small bursts, so chunks turn over often.
    for (std::size_t i = 0; i < msgs.size(); i += 3) {
      const std::size_t n = std::min<std::size_t>(3, msgs.size() - i);
      EXPECT_TRUE(write_batch(pair.client, &msgs[i], n));
    }
  });
  std::mutex mu;
  std::condition_variable cv;
  std::deque<MsgPtr> handed;
  bool done = false;
  std::size_t intact = 0;
  std::thread consumer([&] {
    std::deque<MsgPtr> held;  // a few payloads in flight at once
    for (;;) {
      MsgPtr m;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !handed.empty(); });
        if (handed.empty()) break;
        m = std::move(handed.front());
        handed.pop_front();
        cv.notify_all();  // queue space for the reader
      }
      held.push_back(std::move(m));
      if (held.size() > 8) {
        const MsgPtr& old = held.front();
        if (Buffer::matches_pattern(old->payload()->data(),
                                    old->payload_size(), old->seq())) {
          ++intact;
        }
        held.pop_front();  // the last reference: the slab may recycle
      }
    }
    for (const auto& old : held) {
      if (Buffer::matches_pattern(old->payload()->data(),
                                  old->payload_size(), old->seq())) {
        ++intact;
      }
    }
  });
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    MsgPtr m = reader.next();
    if (m == nullptr || m->seq() != i) {
      ADD_FAILURE() << "frame " << i << " missing or out of order";
      break;  // still join the threads below
    }
    // A bounded hand-off, like the engine's queues: the reader cannot run
    // more than a few payloads ahead of the releases.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return handed.size() < 16; });
    handed.push_back(std::move(m));
    cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  }
  consumer.join();
  writer.join();
  EXPECT_EQ(intact, msgs.size());
  // Chunks released on the consumer thread came back to the reader.
  EXPECT_GT(pool.hits(), 0u);
}

TEST(FrameReader, PooledPayloadOutlivesReaderAndPool) {
  auto pair = make_pair();
  const auto msgs = make_msgs(1, 2000);
  std::thread writer(
      [&] { EXPECT_TRUE(test::write_frame(pair.client, msgs[0])); });
  MsgPtr got;
  {
    SlabPool pool;
    {
      FrameReader reader(pair.server, pool, 256);
      got = reader.next();
      ASSERT_NE(got, nullptr);
    }  // reader destroyed
  }  // pool destroyed; the slab-backed payload must stay valid
  expect_same_payload(got, msgs[0]);
  writer.join();
}

// --- Robustness: corruption and truncation --------------------------------

// A header whose payload_size field exceeds Msg::kMaxPayload.
std::vector<u8> oversize_header() {
  codec::Header h;
  h.type = MsgType::kData;
  h.origin = NodeId::loopback(1);
  h.payload_size = 0;
  auto bytes = codec::encode_header(h);
  for (int i = 20; i < 24; ++i) bytes[static_cast<std::size_t>(i)] = 0xff;
  return {bytes.begin(), bytes.end()};
}

TEST(FrameReader, RejectsOversizePayloadHeader) {
  auto pair = make_pair();
  const auto junk = oversize_header();
  ASSERT_TRUE(pair.client.write_all(junk.data(), junk.size()));
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  EXPECT_EQ(reader.next(), nullptr);
  EXPECT_TRUE(reader.corrupt());
  EXPECT_EQ(reader.next(), nullptr);  // failed permanently
}

TEST(FrameReader, RejectsCorruptHeaderMidStream) {
  auto pair = make_pair();
  const auto good = make_msgs(3, 50);
  ASSERT_TRUE(write_batch(pair.client, good.data(), good.size()));
  const auto junk = oversize_header();
  ASSERT_TRUE(pair.client.write_all(junk.data(), junk.size()));
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  for (const auto& want : good) expect_same_payload(reader.next(), want);
  EXPECT_EQ(reader.next(), nullptr);
  EXPECT_TRUE(reader.corrupt());
}

TEST(FrameReader, TruncationMidHeaderIsEofNotCorruption) {
  auto pair = make_pair();
  const u8 partial[10] = {};
  ASSERT_TRUE(pair.client.write_all(partial, sizeof(partial)));
  pair.client.shutdown_write();
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  EXPECT_EQ(reader.next(), nullptr);
  EXPECT_FALSE(reader.corrupt());
}

TEST(FrameReader, TruncationMidPayloadIsEofNotCorruption) {
  auto pair = make_pair();
  codec::Header h;
  h.type = MsgType::kData;
  h.origin = NodeId::loopback(1);
  h.payload_size = 1000;
  const auto header = codec::encode_header(h);
  ASSERT_TRUE(pair.client.write_all(header.data(), header.size()));
  const u8 partial[10] = {};
  ASSERT_TRUE(pair.client.write_all(partial, sizeof(partial)));
  pair.client.shutdown_write();
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  EXPECT_EQ(reader.next(), nullptr);
  EXPECT_FALSE(reader.corrupt());
}

TEST(FrameReader, TruncationMidLargeFrame) {
  auto pair = make_pair();
  codec::Header h;
  h.type = MsgType::kData;
  h.origin = NodeId::loopback(1);
  h.payload_size = 100000;  // forces the large-frame path
  const auto header = codec::encode_header(h);
  ASSERT_TRUE(pair.client.write_all(header.data(), header.size()));
  const u8 partial[64] = {};
  ASSERT_TRUE(pair.client.write_all(partial, sizeof(partial)));
  pair.client.shutdown_write();
  SlabPool pool;
  FrameReader reader(pair.server, pool, 256);
  EXPECT_EQ(reader.next(), nullptr);
  EXPECT_FALSE(reader.corrupt());
}

TEST(FrameReader, EofOnCleanBoundary) {
  auto pair = make_pair();
  const auto msgs = make_msgs(2, 40);
  ASSERT_TRUE(write_batch(pair.client, msgs.data(), msgs.size()));
  pair.client.shutdown_write();
  SlabPool pool;
  FrameReader reader(pair.server, pool);
  expect_same_payload(reader.next(), msgs[0]);
  expect_same_payload(reader.next(), msgs[1]);
  EXPECT_EQ(reader.next(), nullptr);
  EXPECT_FALSE(reader.corrupt());
}

}  // namespace
}  // namespace iov
