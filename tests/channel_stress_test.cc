// Concurrency stress for the channel substrate: many senders racing one
// drainer must lose no frames, and the monotone total_sent /
// total_bytes / total_frames counters must come out exact — the
// termination detector (Mattern counting) relies on exactly this
// agreement. Under TSan these also check that frame contents cross the
// queue without a data race.
#include <cstdint>
#include <thread>
#include <vector>

#include "core/channel.h"
#include "gtest/gtest.h"

namespace pdatalog {
namespace {

// A recognizable block: `arity` columns, `count` rows, every cell
// derived from (seq, row, col) so a torn or reordered frame cannot
// validate.
TupleBlock PatternBlock(uint32_t seq, int arity, uint32_t count) {
  TupleBlock block;
  block.predicate = 7;
  block.arity = arity;
  std::vector<Value> row(arity);
  for (uint32_t r = 0; r < count; ++r) {
    for (int c = 0; c < arity; ++c) {
      row[c] = static_cast<Value>(seq * 31 + r * 7 + c);
    }
    block.Append(row.data(), arity);
  }
  return block;
}

void CheckPatternBlock(const TupleBlock& block, uint32_t seq, int arity,
                       uint32_t count) {
  ASSERT_EQ(block.arity, arity);
  ASSERT_EQ(block.count, count);
  for (uint32_t r = 0; r < count; ++r) {
    for (int c = 0; c < arity; ++c) {
      ASSERT_EQ(block.row(r)[c], static_cast<Value>(seq * 31 + r * 7 + c))
          << "seq " << seq << " row " << r << " col " << c;
    }
  }
}

TEST(ChannelStressTest, ManySendersOneDrainerLosesNothing) {
  constexpr int kSenders = 8;
  constexpr int kPerSender = 5000;
  Channel channel;

  std::vector<std::thread> senders;
  senders.reserve(kSenders);
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&channel, s] {
      for (int i = 0; i < kPerSender; ++i) {
        TupleBlock block;
        block.predicate = static_cast<Symbol>(s);
        block.arity = 2;
        Value row[2] = {static_cast<Value>(s), static_cast<Value>(i)};
        block.Append(row, 2);
        channel.SendBlock(std::move(block));
      }
    });
  }

  // Drain concurrently with the senders, like a worker's round loop.
  std::vector<TupleBlock> received;
  while (received.size() < static_cast<size_t>(kSenders) * kPerSender) {
    channel.DrainBlocks(&received);
  }
  for (std::thread& t : senders) t.join();
  channel.DrainBlocks(&received);  // nothing should be left
  ASSERT_EQ(received.size(), static_cast<size_t>(kSenders) * kPerSender);

  // Every (sender, sequence) pair arrives exactly once, in per-sender
  // FIFO order (each channel is a reliable ordered link).
  std::vector<std::vector<bool>> seen(kSenders,
                                      std::vector<bool>(kPerSender, false));
  std::vector<int> last(kSenders, -1);
  uint64_t wire_bytes = 0;
  for (const TupleBlock& b : received) {
    int s = static_cast<int>(b.predicate);
    int i = static_cast<int>(b.row(0)[1]);
    EXPECT_FALSE(seen[s][i]) << "duplicate (" << s << ", " << i << ")";
    seen[s][i] = true;
    EXPECT_GT(i, last[s]) << "reordered within sender " << s;
    last[s] = i;
    wire_bytes += b.WireBytes();
  }
  EXPECT_EQ(channel.total_sent(),
            static_cast<uint64_t>(kSenders) * kPerSender);
  EXPECT_EQ(channel.total_bytes(), wire_bytes);
  EXPECT_FALSE(channel.HasPending());
}

TEST(ChannelStressTest, BatchedSendersCountExactly) {
  // Multi-tuple blocks of varying size from racing senders: the tuple
  // counter must sum block counts, the frame counter must count blocks,
  // and every cell must arrive intact.
  constexpr int kSenders = 6;
  constexpr int kBlocks = 200;
  Channel channel;

  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&channel, s] {
      for (int b = 0; b < kBlocks; ++b) {
        channel.SendBlock(PatternBlock(static_cast<uint32_t>(s * kBlocks + b),
                                       /*arity=*/3, /*count=*/(b % 25) + 1));
      }
    });
  }

  std::vector<TupleBlock> received;
  const size_t expect_frames = static_cast<size_t>(kSenders) * kBlocks;
  while (received.size() < expect_frames) channel.DrainBlocks(&received);
  for (std::thread& t : senders) t.join();
  channel.DrainBlocks(&received);
  ASSERT_EQ(received.size(), expect_frames);

  uint64_t tuples = 0;
  uint64_t wire_bytes = 0;
  for (const TupleBlock& b : received) {
    // PatternBlock's cell (0, 0) is seq * 31, which recovers the seq.
    uint32_t seq = b.row(0)[0] / 31;
    CheckPatternBlock(b, seq, 3, (seq % kBlocks) % 25 + 1);
    tuples += b.count;
    wire_bytes += b.WireBytes();
  }
  EXPECT_EQ(channel.total_sent(), tuples);
  EXPECT_EQ(channel.total_frames(), expect_frames);
  EXPECT_EQ(channel.total_bytes(), wire_bytes);
}

TEST(ChannelStressTest, ReliableChannelRecoversUnderConcurrentFaults) {
  // One sender races one drainer over a lossy reliable channel. The
  // sender interleaves retransmits of unacknowledged frames; the
  // receiver must still see every message exactly once and in order.
  constexpr int kMessages = 4000;
  Channel channel;
  FaultSpec spec;
  spec.drop = 0.2;
  spec.duplicate = 0.1;
  spec.reorder = 0.1;
  spec.delay = 0.1;
  spec.delay_polls = 2;
  channel.ConfigureFaults(spec, 0, 1);
  channel.EnableRetransmit();

  std::thread sender([&channel] {
    for (int i = 0; i < kMessages; ++i) {
      channel.SendBlock(PatternBlock(i, /*arity=*/2, /*count=*/1));
      if ((i & 63) == 0) channel.RetransmitUnacked();
    }
  });

  std::vector<TupleBlock> received;
  while (received.size() < kMessages) {
    if (channel.DrainBlocks(&received) == 0) channel.RetransmitUnacked();
  }
  sender.join();
  channel.DrainBlocks(&received);
  ASSERT_EQ(received.size(), static_cast<size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    CheckPatternBlock(received[i], i, 2, 1);
  }
  EXPECT_EQ(channel.total_sent(), static_cast<uint64_t>(kMessages));
  EXPECT_TRUE(channel.fault_counters().any());
  EXPECT_EQ(channel.RetransmitUnacked(), 0u);  // everything acknowledged
}

TEST(ChannelStressTest, MixedBlockSizesCountTuples) {
  // Racing senders ship blocks of 1..4 tuples: every frame must arrive
  // intact, and the tuple counter must carry each block's count, not
  // one per frame.
  constexpr int kSenders = 4;
  constexpr int kPerSender = 2000;
  Channel channel;

  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&channel, s] {
      for (int i = 0; i < kPerSender; ++i) {
        uint32_t seq = static_cast<uint32_t>(s * kPerSender + i);
        channel.SendBlock(PatternBlock(seq, 2, (i % 4) + 1));
      }
    });
  }

  std::vector<TupleBlock> received;
  const size_t expect = static_cast<size_t>(kSenders) * kPerSender;
  while (received.size() < expect) channel.DrainBlocks(&received);
  for (std::thread& t : senders) t.join();
  channel.DrainBlocks(&received);
  ASSERT_EQ(received.size(), expect);

  uint64_t bytes = 0;
  uint64_t tuples = 0;
  for (const TupleBlock& b : received) {
    uint32_t seq = b.row(0)[0] / 31;
    CheckPatternBlock(b, seq, 2, (seq % kPerSender) % 4 + 1);
    bytes += b.WireBytes();
    tuples += b.count;
  }
  EXPECT_EQ(channel.total_sent(), tuples);
  EXPECT_EQ(channel.total_frames(), expect);
  EXPECT_EQ(channel.total_bytes(), bytes);
  EXPECT_FALSE(channel.HasPending());
}

}  // namespace
}  // namespace pdatalog
