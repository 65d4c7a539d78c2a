// Block protocol suite: the TupleBlock frame's modeled size, the bulk
// Relation ingest it feeds (InsertBlock), the per-block channel
// fault/retransmit semantics, and the end-to-end promise that the flush
// threshold is invisible in the fixpoint — --block-tuples=1 (per-tuple
// frames) and large blocks must produce identical results on every
// scheme.
#include <algorithm>
#include <string>
#include <vector>

#include "cli/driver.h"
#include "core/channel.h"
#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "storage/relation.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::DumpOutput;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;
using testing_util::SequentialAncestor;

TupleBlock MakeBlock(Symbol predicate, int arity, uint32_t count) {
  TupleBlock block;
  block.predicate = predicate;
  block.arity = arity;
  for (uint32_t r = 0; r < count; ++r) {
    std::vector<Value> row(arity);
    for (int c = 0; c < arity; ++c) {
      row[c] = r * 31 + static_cast<uint32_t>(c) * 7 + 1;
    }
    block.Append(row.data(), arity);
  }
  return block;
}

// ---------------------------------------------------------------------
// Modeled frame size
// ---------------------------------------------------------------------

TEST(BlockWireTest, WireBytesIsTheModeledFrameSize) {
  // Hand-computed frames: u32 predicate + u16 arity + u32 count (10
  // bytes), 4 bytes per value, a 4-byte checksum.
  EXPECT_EQ(BlockWireBytes(2, 3), 10u + 2 * 3 * 4 + 4);  // 38
  EXPECT_EQ(BlockWireBytes(0, 5), 14u);
  EXPECT_EQ(BlockWireBytes(3, 256), 10u + 3 * 256 * 4 + 4);
  EXPECT_EQ(MakeBlock(42, 2, 3).WireBytes(), 38u);
  // The per-tuple pooling unit: u32 predicate + u16 arity, the values,
  // the checksum.
  EXPECT_EQ(TupleWireBytes(2), 6u + 2 * 4 + 4);
}

// ---------------------------------------------------------------------
// Bulk relation ingest
// ---------------------------------------------------------------------

TEST(InsertBlockTest, MatchesPerTupleInsert) {
  TupleBlock block = MakeBlock(1, 2, 500);
  Relation bulk(2);
  Relation reference(2);
  size_t inserted =
      bulk.InsertBlock(block.values.data(), block.arity, block.count);
  size_t ref_inserted = 0;
  for (uint32_t r = 0; r < block.count; ++r) {
    ref_inserted += reference.InsertView(block.row(r), block.arity);
  }
  EXPECT_EQ(inserted, ref_inserted);
  ASSERT_EQ(bulk.size(), reference.size());
  for (size_t r = 0; r < reference.size(); ++r) {
    EXPECT_TRUE(bulk.Contains(reference.row(r)));
  }
}

TEST(InsertBlockTest, DedupsWithinAndAcrossBlocks) {
  TupleBlock block;
  block.arity = 2;
  Value rows[][2] = {{1, 2}, {3, 4}, {1, 2}, {5, 6}};  // internal dup
  for (const Value* row : {rows[0], rows[1], rows[2], rows[3]}) {
    block.Append(row, 2);
  }
  Relation rel(2);
  EXPECT_EQ(rel.InsertBlock(block.values.data(), 2, block.count), 3u);
  EXPECT_EQ(rel.size(), 3u);
  // A second ingest of the same block inserts nothing new.
  EXPECT_EQ(rel.InsertBlock(block.values.data(), 2, block.count), 0u);
  EXPECT_EQ(rel.size(), 3u);
}

TEST(InsertBlockTest, LargeBlockAfterSmallInserts) {
  // Exercises the single up-front dedup growth across several doublings.
  Relation rel(1);
  Value seed = 9999999;
  rel.InsertView(&seed, 1);
  TupleBlock block = MakeBlock(1, 1, 20000);
  EXPECT_EQ(rel.InsertBlock(block.values.data(), 1, block.count),
            block.count);
  EXPECT_EQ(rel.size(), block.count + 1);
}

TEST(InsertBlockTest, ColumnarIngestMatchesRowMajor) {
  // InsertAll hands InsertBlock column-major chunks; ingesting one must
  // produce the same relation as ingesting the row-major block, row ids
  // included.
  TupleBlock sent = MakeBlock(1, 3, 700);
  std::vector<Value> columns(sent.values.size());
  for (uint32_t r = 0; r < sent.count; ++r) {
    for (int c = 0; c < sent.arity; ++c) {
      columns[static_cast<size_t>(c) * sent.count + r] = sent.row(r)[c];
    }
  }

  Relation from_rows(3), from_cols(3);
  size_t a = from_rows.InsertBlock(sent.values.data(), sent.arity,
                                   sent.count, /*columnar=*/false);
  size_t b = from_cols.InsertBlock(columns.data(), sent.arity, sent.count,
                                   /*columnar=*/true);
  EXPECT_EQ(a, b);
  ASSERT_EQ(from_rows.size(), from_cols.size());
  for (size_t r = 0; r < from_rows.size(); ++r) {
    EXPECT_EQ(from_rows.row(r), from_cols.row(r)) << "row " << r;
  }
}

TEST(InsertBlockTest, DuplicatesSplitAcrossTwoReceivedBlocks) {
  // Exactly-once under retransmission overlap: two received blocks
  // share a run of tuples (e.g. a conservative resend); the second
  // ingest must add only the genuinely new suffix.
  TupleBlock first, second;
  first.predicate = second.predicate = 1;
  first.arity = second.arity = 2;
  for (Value i = 0; i < 40; ++i) {
    Value row[2] = {i, i + 100};
    first.Append(row, 2);
  }
  for (Value i = 25; i < 70; ++i) {  // rows 25..39 overlap the first
    Value row[2] = {i, i + 100};
    second.Append(row, 2);
  }
  Relation rel(2);
  EXPECT_EQ(rel.InsertBlock(first.values.data(), 2, first.count), 40u);
  EXPECT_EQ(rel.InsertBlock(second.values.data(), 2, second.count), 30u);
  EXPECT_EQ(rel.size(), 70u);
  for (Value i = 0; i < 70; ++i) {
    EXPECT_TRUE(rel.Contains(Tuple{i, i + 100})) << "tuple " << i;
  }
  // A full duplicate resend of either block is a no-op.
  EXPECT_EQ(rel.InsertBlock(second.values.data(), 2, second.count), 0u);
  EXPECT_EQ(rel.size(), 70u);
}

// ---------------------------------------------------------------------
// Per-block channel semantics under faults
// ---------------------------------------------------------------------

TEST(BlockChannelTest, BlockIsOneFrameManyTuples) {
  Channel channel;
  channel.SendBlock(MakeBlock(1, 2, 10));
  EXPECT_EQ(channel.total_sent(), 10u);
  EXPECT_EQ(channel.total_frames(), 1u);
  EXPECT_EQ(channel.total_bytes(), BlockWireBytes(2, 10));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.DrainBlocks(&out), 10u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].count, 10u);
}

TEST(BlockChannelTest, DropLosesTheWholeBlock) {
  Channel channel;
  FaultSpec spec;
  spec.drop = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.SendBlock(MakeBlock(1, 2, 8));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.DrainBlocks(&out), 0u);
  // One injector decision per frame: 8 tuples lost, 1 drop counted.
  EXPECT_EQ(channel.fault_counters().dropped, 1u);
  // Logical sends stay tuple-granular for the termination detector.
  EXPECT_EQ(channel.total_sent(), 8u);
}

TEST(BlockChannelTest, OneRetransmitRecoversTheWholeBlock) {
  Channel channel;
  FaultSpec spec;
  spec.drop = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.EnableRetransmit();
  TupleBlock block = MakeBlock(1, 2, 8);
  channel.SendBlock(block);
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.DrainBlocks(&out), 0u);
  EXPECT_EQ(channel.RetransmitUnacked(), 1u);
  EXPECT_EQ(channel.DrainBlocks(&out), 8u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].values, block.values);
}

TEST(BlockChannelTest, DuplicatedBlockDiscardedOnceReliable) {
  Channel channel;
  FaultSpec spec;
  spec.duplicate = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.EnableRetransmit();
  channel.SendBlock(MakeBlock(1, 2, 4));
  channel.SendBlock(MakeBlock(1, 2, 3));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.DrainBlocks(&out), 7u);  // each block delivered once
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(channel.fault_counters().duplicates_discarded, 2u);
}

// ---------------------------------------------------------------------
// End-to-end exactness: the flush threshold must be invisible
// ---------------------------------------------------------------------

TEST(BlockExactnessTest, AncestorFixpointInvariantAcrossBlockSizes) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 60, 180, 11);
  std::string expected = SequentialAncestor(setup.get(), nullptr);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  for (int block_tuples : {1, 3, 256, 4096}) {
    for (bool use_threads : {true, false}) {
      ParallelOptions options;
      options.block_tuples = block_tuples;
      options.use_threads = use_threads;
      StatusOr<ParallelResult> result =
          RunParallel(bundle, &setup->edb, options);
      ASSERT_TRUE(result.ok())
          << result.status().ToString() << " block=" << block_tuples;
      EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected)
          << "block=" << block_tuples << " threads=" << use_threads;
    }
  }
}

TEST(BlockExactnessTest, PerTupleAndLargeBlocksAgreeOnPointsTo) {
  // Driver-level check on a multi-rule, mutually recursive program
  // (general scheme): --block-tuples=1 and a large threshold must print
  // the identical pt/heap_pt dump.
  const char* source =
      "new(v1, o1). new(v4, o2).\n"
      "assign(v2, v1). assign(v5, v4). assign(v6, v5).\n"
      "store(v2, v1). store(v5, v6).\n"
      "load(v3, v2). load(v7, v5).\n"
      "pt(V, O) :- new(V, O).\n"
      "pt(V, O) :- assign(V, W), pt(W, O).\n"
      "pt(V, O) :- load(V, P), pt(P, A), heap_pt(A, O).\n"
      "heap_pt(A, O) :- store(P, W), pt(P, A), pt(W, O).\n";
  std::string reference;
  for (const char* block_flag :
       {"--block-tuples=1", "--block-tuples=8", "--block-tuples=65536"}) {
    StatusOr<CliOptions> options = ParseCliArgs(
        {"--scheme=general", block_flag, "--dump=pt", "p.dl"});
    ASSERT_TRUE(options.ok()) << options.status().ToString();
    StatusOr<std::string> report = RunCli(*options, source);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    std::string dump = report->substr(report->find("pt:"));
    if (reference.empty()) {
      reference = dump;
      EXPECT_NE(dump.find("(v3, o1)"), std::string::npos);
    } else {
      EXPECT_EQ(dump, reference) << block_flag;
    }
  }
}

TEST(BlockExactnessTest, FaultMatrixStaysExactInBlockMode) {
  // Every single-fault mode, with retransmit: the block-mode fixpoint
  // must equal the serial result; without retransmit, a lossy mode must
  // surface a diagnostic, never a silently wrong answer.
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 40, 120, 23);
  std::string expected = SequentialAncestor(setup.get(), nullptr);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);

  struct Mode {
    const char* name;
    FaultSpec spec;
    bool lossy;  // without retransmit, drops tuples outright
  };
  std::vector<Mode> modes;
  modes.push_back({"drop", {}, true});
  modes.back().spec.drop = 0.3;
  modes.push_back({"duplicate", {}, false});
  modes.back().spec.duplicate = 0.3;
  modes.push_back({"reorder", {}, false});
  modes.back().spec.reorder = 0.5;
  modes.push_back({"delay", {}, false});
  modes.back().spec.delay = 0.3;
  modes.back().spec.delay_polls = 2;

  for (const Mode& mode : modes) {
    for (int block_tuples : {1, 64}) {
      ParallelOptions options;
      options.block_tuples = block_tuples;
      options.faults = mode.spec;
      options.retransmit = true;
      StatusOr<ParallelResult> reliable =
          RunParallel(bundle, &setup->edb, options);
      ASSERT_TRUE(reliable.ok())
          << mode.name << " block=" << block_tuples << ": "
          << reliable.status().ToString();
      EXPECT_EQ(DumpOutput(*reliable, setup->symbols, setup->anc()),
                expected)
          << mode.name << " block=" << block_tuples;

      if (!mode.lossy) continue;
      options.retransmit = false;
      StatusOr<ParallelResult> lossy =
          RunParallel(bundle, &setup->edb, options);
      EXPECT_FALSE(lossy.ok())
          << mode.name << " block=" << block_tuples
          << " must detect its losses";
    }
  }
}

TEST(BlockExactnessTest, RejectsOutOfRangeThreshold) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 4);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  for (int bad : {0, -1, static_cast<int>(kMaxBlockTuples) + 1}) {
    ParallelOptions options;
    options.block_tuples = bad;
    EXPECT_FALSE(RunParallel(bundle, &setup->edb, options).ok()) << bad;
  }
}

TEST(BlockCliTest, BlockTuplesFlagParsedAndValidated) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--block-tuples=512", "p.dl"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->block_tuples, 512);
  EXPECT_FALSE(ParseCliArgs({"--block-tuples=0", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--block-tuples=-3", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--block-tuples=9999999", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--block-tuples=abc", "p.dl"}).ok());
}

}  // namespace
}  // namespace pdatalog
