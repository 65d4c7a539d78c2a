#include "core/wire.h"

#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::DumpOutput;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;
using testing_util::SequentialAncestor;

TupleBlock OneRowBlock(Symbol predicate, std::vector<Value> row) {
  TupleBlock block;
  block.predicate = predicate;
  block.arity = static_cast<int>(row.size());
  block.Append(row.data(), block.arity);
  return block;
}

TEST(WireTest, LargeValuesSurvive) {
  TupleBlock in = OneRowBlock(0xffffffffu, {0xdeadbeefu, 0, 0x7fffffffu});
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeBlock(in, &bytes).ok());
  size_t offset = 0;
  TupleBlock out;
  ASSERT_TRUE(DecodeBlockInto(bytes, &offset, &out).ok());
  EXPECT_EQ(out.predicate, 0xffffffffu);
  EXPECT_EQ(out.value(0, 0), 0xdeadbeefu);
  EXPECT_EQ(out.value(0, 2), 0x7fffffffu);
}

TEST(WireTest, TruncationBranchesAreDistinct) {
  TupleBlock in = OneRowBlock(1, {9, 8, 7});
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeBlock(in, &bytes).ok());
  auto error_at = [&](size_t cut) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    size_t offset = 0;
    TupleBlock out;
    return DecodeBlockInto(truncated, &offset, &out).message();
  };
  EXPECT_NE(error_at(3).find("header"), std::string::npos);
  EXPECT_NE(error_at(kBlockHeaderBytes + 2).find("body"), std::string::npos);
  EXPECT_NE(error_at(bytes.size() - 1).find("body"), std::string::npos);
}

TEST(WireTest, GarbageArityRejected) {
  // Block marker set, arity 0x7fff: far past kMaxWireArity.
  std::vector<uint8_t> bytes = {0, 0, 0, 0, 0xff, 0xff, 1, 0, 0, 0};
  size_t offset = 0;
  TupleBlock out;
  Status status = DecodeBlockInto(bytes, &offset, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("arity"), std::string::npos);
}

TEST(WireTest, EveryByteFlipFailsTheChecksum) {
  // Flip each byte of the frame in turn: wherever the flip lands —
  // header, value, or the checksum itself — FrameChecksumOk (what a
  // reliable channel runs before delivering) rejects the frame.
  TupleBlock in = OneRowBlock(42, {1, 2, 3});
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeBlock(in, &bytes).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0xa5;
    EXPECT_FALSE(FrameChecksumOk(corrupt.data(), corrupt.size()))
        << "byte " << i;
  }
  EXPECT_TRUE(FrameChecksumOk(bytes.data(), bytes.size()));
}

TEST(WireTest, FrameChecksumRejectsShortFrames) {
  std::vector<uint8_t> bytes(kBlockHeaderBytes + kWireChecksumBytes - 1, 0);
  EXPECT_FALSE(FrameChecksumOk(bytes.data(), bytes.size()));
}

TEST(WireTest, SerializedChannelRoundTrip) {
  Channel channel;
  TupleBlock in = OneRowBlock(5, {1, 2});
  TupleBlock frame;
  frame.count = in.count;
  ASSERT_TRUE(EncodeBlock(in, &frame.encoded).ok());
  const std::vector<uint8_t> bytes = frame.encoded;
  channel.SendBlock(std::move(frame));
  EXPECT_TRUE(channel.HasPending());
  EXPECT_EQ(channel.total_sent(), 1u);
  EXPECT_EQ(channel.total_frames(), 1u);
  EXPECT_EQ(channel.total_bytes(), bytes.size());
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.DrainBlocks(&out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].encoded, bytes);  // the bytes cross untouched
  EXPECT_FALSE(channel.HasPending());
}

class SerializedEngineTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(ThreadsAndRoundRobin, SerializedEngineTest,
                         ::testing::Values(false, true));

TEST_P(SerializedEngineTest, MessagePassingModeMatchesSharedMemory) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 60, 9);
  std::string expected = SequentialAncestor(setup.get(), nullptr);

  for (AncestorScheme scheme :
       {AncestorScheme::kExample2, AncestorScheme::kExample3}) {
    RewriteBundle bundle = MakeAncestorBundle(setup.get(), scheme, 4);
    ParallelOptions options;
    options.use_threads = GetParam();
    options.serialize_messages = true;
    StatusOr<ParallelResult> result =
        RunParallel(bundle, &setup->edb, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected)
        << "scheme " << static_cast<int>(scheme);
  }
}

TEST(SerializedEngineTest, GeneralSchemeUnderMessagePassing) {
  SymbolTable symbols;
  Program program = testing_util::ParseOrDie(
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- anc(X, Z), anc(Z, Y).\n",
      &symbols);
  ProgramInfo info = testing_util::ValidateOrDie(program);
  std::vector<GeneralRuleSpec> specs(2);
  specs[0].vars = {symbols.Intern("Y")};
  specs[0].h = DiscriminatingFunction::UniformHash(3);
  specs[1].vars = {symbols.Intern("Z")};
  specs[1].h = DiscriminatingFunction::UniformHash(3);
  StatusOr<RewriteBundle> bundle = RewriteGeneral(program, info, 3, specs);
  ASSERT_TRUE(bundle.ok());

  Database seq_db;
  GenRandomGraph(&symbols, &seq_db, "par", 20, 40, 10);
  EvalStats seq;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq).ok());

  Database edb;
  GenRandomGraph(&symbols, &edb, "par", 20, 40, 10);
  ParallelOptions options;
  options.serialize_messages = true;
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(
      result->output.Find(symbols.Lookup("anc"))->ToSortedString(symbols),
      seq_db.Find(symbols.Lookup("anc"))->ToSortedString(symbols));
}

}  // namespace
}  // namespace pdatalog
