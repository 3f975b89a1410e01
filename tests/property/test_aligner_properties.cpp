// Property sweeps over the MiniBlast aligner: reported alignments always
// satisfy the configured thresholds; alignment rate responds
// monotonically (in expectation) to mutation rate and derived fraction;
// work counters are consistent.
#include <gtest/gtest.h>

#include "genomics/aligner.hpp"
#include "genomics/sequence.hpp"

namespace lidc::genomics {
namespace {

struct AlignSweep {
  double derivedFraction;
  double mutationRate;
};

class AlignerProperty : public ::testing::TestWithParam<AlignSweep> {};

TEST_P(AlignerProperty, ReportsRespectThresholdsAndCounters) {
  const auto [derived, mutation] = GetParam();
  Rng rng(1234);
  const std::string reference = randomBases(rng, 30'000);
  const auto reads =
      generateReads(rng, reference, 300, 100, derived, mutation, "P");

  AlignerOptions options;
  MiniBlastAligner aligner(reference, options);
  std::vector<Alignment> out;
  const AlignerStats stats = aligner.alignAll(reads, out);

  EXPECT_EQ(stats.readsProcessed, reads.size());
  EXPECT_LE(stats.readsAligned, stats.readsProcessed);
  EXPECT_EQ(stats.alignmentsReported, out.size());
  EXPECT_GE(stats.seedHits, stats.extensions);

  for (const auto& alignment : out) {
    EXPECT_GE(alignment.score, MiniBlastAligner::kMinScore) << alignment.toRecord();
    EXPECT_GE(alignment.identity(), options.minIdentity) << alignment.toRecord();
    EXPECT_EQ(alignment.matches + alignment.mismatches, alignment.length);
    EXPECT_LE(alignment.refStart + alignment.length, reference.size());
  }

  // Expected alignment-rate band: derived reads mostly align at low
  // mutation; random reads essentially never do.
  const double rate = stats.readsProcessed == 0
                          ? 0.0
                          : static_cast<double>(stats.readsAligned) /
                                static_cast<double>(stats.readsProcessed);
  if (derived == 0.0) {
    EXPECT_LT(rate, 0.05);
  } else if (mutation <= 0.02) {
    EXPECT_GT(rate, derived * 0.8);
    EXPECT_LT(rate, derived * 1.2 + 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FractionMutationSweep, AlignerProperty,
    ::testing::Values(AlignSweep{0.0, 0.0}, AlignSweep{0.25, 0.01},
                      AlignSweep{0.5, 0.02}, AlignSweep{0.75, 0.05},
                      AlignSweep{1.0, 0.0}, AlignSweep{1.0, 0.10}));

class MutationMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationMonotonicity, HigherMutationNeverHelpsAlignment) {
  Rng rng(GetParam());
  const std::string reference = randomBases(rng, 30'000);
  double previousRate = 1.1;
  for (double mutation : {0.0, 0.05, 0.15, 0.30}) {
    Rng readRng(GetParam() ^ 0x77);
    const auto reads =
        generateReads(readRng, reference, 400, 100, 1.0, mutation, "M");
    MiniBlastAligner aligner(reference);
    std::vector<Alignment> out;
    const auto stats = aligner.alignAll(reads, out);
    const double rate = static_cast<double>(stats.readsAligned) / 400.0;
    // Allow small statistical noise but require the broad trend.
    EXPECT_LE(rate, previousRate + 0.05) << "mutation=" << mutation;
    previousRate = rate;
  }
  // At 30% mutation nearly nothing survives the identity filter.
  EXPECT_LT(previousRate, 0.2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationMonotonicity, ::testing::Values(5, 6, 7));

}  // namespace
}  // namespace lidc::genomics
