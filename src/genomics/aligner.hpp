// MiniBlast: a seed-and-extend nucleotide aligner standing in for NCBI
// Magic-BLAST. It does genuine alignment work — k-mer seeding, diagonal
// binning, ungapped x-drop extension, identity filtering — so job
// runtimes and output sizes in the Table I bench emerge from the data
// rather than being scripted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "genomics/kmer_index.hpp"
#include "genomics/sequence.hpp"

namespace lidc::genomics {

/// One reported alignment (SAM-flavoured subset).
struct Alignment {
  std::string readId;
  std::uint32_t refStart = 0;
  std::uint32_t readStart = 0;
  std::uint32_t length = 0;
  std::uint32_t matches = 0;
  std::uint32_t mismatches = 0;
  bool reverseStrand = false;
  int score = 0;

  [[nodiscard]] double identity() const noexcept {
    return length == 0 ? 0.0 : static_cast<double>(matches) / length;
  }
  /// Tab-separated record line (BLAST outfmt-6 flavoured).
  [[nodiscard]] std::string toRecord() const;
};

struct AlignerOptions {
  double minIdentity = 0.80;
  std::size_t threads = 1;          // parallelism across reads
};

/// Work counters: the basis of the simulated-runtime model.
struct AlignerStats {
  std::uint64_t readsProcessed = 0;
  std::uint64_t readsAligned = 0;
  std::uint64_t seedHits = 0;
  std::uint64_t extensions = 0;
  std::uint64_t basesExamined = 0;  // extension work in base comparisons
  std::uint64_t alignmentsReported = 0;
};

class MiniBlastAligner {
 public:
  /// Report threshold: an alignment scoring below this is dropped.
  static constexpr int kMinScore = 20;

  MiniBlastAligner(std::string reference, AlignerOptions options = {});

  /// Aligns every read (both strands); thread-parallel when
  /// options.threads > 1. Appends to `out` and accumulates stats.
  AlignerStats alignAll(const std::vector<Sequence>& reads,
                        std::vector<Alignment>& out) const;

  /// Aligns one read; returns reported alignments.
  std::vector<Alignment> alignRead(const Sequence& read, AlignerStats& stats) const;

  [[nodiscard]] const KmerIndex& index() const noexcept { return index_; }
  [[nodiscard]] const AlignerOptions& options() const noexcept { return options_; }

 private:
  /// Seed, bin by diagonal, extend on the given strand.
  void alignStrand(const std::string& readId, std::string_view bases,
                   bool reverseStrand, std::vector<Alignment>& out,
                   AlignerStats& stats) const;

  /// Ungapped x-drop extension around a seed; returns the alignment.
  Alignment extend(std::string_view read, std::uint32_t readPos,
                   std::uint32_t refPos, AlignerStats& stats) const;

  std::string reference_;
  AlignerOptions options_;
  KmerIndex index_;
};

/// Serializes alignments to a report and "compresses" it (simple LZ-style
/// run coding) — models Magic-BLAST's compressed output files whose sizes
/// Table I reports.
std::vector<std::uint8_t> encodeCompressedReport(const std::vector<Alignment>& alignments);

}  // namespace lidc::genomics
