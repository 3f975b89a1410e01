// Ablation I — MiniBlast alignment kernel.
//
// Host-time throughput of the real compute kernel behind the magic-blast
// application: k-mer index construction across seed lengths, read
// alignment across thread counts, and the compressed-report encode.
// Table I's simulated runtimes come from the app's runtime model, which
// credits each extra core with +1.5% throughput; this bench measures
// what the kernel itself gains from threads on the host.
//
// Each figure is the median of kRuns runs with its quartiles. Index
// builds and the encode are single-threaded and timed in thread CPU
// time; alignAll is timed in wall time, because one thread's CPU time
// would hide the parallelism it measures. Results go to
// BENCH_aligner.json.
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "genomics/aligner.hpp"
#include "genomics/datasets.hpp"

namespace {

using namespace lidc;
using namespace lidc::genomics;

constexpr int kRuns = 7;
constexpr int kWidth = 20;

/// Keeps the compiler from deleting the measured work.
inline void sink(std::uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds per call of `body` over kRuns runs, read from `clock`.
template <typename Clock, typename Body>
bench::Summary timeRuns(Clock clock, Body body) {
  std::vector<double> seconds;
  for (int run = 0; run < kRuns; ++run) {
    const double start = clock();
    body();
    seconds.push_back(clock() - start);
  }
  return bench::summarize(std::move(seconds));
}

void addQuartiles(bench::JsonReport& report, const std::string& key,
                  const bench::Summary& q, double scale) {
  report.add(key, q.p50 * scale);
  report.add(key + "_q1", q.q1 * scale);
  report.add(key + "_q3", q.q3 * scale);
}

}  // namespace

int main() {
  Rng referenceRng(42);
  const std::string reference = randomBases(referenceRng, 200'000);
  Rng readRng(43);
  const std::vector<Sequence> reads =
      generateReads(readRng, reference, 2'000, 100, 0.42, 0.04, "BENCH");
  bench::JsonReport report("aligner");

  bench::printHeader("k-mer index build (200 kbp reference, thread CPU time)");
  bench::printRow({"k", "ms/build", "[q1, q3]", "MB/s"}, kWidth);
  bench::printRule(4, kWidth);
  for (const unsigned k : {9u, 11u, 15u}) {
    const bench::Summary q = timeRuns(bench::threadCpuSeconds, [&] {
      const KmerIndex index(reference, k);
      sink(index.distinctKmers());
    });
    const double mbPerSec = static_cast<double>(reference.size()) / q.p50 / 1e6;
    bench::printRow({std::to_string(k), bench::fmt(q.p50 * 1e3, "%.3f"),
                     bench::fmtSpread(q, "%.3f", 1e3), bench::fmt(mbPerSec, "%.1f")},
                    kWidth);
    addQuartiles(report, "kmer_index_build_k" + std::to_string(k) + "_ms", q, 1e3);
  }

  bench::printHeader("alignAll, 2,000 reads x 100 bp (wall time)");
  bench::printRow({"threads", "ms/pass", "[q1, q3]", "reads/s", "speedup"}, kWidth);
  bench::printRule(5, kWidth);
  double serialMedian = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    AlignerOptions options;
    options.threads = threads;
    const MiniBlastAligner aligner(reference, options);
    const bench::Summary q = timeRuns(wallSeconds, [&] {
      std::vector<Alignment> out;
      sink(aligner.alignAll(reads, out).readsAligned);
    });
    if (threads == 1) serialMedian = q.p50;
    const double readsPerSec = static_cast<double>(reads.size()) / q.p50;
    bench::printRow({std::to_string(threads), bench::fmt(q.p50 * 1e3, "%.3f"),
                     bench::fmtSpread(q, "%.3f", 1e3), bench::fmt(readsPerSec, "%.0f"),
                     bench::fmt(serialMedian / q.p50, "%.2f")},
                    kWidth);
    addQuartiles(report, "align_all_t" + std::to_string(threads) + "_ms", q, 1e3);
    report.add("align_all_t" + std::to_string(threads) + "_reads_per_s", readsPerSec);
  }

  bench::printHeader("Compressed report encode (thread CPU time)");
  const MiniBlastAligner aligner(reference);
  std::vector<Alignment> alignments;
  (void)aligner.alignAll(reads, alignments);
  std::size_t reportBytes = 0;
  const bench::Summary encode = timeRuns(bench::threadCpuSeconds, [&] {
    const auto compressed = encodeCompressedReport(alignments);
    reportBytes = compressed.size();
    sink(compressed.size());
  });
  bench::printRow({"alignments", "us/encode", "[q1, q3]", "bytes"}, kWidth);
  bench::printRule(4, kWidth);
  bench::printRow({std::to_string(alignments.size()),
                   bench::fmt(encode.p50 * 1e6, "%.1f"),
                   bench::fmtSpread(encode, "%.1f", 1e6),
                   std::to_string(reportBytes)},
                  kWidth);
  addQuartiles(report, "compress_report_us", encode, 1e6);
  report.add("compress_report_alignments", static_cast<double>(alignments.size()));
  report.add("compress_report_bytes", static_cast<double>(reportBytes));

  report.write();
  return 0;
}
