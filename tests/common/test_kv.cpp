// The k=v codec every LIDC payload shares: the Writer's escape, the
// Reader's one rule for malformed records, a seeded fuzz over byte soup
// and mutations of a valid record of every payload type, and a seeded
// fuzz of the escape itself.
#include "common/kv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/checkpoint_format.hpp"
#include "core/wire_format.hpp"
#include "datalake/file_server.hpp"
#include "k8s/cluster.hpp"
#include "replica/catalog.hpp"
#include "sim/simulator.hpp"

namespace lidc::kv {
namespace {

std::size_t fieldCount(const Reader& reader) {
  return static_cast<std::size_t>(std::distance(reader.begin(), reader.end()));
}

TEST(KvTest, KvRoundTrip) {
  const std::string encoded =
      Writer().add("job_id", "j-1").add("state", "Running").take();
  EXPECT_EQ(encoded, "job_id=j-1;state=Running");
  const Reader fields(encoded);
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fieldCount(fields), 2u);
  EXPECT_EQ(fields.get("job_id"), "j-1");
  EXPECT_EQ(fields.get("state"), "Running");

  EXPECT_TRUE(Reader("").ok());
  EXPECT_EQ(fieldCount(Reader("")), 0u);
  // Tolerates stray separators.
  EXPECT_EQ(fieldCount(Reader(";;a=1;;b=2;")), 2u);
  // An entry without '=' makes the whole record malformed.
  EXPECT_FALSE(Reader("a=1;junk;b=2").ok());
  EXPECT_EQ(fieldCount(Reader("a=1;junk;b=2")), 0u);
}

TEST(KvTest, WriterEscapesSeparatorsInValues) {
  const std::string out = Writer()
                              .add("error", "unknown job id x;state=Completed\nnext")
                              .add("bytes", 42u)
                              .take();
  EXPECT_EQ(out, "error=unknown job id x%3Bstate=Completed%0Anext;bytes=42");
  const Reader fields(out);
  ASSERT_TRUE(fields.ok());
  EXPECT_FALSE(fields.has("state"));
  EXPECT_EQ(fields.get("bytes"), "42");

  // A value holding '=' round-trips unchanged: a field splits at its
  // first '='.
  const std::string withEquals =
      Writer().add("stored", "/ndn/k8s/data/x/sha=12").add("expr", "a=b=c").take();
  const Reader read(withEquals);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.get("stored"), "/ndn/k8s/data/x/sha=12");
  EXPECT_EQ(read.get("expr"), "a=b=c");
}

TEST(KvTest, ReaderAppliesOneRule) {
  // An empty value is allowed and differs from an absent key.
  const Reader emptyValue("error=;state=Failed");
  ASSERT_TRUE(emptyValue.ok());
  EXPECT_TRUE(emptyValue.has("error"));
  EXPECT_EQ(emptyValue.get("error"), "");
  EXPECT_FALSE(emptyValue.has("cluster"));

  EXPECT_FALSE(Reader("state=Running;state=Completed").ok());  // repeated key
  EXPECT_FALSE(Reader("=x;a=1").ok());                         // empty key
  EXPECT_FALSE(Reader("a=1\nb=2").ok());                       // raw newline
  EXPECT_FALSE(Reader("a=1;b=2;a=3").has("b"));  // malformed reads as empty

  Writer writer;
  for (std::size_t i = 0; i < Reader::kMaxFields; ++i) {
    writer.add(std::to_string(i), i);
  }
  const std::string full = writer.take();
  EXPECT_TRUE(Reader(full).ok());
  EXPECT_FALSE(Reader(full + ";one_more=x").ok());
}

TEST(KvTest, WriterAppendsAfterWhatTheStringHolds) {
  const std::string line = Writer().add("a", "1").take() + '\n';
  EXPECT_EQ(Writer(line).add("b", "2").add("c", "3").take(), "a=1\nb=2;c=3");
}

/// One valid record of every payload type the codec carries.
std::vector<std::string> validRecords() {
  core::CachedResult cached;
  cached.jobId = "job-near-7";
  cached.resultPath = "/ndn/k8s/data/results/job-near-7";
  cached.outputBytes = 1234;

  core::JobStatusSnapshot completed;
  completed.state = k8s::JobState::kCompleted;
  completed.cluster = "near";
  completed.resultPath = "/ndn/k8s/data/results/job-near-7";
  completed.outputBytes = 1234;
  completed.runtime = sim::Duration::seconds(20);
  core::JobStatusSnapshot failed;
  failed.state = k8s::JobState::kFailed;
  failed.cluster = "near";
  failed.error = "segfault; core dumped";

  sim::Simulator sim;
  k8s::Cluster cluster("near", sim);
  cluster.addNode("n0", k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)});
  cluster.registerApp("sleep", [](k8s::AppContext&) { return k8s::AppResult{}; });
  cluster.registerApp("magic-blast", [](k8s::AppContext&) { return k8s::AppResult{}; });

  core::CkptManifest manifest;
  manifest.jobId = "east-42";
  manifest.app = "magic-blast";
  manifest.epoch = 7;
  manifest.bytes = 4096;
  manifest.digest = 0xdeadbeefcafeULL;
  manifest.progressPermille = 500;

  // The reply and lake-meta encoders write Data content bytes.
  auto text = [](const core::ReplyBytes& bytes) {
    return std::string(bytes.begin(), bytes.end());
  };
  return {text(core::encodeJobAck("near", "job-near-7")),
          text(core::encodeCachedAck("near", cached)),
          text(core::encodeError("payload digest mismatch", "near")),
          text(core::encodeStatus(completed)),
          text(core::encodeStatus(failed)),
          text(core::encodeInfo(cluster)),
          text(core::encodePublished(ndn::Name("/ndn/k8s/data/up/x"), 20000, "near")),
          text(datalake::encodeLakeMeta({3, 2560, 1024})),
          "dataset=/ndn/k8s/data/a;bytes=10;version=2;state=ready",  // replica line
          core::encodeCkptManifest(manifest),
          "seq=3;generated=1500000000",          // snapshot manifest
          "app=magic-blast;offset=4;total=10"};  // magic-blast checkpoint header
}

/// A random byte, half the time one of the codec's structural
/// characters so the soup reaches past the first reject.
char randomByte(Rng& rng) {
  static constexpr char kStructural[] = ";=\n%;=ab";
  return rng.uniform(2) == 0 ? kStructural[rng.uniform(sizeof(kStructural) - 1)]
                             : static_cast<char>(rng.uniform(256));
}

std::string randomSoup(Rng& rng, std::size_t maxLen) {
  std::string out(rng.uniform(maxLen + 1), '\0');
  for (char& c : out) c = randomByte(rng);
  return out;
}

std::string mutate(Rng& rng, std::string record) {
  const std::size_t at = rng.uniform(record.size() + 1);
  switch (rng.uniform(4)) {
    case 0:  // overwrite one byte
      if (!record.empty()) record[std::min(at, record.size() - 1)] = randomByte(rng);
      break;
    case 1:  // truncate
      record.resize(at);
      break;
    case 2:  // append a copy of the tail (repeated keys)
      record += ';' + record.substr(at);
      break;
    default:  // splice soup into the middle
      record.insert(at, randomSoup(rng, 8));
      break;
  }
  return record;
}

/// Every typed decoder must take any bytes without crashing.
void decodeAsEveryPayload(std::string_view text) {
  (void)core::decodeAck(text);
  (void)core::decodeStatus(text);
  (void)core::decodeInfo(text);
  (void)core::decodePublished(text);
  (void)core::decodeCkptManifest(text);
  (void)datalake::decodeLakeMeta(text);
  (void)replica::parseReplicaMap(text);
}

TEST(KvTest, FuzzedRecordsReencodeToTheSameFields) {
  const std::vector<std::string> valid = validRecords();
  for (const std::string& record : valid) {
    EXPECT_TRUE(Reader(record).ok()) << record;
  }
  Rng rng(0x6b76f022ULL);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string input = i % 2 == 0
                                  ? randomSoup(rng, 64)
                                  : mutate(rng, valid[rng.uniform(valid.size())]);
    decodeAsEveryPayload(input);
    const Reader fields(input);
    if (!fields.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    Writer writer;
    for (const auto& [key, value] : fields) writer.add(key, value);
    const std::string again = writer.take();
    const Reader reread(again);
    ASSERT_TRUE(reread.ok()) << input;
    ASSERT_TRUE(std::equal(fields.begin(), fields.end(), reread.begin(), reread.end()))
        << input;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

/// What the Writer must make of a value: ';' and '\n' escaped, every
/// other byte as it was.
std::string escaped(std::string_view value) {
  std::string out;
  for (const char c : value) {
    out += c == ';' ? "%3B" : c == '\n' ? "%0A" : std::string(1, c);
  }
  return out;
}

TEST(KvTest, FuzzedValuesComeBackEscaped) {
  Rng rng(0x6b76f023ULL);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::pair<std::string, std::string>> written(
        1 + rng.uniform(Reader::kMaxFields));
    Writer writer;
    for (std::size_t k = 0; k < written.size(); ++k) {
      // Keys are the program's own names: unique, and free of ';', '='
      // and '\n', which the Writer does not escape in a key.
      std::string key(1, 'k');
      key.append(std::to_string(k)).append(rng.uniform(3), 'x');
      written[k] = {std::move(key), randomSoup(rng, 24)};
      writer.add(written[k].first, written[k].second);
    }
    const std::string record = writer.take();
    const Reader fields(record);
    ASSERT_TRUE(fields.ok()) << record;
    ASSERT_EQ(fieldCount(fields), written.size()) << record;
    std::size_t k = 0;
    for (const auto& [key, value] : fields) {
      EXPECT_EQ(key, written[k].first) << record;
      EXPECT_EQ(value, escaped(written[k].second)) << record;
      ++k;
    }
  }
}

}  // namespace
}  // namespace lidc::kv
