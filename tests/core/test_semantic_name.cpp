#include "core/semantic_name.hpp"

#include <gtest/gtest.h>

namespace lidc::core {
namespace {

TEST(SemanticNameTest, PaperExampleParses) {
  // The exact example from Fig. 2 / SIII-C.
  auto request =
      ComputeRequest::fromName(ndn::Name("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST"));
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->app, "BLAST");
  EXPECT_EQ(request->cpu, MilliCpu::fromCores(6));
  EXPECT_EQ(request->memory, ByteSize::fromGiB(4));
  EXPECT_TRUE(request->params.empty());
}

TEST(SemanticNameTest, RoundTripIsCanonical) {
  ComputeRequest request;
  request.app = "BLAST";
  request.cpu = MilliCpu::fromCores(2);
  request.memory = ByteSize::fromGiB(4);
  request.params["srr_id"] = "SRR2931415";
  const ndn::Name name = request.toName();
  EXPECT_EQ(name.toUri(),
            "/ndn/k8s/compute/app=BLAST&cpu=2&mem=4&srr_id=SRR2931415");
  auto parsed = ComputeRequest::fromName(name);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->toName(), name);
}

TEST(SemanticNameTest, KeyOrderDoesNotMatter) {
  auto a = ComputeRequest::fromName(
      ndn::Name("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST"));
  auto b = ComputeRequest::fromName(
      ndn::Name("/ndn/k8s/compute/app=BLAST&cpu=6&mem=4"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Canonical re-encoding is identical: the cache-key property.
  EXPECT_EQ(a->toName(), b->toName());
}

TEST(SemanticNameTest, DatasetsAndExtraParams) {
  auto request = ComputeRequest::fromName(ndn::Name(
      "/ndn/k8s/compute/app=BLAST&cpu=2&mem=4&dataset=human-ref&dataset=rice&verbose=1"));
  ASSERT_TRUE(request.ok());
  ASSERT_EQ(request->datasets.size(), 2u);
  EXPECT_EQ(request->datasets[0], "human-ref");
  EXPECT_EQ(request->params.at("verbose"), "1");
}

TEST(SemanticNameTest, RequestIdSeparatesFromCanonicalName) {
  ComputeRequest request;
  request.app = "BLAST";
  request.requestId = "alice-17";
  const ndn::Name withId = request.toName();
  EXPECT_EQ(withId.size(), kComputePrefix.size() + 2);
  EXPECT_EQ(withId[withId.size() - 1].toString(), "req=alice-17");
  EXPECT_EQ(request.canonicalName(), ndn::Name("/ndn/k8s/compute/app=BLAST"));

  auto parsed = ComputeRequest::fromName(withId);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->requestId, "alice-17");
}

TEST(SemanticNameTest, FractionalAndMillicoreValues) {
  auto request = ComputeRequest::fromName(
      ndn::Name("/ndn/k8s/compute/app=X&cpu=500m&mem=1.5"));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->cpu.millicores(), 500u);
  EXPECT_EQ(request->memory.bytes(),
            static_cast<std::uint64_t>(1.5 * (1ULL << 30)));
}

TEST(SemanticNameTest, MissingAppRejected) {
  EXPECT_FALSE(
      ComputeRequest::fromName(ndn::Name("/ndn/k8s/compute/mem=4&cpu=6")).ok());
}

TEST(SemanticNameTest, MalformedPairsRejected) {
  EXPECT_FALSE(
      ComputeRequest::fromName(ndn::Name("/ndn/k8s/compute/app=BLAST&junk")).ok());
  EXPECT_FALSE(
      ComputeRequest::fromName(ndn::Name("/ndn/k8s/compute/app=&cpu=1")).ok());
  EXPECT_FALSE(
      ComputeRequest::fromName(ndn::Name("/ndn/k8s/compute/app=X&cpu=abc")).ok());
  EXPECT_FALSE(
      ComputeRequest::fromName(ndn::Name("/ndn/k8s/compute/app=X&mem=zz")).ok());
}

TEST(SemanticNameTest, WrongPrefixRejected) {
  EXPECT_FALSE(ComputeRequest::fromName(ndn::Name("/ndn/k8s/data/app=X")).ok());
  EXPECT_FALSE(ComputeRequest::fromName(ndn::Name("/ndn/k8s/compute")).ok());
}

TEST(SemanticNameTest, StatusNames) {
  const ndn::Name name = makeStatusName("cluster-a", "job-cluster-a-7");
  EXPECT_EQ(name.toUri(), "/ndn/k8s/status/cluster-a/job-cluster-a-7");
  auto parsed = parseStatusName(name);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->first, "cluster-a");
  EXPECT_EQ(parsed->second, "job-cluster-a-7");

  EXPECT_FALSE(parseStatusName(ndn::Name("/ndn/k8s/status/only-cluster")).ok());
  EXPECT_FALSE(parseStatusName(ndn::Name("/ndn/k8s/compute/x/y")).ok());
}

TEST(SemanticNameTest, DataNames) {
  EXPECT_EQ(makeDataName("results/job-1").toUri(), "/ndn/k8s/data/results/job-1");
  EXPECT_EQ(makeDataName("/leading/slash/").toUri(), "/ndn/k8s/data/leading/slash");
}

}  // namespace
}  // namespace lidc::core
