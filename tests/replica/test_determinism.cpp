// Determinism guard for the replica plane: a chaos run (link flaps on
// the staging path) driving periodic scraping, placement planning, and
// repair transfers must produce a byte-identical planLog() and
// scheduler event trace when repeated with the same seed, and a
// different trace under a different seed. This pins the property the
// bench and the failure-recovery experiments lean on: same-seed
// simulations replay exactly.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datalake/file_server.hpp"
#include "k8s/pvc.hpp"
#include "net/topology.hpp"
#include "replica/directory.hpp"
#include "replica/policy.hpp"
#include "replica/repair.hpp"
#include "replica/scheduler.hpp"
#include "sim/chaos.hpp"

namespace lidc::replica {
namespace {

const ndn::Name kDataPrefix("/ndn/k8s/data");

/// One cluster site: forwarder, lake, file server, catalog, scheduler.
struct Site {
  std::unique_ptr<k8s::PersistentVolumeClaim> pvc;
  std::unique_ptr<datalake::ObjectStore> store;
  std::unique_ptr<datalake::FileServer> server;
  std::unique_ptr<ReplicaCatalog> catalog;
  std::unique_ptr<TransferScheduler> scheduler;
};

/// Runs the full replica loop (scrape -> plan -> repair transfers)
/// under seeded link flaps and returns the combined deterministic
/// signature: planLog plus every scheduler's event trace.
std::string runScenario(std::uint64_t seed) {
  sim::Simulator sim;
  net::Topology topology(sim);
  topology.addNode("ops");
  std::map<std::string, Site> sites;
  for (const std::string& name : {std::string("east"), std::string("west"),
                                  std::string("south")}) {
    ndn::Forwarder& node = topology.addNode(name);
    // Ops links are slow, so staging traffic prefers the direct
    // inter-cluster links below (the ones chaos flaps).
    topology.connect("ops", name, net::LinkParams{sim::Duration::millis(50)});
    Site& site = sites[name];
    site.pvc = std::make_unique<k8s::PersistentVolumeClaim>(
        name + "-lake", ByteSize::fromMiB(32));
    site.store = std::make_unique<datalake::ObjectStore>(*site.pvc);
    site.server = std::make_unique<datalake::FileServer>(node, *site.store,
                                                         kDataPrefix);
    site.catalog = std::make_unique<ReplicaCatalog>(node, name);
    ndn::Name prefix = kReplicaPrefix;
    prefix.append(name);
    topology.installRoutesTo(prefix, name);
  }
  // The staging path crosses the inter-cluster links.
  topology.connect("east", "west", net::LinkParams{sim::Duration::millis(15)});
  topology.connect("east", "south", net::LinkParams{sim::Duration::millis(25)});
  topology.installRoutesTo(kDataPrefix, "east");

  // East is the seeded lake holding both datasets. They are big enough
  // (512 segments each, ~2 s of windowed retrieval per transfer) that
  // staging spans several flap periods of the schedule below.
  for (const char* name : {"/ndn/k8s/data/ref", "/ndn/k8s/data/reads"}) {
    (void)sites["east"].store->put(ndn::Name(name),
                                   std::vector<std::uint8_t>(4 * 1024 * 1024, 0x5a));
  }
  sites["east"].catalog->syncFromStore(*sites["east"].store, kDataPrefix);
  for (const std::string& name : {std::string("west"), std::string("south")}) {
    sites[name].scheduler = std::make_unique<TransferScheduler>(
        *topology.node(name), *sites[name].store, name, TransferOptions{},
        sites[name].catalog.get());
  }

  ReplicaDirectory directory(*topology.node("ops"));
  for (const auto& [name, site] : sites) directory.watchCluster(name);
  // Hot datasets want a replica on every cluster, so both west's and
  // south's schedulers stage (and west's path is the flapped one).
  PlacementPolicy policy(/*hotReplicas=*/3);
  for (const char* name : {"/ndn/k8s/data/ref", "/ndn/k8s/data/reads"}) {
    for (int i = 0; i < 3; ++i) policy.recordAccess(ndn::Name(name));
  }
  RepairLoop repair(sim, directory, policy);
  repair.addScheduler("west", sites["west"].scheduler.get());
  repair.addScheduler("south", sites["south"].scheduler.get());

  // Seeded flaps on the east-west staging path while repairs run.
  sim::ChaosEngine chaos(sim, seed);
  chaos.linkFlaps("east-west-flaps", *topology.linkBetween("east", "west"),
                  sim::Time() + sim::Duration::millis(500),
                  sim::Time() + sim::Duration::seconds(30),
                  /*meanUp=*/sim::Duration::millis(700),
                  /*meanDown=*/sim::Duration::millis(700));

  directory.start();
  repair.start();
  sim.runUntil(sim::Time() + sim::Duration::seconds(40));
  directory.stop();
  repair.stop();
  sim.run();

  std::string signature = "== planLog ==\n" + policy.planLog();
  for (const std::string& name : {std::string("south"), std::string("west")}) {
    signature += "== " + name + " ==\n" + sites[name].scheduler->eventLog();
  }
  return signature;
}

TEST(ReplicaDeterminismTest, SameSeedReplaysByteIdentically) {
  const std::string first = runScenario(42);
  const std::string second = runScenario(42);
  EXPECT_EQ(first, second);
  // The run did real work: plans were made and transfers traced.
  EXPECT_NE(first.find("plan#2"), std::string::npos);
  EXPECT_NE(first.find("enqueue /ndn/k8s/data/"), std::string::npos);
}

TEST(ReplicaDeterminismTest, DifferentSeedDivergesTheTrace) {
  EXPECT_NE(runScenario(42), runScenario(1042));
}

}  // namespace
}  // namespace lidc::replica
