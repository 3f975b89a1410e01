// Determinism guard for the replica plane: a chaos run (link flaps on
// the staging path) driving periodic scraping, placement planning, and
// repair transfers must produce a byte-identical planLog() and
// scheduler event trace when repeated with the same seed, and a
// different trace under a different seed. This pins the property the
// bench and the failure-recovery experiments lean on: same-seed
// simulations replay exactly. The same world, without chaos, also pins
// that a repair longer than one pass period lands while the loop runs.
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

/// The replica world: an ops host scraping three cluster sites. East's
/// lake is seeded with `datasets`, each `bytes` long and hot, so the
/// policy wants a replica on every cluster and the repair loop stages
/// them onto west and south over the direct inter-cluster links.
struct ReplicaWorld {
  ReplicaWorld(ByteSize lakeCapacity, const std::vector<std::string>& datasets,
               std::size_t bytes) {
    topology.addNode("ops");
    for (const std::string& name : {std::string("east"), std::string("west"),
                                    std::string("south")}) {
      ndn::Forwarder& node = topology.addNode(name);
      // Ops links are slow, so staging traffic prefers the direct
      // inter-cluster links below.
      topology.connect("ops", name, net::LinkParams{sim::Duration::millis(50)});
      Site& site = sites[name];
      site.pvc = std::make_unique<k8s::PersistentVolumeClaim>(name + "-lake",
                                                              lakeCapacity);
      site.store = std::make_unique<datalake::ObjectStore>(*site.pvc);
      site.server = std::make_unique<datalake::FileServer>(node, *site.store,
                                                           kDataPrefix);
      site.catalog = std::make_unique<ReplicaCatalog>(node, name);
      ndn::Name prefix = kReplicaPrefix;
      prefix.append(name);
      topology.installRoutesTo(prefix, name);
    }
    topology.connect("east", "west", net::LinkParams{sim::Duration::millis(15)});
    topology.connect("east", "south", net::LinkParams{sim::Duration::millis(25)});
    topology.installRoutesTo(kDataPrefix, "east");

    for (const std::string& name : datasets) {
      (void)sites["east"].store->put(ndn::Name(name),
                                     std::vector<std::uint8_t>(bytes, 0x5a));
    }
    sites["east"].catalog->syncFromStore(*sites["east"].store, kDataPrefix);
    for (const std::string& name : {std::string("west"), std::string("south")}) {
      sites[name].scheduler = std::make_unique<TransferScheduler>(
          *topology.node(name), *sites[name].store, name, TransferOptions{},
          sites[name].catalog.get());
    }

    directory = std::make_unique<ReplicaDirectory>(*topology.node("ops"));
    for (const auto& [name, site] : sites) directory->watchCluster(name);
    for (const std::string& name : datasets) {
      for (int i = 0; i < 3; ++i) policy.recordAccess(ndn::Name(name));
    }
    repair = std::make_unique<RepairLoop>(sim, *directory, policy);
    repair->addScheduler("west", sites["west"].scheduler.get());
    repair->addScheduler("south", sites["south"].scheduler.get());
  }

  sim::Simulator sim;
  net::Topology topology{sim};
  std::map<std::string, Site> sites;
  std::unique_ptr<ReplicaDirectory> directory;
  PlacementPolicy policy{/*hotReplicas=*/3};
  std::unique_ptr<RepairLoop> repair;
};

/// Runs the full replica loop (scrape -> plan -> repair transfers)
/// under seeded link flaps and returns the combined deterministic
/// signature: planLog plus every scheduler's event trace.
std::string runScenario(std::uint64_t seed) {
  // Both datasets are big enough (512 segments each, ~2 s of windowed
  // retrieval per transfer) that staging spans several flap periods of
  // the schedule below; west's path is the flapped one.
  ReplicaWorld world(ByteSize::fromMiB(32),
                     {"/ndn/k8s/data/ref", "/ndn/k8s/data/reads"}, 4 * 1024 * 1024);
  sim::Simulator& sim = world.sim;

  // Seeded flaps on the east-west staging path while repairs run.
  sim::ChaosEngine chaos(sim, seed);
  chaos.linkFlaps("east-west-flaps", *world.topology.linkBetween("east", "west"),
                  sim::Time() + sim::Duration::millis(500),
                  sim::Time() + sim::Duration::seconds(30),
                  /*meanUp=*/sim::Duration::millis(700),
                  /*meanDown=*/sim::Duration::millis(700));

  world.directory->start();
  world.repair->start();
  sim.runUntil(sim::Time() + sim::Duration::seconds(40));
  world.directory->stop();
  world.repair->stop();
  sim.run();

  std::string signature = "== planLog ==\n" + world.policy.planLog();
  for (const std::string& name : {std::string("south"), std::string("west")}) {
    signature += "== " + name + " ==\n" + world.sites[name].scheduler->eventLog();
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

// A repair whose fetch outlasts the 2 s pass period still lands while
// the loop runs: each pass cancels the previous pass's tag, and its own
// request adopts the cancelled in-flight fetch instead of queueing a
// re-fetch behind it (which the next pass would cancel in turn).
TEST(ReplicaRepairTest, RepairLongerThanOnePassLandsWhileTheLoopRuns) {
  const ndn::Name big("/ndn/k8s/data/big");
  ReplicaWorld world(ByteSize::fromMiB(64), {big.toUri()}, 48 * 1024 * 1024);
  world.directory->start();
  world.repair->start();
  world.sim.runUntil(sim::Time() + sim::Duration::seconds(180));
  EXPECT_TRUE(world.sites["west"].store->contains(big));
  EXPECT_TRUE(world.sites["south"].store->contains(big));
  EXPECT_EQ(world.repair->underReplicated(), 0u);
  world.directory->stop();
  world.repair->stop();
  world.sim.run();
}

}  // namespace
}  // namespace lidc::replica
