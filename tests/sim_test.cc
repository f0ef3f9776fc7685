#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "sim/fingerprint.h"
#include "sim/noise.h"
#include "sim/rfid.h"
#include "sim/road_network.h"
#include "sim/sensor_field.h"
#include "sim/trajectory_sim.h"

namespace sidq {
namespace sim {
namespace {

using geometry::BBox;
using geometry::Point;

// ------------------------------------------------------------ RoadNetwork

TEST(RoadNetworkTest, AddNodesAndEdges) {
  RoadNetwork net;
  const NodeId a = net.AddNode(Point(0, 0));
  const NodeId b = net.AddNode(Point(100, 0));
  ASSERT_TRUE(net.AddEdge(a, b).ok());
  EXPECT_EQ(net.num_nodes(), 2u);
  EXPECT_EQ(net.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(net.edge(0).length, 100.0);
  EXPECT_EQ(net.Opposite(0, a), b);
  EXPECT_FALSE(net.AddEdge(a, a).ok());
  EXPECT_FALSE(net.AddEdge(a, 99).ok());
}

TEST(RoadNetworkTest, ShortestPathOnSquare) {
  RoadNetwork net;
  // 0 -- 1
  // |    |
  // 2 -- 3, with the 0-1 edge long and 0-2-3-1 short overall.
  const NodeId n0 = net.AddNode(Point(0, 0));
  const NodeId n1 = net.AddNode(Point(100, 0));
  const NodeId n2 = net.AddNode(Point(0, 10));
  const NodeId n3 = net.AddNode(Point(100, 10));
  ASSERT_TRUE(net.AddEdge(n0, n1).ok());
  ASSERT_TRUE(net.AddEdge(n0, n2).ok());
  ASSERT_TRUE(net.AddEdge(n2, n3).ok());
  ASSERT_TRUE(net.AddEdge(n3, n1).ok());
  const auto path = net.ShortestPath(n0, n1);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(), (std::vector<NodeId>{n0, n1}));
  EXPECT_NEAR(net.ShortestPathLength(n0, n3), 110.0, 1e-9);
}

TEST(RoadNetworkTest, ShortestPathUnreachable) {
  RoadNetwork net;
  const NodeId a = net.AddNode(Point(0, 0));
  const NodeId b = net.AddNode(Point(10, 0));
  net.AddNode(Point(1000, 1000));  // isolated
  ASSERT_TRUE(net.AddEdge(a, b).ok());
  EXPECT_FALSE(net.ShortestPath(a, 2).ok());
  EXPECT_TRUE(std::isinf(net.ShortestPathLength(a, 2)));
}

TEST(RoadNetworkTest, NearestEdgeAndProjection) {
  Rng rng(1);
  RoadNetwork net = MakeGridRoadNetwork(5, 5, 100.0, 0.0, 0.0, &rng);
  const auto e = net.NearestEdge(Point(50, 2));
  ASSERT_TRUE(e.ok());
  EXPECT_LE(net.DistanceToEdge(e.value(), Point(50, 2)), 2.0 + 1e-9);
  const Point proj = net.ProjectToEdge(e.value(), Point(50, 2));
  EXPECT_NEAR(proj.y, 0.0, 1e-9);
}

// EdgesNear's edge-cell lookup must return exactly the edges an all-edges
// DistanceToEdge scan finds, each once: on the generator's default cells
// and on cells far smaller than an edge, with probes off the network's
// bounds (negative cell coordinates) and zero radii.
TEST(RoadNetworkTest, EdgesNearMatchesBruteForce) {
  Rng rng(11);
  RoadNetwork net = MakeGridRoadNetwork(8, 8, 100.0, 20.0, 0.1, &rng);
  for (const double cell_size : {100.0, 37.0}) {
    SCOPED_TRACE(::testing::Message() << "cell_size=" << cell_size);
    net.BuildSpatialIndex(cell_size);
    for (int probe = 0; probe < 200; ++probe) {
      const Point p(rng.Uniform(-150.0, 850.0), rng.Uniform(-150.0, 850.0));
      const double radius = probe % 10 == 0 ? 0.0 : rng.Uniform(0.0, 250.0);
      const std::vector<EdgeId> got = net.EdgesNear(p, radius);
      const std::set<EdgeId> got_set(got.begin(), got.end());
      EXPECT_EQ(got_set.size(), got.size()) << "duplicate edge, probe "
                                            << probe;
      std::set<EdgeId> want;
      for (EdgeId e = 0; e < net.num_edges(); ++e) {
        if (net.DistanceToEdge(e, p) <= radius) want.insert(e);
      }
      EXPECT_EQ(got_set, want) << "probe " << probe;
    }
  }
}

TEST(RoadNetworkTest, GridGeneratorConnectivity) {
  Rng rng(2);
  RoadNetwork net = MakeGridRoadNetwork(6, 6, 100.0, 5.0, 0.0, &rng);
  EXPECT_EQ(net.num_nodes(), 36u);
  EXPECT_EQ(net.num_edges(), 60u);  // 2*6*5 with no drops
  // All pairs reachable when no edges dropped.
  EXPECT_TRUE(net.ShortestPath(0, 35).ok());
}

TEST(RoadNetworkTest, RandomRouteLongEnough) {
  Rng rng(3);
  RoadNetwork net = MakeGridRoadNetwork(8, 8, 100.0, 5.0, 0.05, &rng);
  const auto route = RandomRoute(net, 12, &rng);
  ASSERT_TRUE(route.ok());
  EXPECT_GE(route.value().size(), 12u);
  // Route edges must exist.
  for (size_t i = 1; i < route.value().size(); ++i) {
    const NodeId u = route.value()[i - 1];
    const NodeId v = route.value()[i];
    bool found = false;
    for (EdgeId e : net.incident_edges(u)) {
      found = found || net.Opposite(e, u) == v;
    }
    EXPECT_TRUE(found) << "hop " << i;
  }
}

// ----------------------------------------------------- TrajectorySimulator

TEST(TrajectorySimTest, AlongRouteRespectsSpeed) {
  Rng rng(4);
  RoadNetwork net = MakeGridRoadNetwork(6, 6, 200.0, 0.0, 0.0, &rng);
  TrajectorySimulator::Options opts;
  opts.mean_speed_mps = 10.0;
  opts.speed_jitter = 0.0;
  TrajectorySimulator simulator(opts, &rng);
  const auto route = RandomRoute(net, 10, &rng);
  ASSERT_TRUE(route.ok());
  const auto tr = simulator.AlongRoute(net, route.value(), 1);
  ASSERT_TRUE(tr.ok());
  EXPECT_GT(tr->size(), 10u);
  EXPECT_TRUE(tr->IsTimeOrdered());
  for (size_t i = 1; i < tr->size(); ++i) {
    EXPECT_LE(tr->SpeedAt(i), 10.5);
  }
}

TEST(TrajectorySimTest, AlongRouteRejectsBadInput) {
  Rng rng(5);
  RoadNetwork net = MakeGridRoadNetwork(3, 3, 100.0, 0.0, 0.0, &rng);
  TrajectorySimulator simulator({}, &rng);
  EXPECT_FALSE(simulator.AlongRoute(net, {0}, 1).ok());
  EXPECT_FALSE(simulator.AlongRoute(net, {0, 999}, 1).ok());
}

TEST(TrajectorySimTest, RandomWaypointStaysInBounds) {
  Rng rng(6);
  TrajectorySimulator simulator({}, &rng);
  const BBox bounds(0, 0, 500, 500);
  const Trajectory tr = simulator.RandomWaypoint(bounds, 200, 9);
  EXPECT_EQ(tr.size(), 200u);
  EXPECT_EQ(tr.object_id(), 9u);
  for (const auto& pt : tr.points()) {
    EXPECT_TRUE(bounds.Expanded(1e-6).Contains(pt.p));
  }
}

TEST(TrajectorySimTest, MakeFleet) {
  Rng rng(7);
  const Fleet fleet = MakeFleet(6, 6, 150.0, 5, 8, &rng);
  EXPECT_EQ(fleet.trajectories.size(), 5u);
  for (const auto& tr : fleet.trajectories) {
    EXPECT_GT(tr.size(), 5u);
  }
}

// ------------------------------------------------------------- Injectors

Trajectory StraightLine(int n) {
  Trajectory tr(1);
  for (int i = 0; i < n; ++i) {
    tr.AppendUnordered(TrajectoryPoint(i * 1000, Point(i * 10.0, 0.0)));
  }
  return tr;
}

TEST(NoiseTest, GpsNoiseMagnitude) {
  Rng rng(8);
  const Trajectory truth = StraightLine(500);
  const Trajectory noisy = AddGpsNoise(truth, 15.0, &rng);
  ASSERT_EQ(noisy.size(), truth.size());
  const double err = MeanErrorBetween(truth, noisy).value();
  // Mean of |N2(0, 15^2 I)| is 15 * sqrt(pi/2) ~ 18.8.
  EXPECT_NEAR(err, 18.8, 2.5);
  EXPECT_DOUBLE_EQ(noisy[0].accuracy, 15.0);
}

TEST(NoiseTest, OutliersLabelled) {
  Rng rng(9);
  const Trajectory truth = StraightLine(1000);
  std::vector<bool> labels;
  const Trajectory dirty =
      AddOutliers(truth, 0.10, 100.0, 200.0, &rng, &labels);
  ASSERT_EQ(labels.size(), truth.size());
  size_t count = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i]) {
      ++count;
      const double d = geometry::Distance(dirty[i].p, truth[i].p);
      EXPECT_GE(d, 100.0 - 1e-9);
      EXPECT_LE(d, 200.0 + 1e-9);
    } else {
      EXPECT_EQ(dirty[i].p, truth[i].p);
    }
  }
  EXPECT_NEAR(static_cast<double>(count) / labels.size(), 0.10, 0.03);
}

TEST(NoiseTest, DropKeepsEndpoints) {
  Rng rng(10);
  const Trajectory truth = StraightLine(100);
  const Trajectory sparse = DropSamples(truth, 0.5, &rng);
  EXPECT_LT(sparse.size(), 75u);
  EXPECT_EQ(sparse.front().t, truth.front().t);
  EXPECT_EQ(sparse.back().t, truth.back().t);
}

TEST(NoiseTest, ResampleInterval) {
  const Trajectory truth = StraightLine(100);
  const Trajectory coarse = Resample(truth, 5000);
  // 0, 5000, ..., 95000 plus the preserved final point at 99000.
  EXPECT_EQ(coarse.size(), 21u);
  for (size_t i = 1; i + 1 < coarse.size(); ++i) {
    EXPECT_GE(coarse[i].t - coarse[i - 1].t, 5000);
  }
}

TEST(NoiseTest, DuplicatesIncreaseSize) {
  Rng rng(11);
  const Trajectory truth = StraightLine(200);
  const Trajectory dup = DuplicateSamples(truth, 0.3, &rng);
  EXPECT_GT(dup.size(), truth.size());
  EXPECT_TRUE(dup.IsTimeOrdered());
}

TEST(NoiseTest, JitterBreaksOrder) {
  Rng rng(12);
  const Trajectory truth = StraightLine(200);
  const Trajectory jittered = JitterTimestamps(truth, 2000.0, &rng);
  EXPECT_FALSE(jittered.IsTimeOrdered());
}

TEST(NoiseTest, QuantizeSnapsToGrid) {
  const Trajectory truth = StraightLine(10);
  const Trajectory q = QuantizeCoordinates(truth, 25.0);
  for (const auto& pt : q.points()) {
    EXPECT_NEAR(std::fmod(pt.p.x, 25.0), 0.0, 1e-9);
  }
}

TEST(NoiseTest, TruncateTailShortens) {
  const Trajectory truth = StraightLine(100);
  const Trajectory stale = TruncateTail(truth, 30'000);
  EXPECT_EQ(stale.back().t, truth.back().t - 30'000);
}

// ------------------------------------------------------------ SensorField

TEST(SensorFieldTest, SpatialAutocorrelation) {
  Rng rng(13);
  const BBox bounds(0, 0, 3000, 3000);
  const auto field =
      ScalarField::MakeRandom(bounds, 4, 10.0, 40.0, 400, 800, 3600, &rng);
  // Nearby points have closer values than distant ones, on average.
  double near_diff = 0.0, far_diff = 0.0;
  for (int i = 0; i < 100; ++i) {
    const Point p(rng.Uniform(500, 2500), rng.Uniform(500, 2500));
    const Point q_near(p.x + 20, p.y);
    const Point q_far(p.x + 1500 > 3000 ? p.x - 1500 : p.x + 1500, p.y);
    near_diff += std::abs(field.Value(p, 0) - field.Value(q_near, 0));
    far_diff += std::abs(field.Value(p, 0) - field.Value(q_far, 0));
  }
  EXPECT_LT(near_diff, far_diff);
}

TEST(SensorFieldTest, SampleFieldShape) {
  Rng rng(14);
  const BBox bounds(0, 0, 1000, 1000);
  const auto field =
      ScalarField::MakeRandom(bounds, 2, 5.0, 20.0, 200, 400, 3600, &rng);
  const auto sensors = DeploySensors(bounds, 10, &rng);
  const StDataset ds = SampleField(field, sensors, 0, 60'000, 30, "pm25");
  EXPECT_EQ(ds.num_sensors(), 10u);
  EXPECT_EQ(ds.TotalRecords(), 300u);
  EXPECT_EQ(ds.field_name(), "pm25");
}

TEST(SensorFieldTest, SpikesLabelled) {
  Rng rng(15);
  const BBox bounds(0, 0, 1000, 1000);
  const auto field =
      ScalarField::MakeRandom(bounds, 2, 5.0, 20.0, 200, 400, 3600, &rng);
  const StDataset truth =
      SampleField(field, DeploySensors(bounds, 20, &rng), 0, 60'000, 50,
                  "pm25");
  std::vector<std::vector<bool>> labels;
  const StDataset spiked = AddValueSpikes(truth, 0.05, 50.0, &rng, &labels);
  ASSERT_EQ(labels.size(), 20u);
  size_t total = 0, flagged = 0;
  for (size_t s = 0; s < labels.size(); ++s) {
    for (size_t i = 0; i < labels[s].size(); ++i) {
      ++total;
      if (labels[s][i]) {
        ++flagged;
        EXPECT_NEAR(std::abs(spiked.series()[s][i].value -
                             truth.series()[s][i].value),
                    50.0, 1e-9);
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(flagged) / total, 0.05, 0.02);
}

TEST(SensorFieldTest, StuckSensors) {
  Rng rng(16);
  const BBox bounds(0, 0, 1000, 1000);
  const auto field =
      ScalarField::MakeRandom(bounds, 2, 5.0, 20.0, 200, 400, 3600, &rng);
  const StDataset truth =
      SampleField(field, DeploySensors(bounds, 30, &rng), 0, 60'000, 40,
                  "pm25");
  std::vector<bool> stuck;
  const StDataset dirty = AddStuckSensors(truth, 0.5, &rng, &stuck);
  ASSERT_EQ(stuck.size(), 30u);
  size_t stuck_count = 0;
  for (size_t s = 0; s < stuck.size(); ++s) {
    if (!stuck[s]) continue;
    ++stuck_count;
    const auto& recs = dirty.series()[s].records();
    // The tail must contain at least two equal consecutive values.
    EXPECT_EQ(recs.back().value, recs[recs.size() - 2].value);
  }
  EXPECT_GT(stuck_count, 5u);
}

TEST(SensorFieldTest, DropSensorsKeepsAtLeastOne) {
  Rng rng(17);
  const BBox bounds(0, 0, 500, 500);
  const auto field =
      ScalarField::MakeRandom(bounds, 1, 5.0, 10.0, 100, 200, 3600, &rng);
  const StDataset truth =
      SampleField(field, DeploySensors(bounds, 10, &rng), 0, 60'000, 5,
                  "x");
  const StDataset few = DropSensors(truth, 0.0, &rng);
  EXPECT_EQ(few.num_sensors(), 1u);
}

// ------------------------------------------------------------- RSSI world

TEST(RssiWorldTest, PathLossMonotone) {
  std::vector<AccessPoint> aps{{Point(0, 0), -30.0, 3.0}};
  const RssiWorld world(std::move(aps));
  EXPECT_GT(world.TrueRssi(0, Point(10, 0)), world.TrueRssi(0, Point(100, 0)));
  EXPECT_DOUBLE_EQ(world.TrueRssi(0, Point(0.5, 0)), -30.0);  // d floored at 1
}

TEST(RssiWorldTest, MeasureNoise) {
  Rng rng(18);
  const RssiWorld world =
      RssiWorld::MakeRandom(BBox(0, 0, 100, 100), 5, &rng);
  const auto m = world.Measure(Point(50, 50), 2.0, &rng);
  EXPECT_EQ(m.size(), 5u);
}

TEST(RssiWorldTest, FingerprintDatabaseLayout) {
  Rng rng(19);
  const BBox bounds(0, 0, 100, 80);
  const RssiWorld world = RssiWorld::MakeRandom(bounds, 6, &rng);
  const auto db = BuildFingerprintDatabase(world, bounds, 10, 8, 4, 2.0, &rng);
  EXPECT_EQ(db.size(), 80u);
  EXPECT_EQ(db.front().rssi.size(), 6u);
  // Cell centres are inside the bounds.
  for (const auto& fp : db) {
    EXPECT_TRUE(bounds.Contains(fp.p));
  }
}

// ------------------------------------------------------------------ RFID

TEST(RfidTest, CorridorAdjacency) {
  const RfidDeployment d = RfidDeployment::Corridor(5);
  EXPECT_EQ(d.num_readers(), 5u);
  EXPECT_TRUE(d.Adjacent(0, 1));
  EXPECT_TRUE(d.Adjacent(3, 2));
  EXPECT_FALSE(d.Adjacent(0, 2));
  EXPECT_FALSE(d.Adjacent(0, 0));
}

TEST(RfidTest, RingAdjacencyWraps) {
  const RfidDeployment d = RfidDeployment::Ring(6);
  EXPECT_TRUE(d.Adjacent(0, 5));
  EXPECT_TRUE(d.Adjacent(5, 0));
  EXPECT_FALSE(d.Adjacent(0, 3));
}

TEST(RfidTest, WalkIsAdjacencyRespecting) {
  Rng rng(20);
  const RfidDeployment d = RfidDeployment::Corridor(10);
  const SymbolicTrajectory walk = d.SimulateWalk(1, 20, 3, 1000, &rng);
  EXPECT_EQ(walk.size(), 60u);
  const auto seq = walk.RegionSequence();
  for (size_t i = 1; i < seq.size(); ++i) {
    EXPECT_TRUE(d.Adjacent(seq[i - 1], seq[i]));
  }
}

TEST(RfidTest, DegradeDropsAndGhosts) {
  Rng rng(21);
  const RfidDeployment d = RfidDeployment::Corridor(8);
  const SymbolicTrajectory truth = d.SimulateWalk(1, 30, 4, 1000, &rng);
  const SymbolicTrajectory none = d.Degrade(truth, 0.0, 0.0, &rng);
  EXPECT_EQ(none.size(), truth.size());
  const SymbolicTrajectory fn_only = d.Degrade(truth, 0.4, 0.0, &rng);
  EXPECT_LT(fn_only.size(), truth.size());
  const SymbolicTrajectory fp_only = d.Degrade(truth, 0.0, 0.4, &rng);
  EXPECT_GT(fp_only.size(), truth.size());
  EXPECT_TRUE(fp_only.readings().size() > 0);
}

}  // namespace
}  // namespace sim
}  // namespace sidq
