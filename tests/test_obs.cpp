// Tests for the observability layer (src/obs): flit-lifecycle tracing,
// the Chrome trace-event export, and the stall-cause metrics registry.
//
// This binary links rnoc_traced, so RNOC_TRACE (and RNOC_INVARIANTS) are
// always defined here regardless of the tree-wide options. The conservation
// tests enforce the attribution contract documented in obs/metrics.hpp and
// cross-check it against both RouterStats and the runtime invariant checker.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "campaign/json.hpp"
#include "fault/fault_model.hpp"
#include "noc/invariants.hpp"
#include "noc/mesh.hpp"
#include "obs/observer.hpp"

namespace rnoc::noc {
namespace {

PacketDesc packet(PacketId id, NodeId src, NodeId dst, int flits) {
  PacketDesc p;
  p.id = id;
  p.src = src;
  p.dst = dst;
  p.size_flits = flits;
  return p;
}

MeshConfig traced_config(int w, int h, std::uint64_t sample) {
  MeshConfig cfg;
  cfg.dims = {w, h};
  cfg.router.mode = core::RouterMode::Protected;
  cfg.obs.trace_sample = sample;
  return cfg;
}

/// Drives every node's NI with one packet to a shuffled destination and
/// steps until the network drains (bounded). Returns the final cycle.
Cycle run_all_to_all(Mesh& m, int flits, Cycle horizon = 2000) {
  PacketId id = 1;
  for (NodeId n = 0; n < m.nodes(); ++n)
    m.ni(n).enqueue(packet(id++, n, (n + 5) % m.nodes(), flits));
  Cycle now = 0;
  for (; now < horizon; ++now) {
    m.step(now);
    if (now > 50 && m.flits_in_network() == 0) break;
  }
  EXPECT_EQ(m.flits_in_network(), 0) << "network failed to drain";
  return now;
}

// --- TraceBuffer unit behaviour ---

TEST(TraceBuffer, SamplingPredicateAndDisable) {
  obs::TraceBuffer every4(4, 16);
  EXPECT_TRUE(every4.enabled());
  EXPECT_TRUE(every4.sampled(0));
  EXPECT_TRUE(every4.sampled(8));
  EXPECT_FALSE(every4.sampled(3));

  obs::TraceBuffer off(0, 16);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.sampled(0));
  EXPECT_FALSE(off.sampled(4));
}

TEST(TraceBuffer, RingKeepsNewestAndCountsDrops) {
  obs::TraceBuffer buf(1, 4);
  for (Cycle c = 0; c < 10; ++c)
    buf.record({c, /*packet=*/c, /*router=*/0, 0, 0, obs::EventKind::Rc});
  EXPECT_EQ(buf.recorded(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  const std::vector<obs::TraceEvent> kept = buf.events();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i)
    EXPECT_EQ(kept[i].cycle, static_cast<Cycle>(6 + i));  // Oldest first.
}

// --- Mesh-level tracing ---

TEST(ObsTrace, EventsAreCycleOrderedWithFullLifecycles) {
  Mesh m(traced_config(4, 4, /*sample=*/1));
  run_all_to_all(m, 4);
  const std::vector<obs::TraceEvent> ev = m.observer().trace().events();
  ASSERT_FALSE(ev.empty());
  EXPECT_EQ(m.observer().trace().dropped(), 0u);

  // Ring order is recording order, so cycles must be nondecreasing.
  for (std::size_t i = 1; i < ev.size(); ++i)
    EXPECT_LE(ev[i - 1].cycle, ev[i].cycle) << "at event " << i;

  // Every packet was sampled and retained: lifecycles must be complete.
  std::map<PacketId, std::vector<obs::EventKind>> by_packet;
  for (const obs::TraceEvent& e : ev)
    by_packet[e.packet].push_back(e.kind);
  EXPECT_EQ(by_packet.size(), static_cast<std::size_t>(m.nodes()));
  for (const auto& [id, kinds] : by_packet) {
    EXPECT_EQ(kinds.front(), obs::EventKind::Inject) << "packet " << id;
    EXPECT_EQ(kinds.back(), obs::EventKind::Eject) << "packet " << id;
    // Each hop buffers the head flit before routing it.
    std::size_t bufs = 0, rcs = 0;
    for (obs::EventKind k : kinds) {
      if (k == obs::EventKind::BufWrite) ++bufs;
      if (k == obs::EventKind::Rc) ++rcs;
    }
    EXPECT_GE(bufs, 1u) << "packet " << id;
    EXPECT_EQ(bufs, rcs) << "packet " << id;
  }
}

TEST(ObsTrace, ChromeExportIsValidBalancedJson) {
  Mesh m(traced_config(4, 4, /*sample=*/1));
  run_all_to_all(m, 4);
  const std::string doc = m.observer().chrome_trace_json();

  const campaign::JsonValue root = campaign::parse_json(doc);
  ASSERT_TRUE(root.is(campaign::JsonValue::Type::Object));
  EXPECT_NE(root.find("displayTimeUnit"), nullptr);
  const campaign::JsonValue& events = root.at("traceEvents");
  ASSERT_TRUE(events.is(campaign::JsonValue::Type::Array));
  ASSERT_FALSE(events.items().empty());

  std::size_t begins = 0, ends = 0, instants = 0, meta = 0;
  // Within one (pid, tid) lane, B/E timestamps must be nondecreasing and
  // properly nested (this is what makes the file loadable in Perfetto).
  std::map<std::pair<std::int64_t, std::int64_t>, double> lane_ts;
  std::map<std::pair<std::int64_t, std::int64_t>, int> lane_depth;
  for (const campaign::JsonValue& e : events.items()) {
    const std::string& ph = e.at("ph").as_string();
    EXPECT_FALSE(e.at("name").as_string().empty());
    ASSERT_NE(e.find("pid"), nullptr);
    if (ph == "M") {
      ++meta;
      continue;
    }
    ASSERT_TRUE(ph == "B" || ph == "E" || ph == "i") << "phase " << ph;
    const std::pair<std::int64_t, std::int64_t> lane{e.at("pid").as_int(),
                                                     e.at("tid").as_int()};
    const double ts = e.at("ts").as_number();
    if (ph == "i") {
      ++instants;
      continue;
    }
    auto [it, fresh] = lane_ts.try_emplace(lane, ts);
    if (!fresh) {
      EXPECT_LE(it->second, ts) << "lane ts went backwards";
      it->second = ts;
    }
    if (ph == "B") {
      ++begins;
      ++lane_depth[lane];
    } else {
      ++ends;
      EXPECT_GT(lane_depth[lane]--, 0) << "E without matching B";
    }
  }
  EXPECT_GT(meta, 0u);
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
  for (const auto& [lane, depth] : lane_depth)
    EXPECT_EQ(depth, 0) << "unclosed span in lane (" << lane.first << ","
                        << lane.second << ")";
  (void)instants;
}

TEST(ObsTrace, SamplingIsDeterministicAndExact) {
  // Identical runs record identical event streams.
  Mesh a(traced_config(4, 4, /*sample=*/1));
  Mesh b(traced_config(4, 4, /*sample=*/1));
  run_all_to_all(a, 3);
  run_all_to_all(b, 3);
  EXPECT_EQ(a.observer().trace().events(), b.observer().trace().events());

  // Sampling never perturbs the simulation, so a sample-4 run records
  // exactly the sample-1 stream filtered to packets with id % 4 == 0.
  Mesh c(traced_config(4, 4, /*sample=*/4));
  run_all_to_all(c, 3);
  std::vector<obs::TraceEvent> expected;
  for (const obs::TraceEvent& e : a.observer().trace().events())
    if (e.packet % 4 == 0) expected.push_back(e);
  EXPECT_EQ(c.observer().trace().events(), expected);
}

TEST(ObsTrace, EventCoreRecordsSweepIdenticalTraceUnderSampling) {
  // PR-6 combination: the EventDriven core's fused stepping is replaced by a
  // stage-major pass in traced builds precisely so the cross-router ordering
  // of trace events inside a cycle matches the sweep. Under sampling, both
  // cores must record byte-identical event streams and identical
  // per-router stall metrics.
  const SimCore cores[] = {SimCore::FullSweep, SimCore::EventDriven};
  std::vector<obs::TraceEvent> streams[2];
  std::uint64_t stalls[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    MeshConfig cfg = traced_config(4, 4, /*sample=*/2);
    cfg.core = cores[i];
    Mesh m(cfg);
    run_all_to_all(m, 3);
    streams[i] = m.observer().trace().events();
    const auto per_router = m.stall_cycles_per_router();
    for (const std::uint64_t s : per_router) stalls[i] += s;
  }
  EXPECT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(stalls[0], stalls[1]);
}

TEST(ObsTrace, SampleZeroRecordsNoEventsButKeepsMetrics) {
  Mesh m(traced_config(4, 4, /*sample=*/0));
  run_all_to_all(m, 4);
  EXPECT_EQ(m.observer().trace().recorded(), 0u);
  EXPECT_TRUE(m.observer().trace().events().empty());
  // The metrics half stays on: the registry saw pipeline activity.
  std::uint64_t va_requests = 0;
  for (NodeId n = 0; n < m.nodes(); ++n)
    va_requests += m.observer().metrics().requests(n, obs::Stage::Va);
  EXPECT_GT(va_requests, 0u);
  EXPECT_GT(m.observer().metrics().hop_latency().total(), 0u);
}

// --- Stall-cause attribution ---

TEST(ObsMetrics, StallAttributionConservesUnderLoadAndFaults) {
  // Hotspot traffic plus injected faults exercises every stall cause; the
  // invariant checker runs alongside and must stay silent.
  MeshConfig cfg = traced_config(4, 4, /*sample=*/0);
  Mesh m(cfg);
  m.invariant_checker().set_handler(NocChecker::throwing_handler());
  for (int port = 0; port < kMeshPorts; ++port)
    m.router(5).faults().inject({fault::SiteType::Va2Arbiter, port, 0});
  m.router(10).faults().inject({fault::SiteType::Sa1Arbiter, 2, 0});
  m.notify_fault(5);
  m.notify_fault(10);

  PacketId id = 1;
  for (int round = 0; round < 4; ++round)
    for (NodeId n = 1; n < m.nodes(); ++n)
      m.ni(n).enqueue(packet(id++, n, 0, 4));  // Everyone hammers node 0.
  Cycle now = 0;
  ASSERT_NO_THROW({
    for (; now < 4000; ++now) {
      m.step(now);
      if (now > 50 && m.flits_in_network() == 0) break;
    }
  });
  ASSERT_EQ(m.flits_in_network(), 0);

  const obs::MetricsRegistry& reg = m.observer().metrics();
  constexpr obs::Stage kStages[] = {obs::Stage::Rc, obs::Stage::Va,
                                    obs::Stage::Sa, obs::Stage::St};
  constexpr obs::StallCause kCauses[] = {
      obs::StallCause::NoCredit, obs::StallCause::LostVa,
      obs::StallCause::LostSa, obs::StallCause::FaultBlocked,
      obs::StallCause::Starved};
  std::uint64_t total_requests = 0, total_stalled = 0;
  for (NodeId r = 0; r < m.nodes(); ++r) {
    std::uint64_t router_stalls = 0;
    for (obs::Stage s : kStages) {
      const std::uint64_t req = reg.requests(r, s);
      const std::uint64_t grant = reg.grants(r, s);
      ASSERT_GE(req, grant) << "router " << r;
      std::uint64_t causes = 0;
      for (obs::StallCause c : kCauses) causes += reg.stalls(r, s, c);
      // The contract from obs/metrics.hpp: every requester that failed to
      // advance is charged exactly one cause.
      EXPECT_EQ(req - grant, causes)
          << "router " << r << " stage " << obs::stage_name(s);
      router_stalls += causes;
      total_requests += req;
    }
    EXPECT_EQ(reg.stall_cycles(r), router_stalls) << "router " << r;
  }
  for (obs::StallCause c : kCauses) total_stalled += reg.total_stalls(c);
  EXPECT_GT(total_requests, 0u);
  EXPECT_GT(total_stalled, 0u) << "hotspot load produced no stalls";

  // Cross-check against the independently-collected RouterStats: every
  // fault-attributed stall pairs 1:1 with a blocked-VC cycle or a VA2
  // retry, and vice versa.
  std::uint64_t blocked = 0;
  for (NodeId r = 0; r < m.nodes(); ++r) {
    const RouterStats& st = m.router(r).stats();
    blocked += st.blocked_vc_cycles + st.va2_retries;
  }
  EXPECT_EQ(reg.total_stalls(obs::StallCause::FaultBlocked), blocked);
  EXPECT_GT(blocked, 0u) << "injected faults never blocked anything";
}

TEST(ObsMetrics, FaultAttributionIsLocalizedToFaultedRouter) {
  // Clean run: nothing may be charged to FaultBlocked anywhere.
  {
    Mesh m(traced_config(4, 4, /*sample=*/0));
    run_all_to_all(m, 4);
    for (NodeId r = 0; r < m.nodes(); ++r) {
      for (int s = 0; s < obs::kStageCount; ++s)
        EXPECT_EQ(m.observer().metrics().stalls(
                      r, static_cast<obs::Stage>(s),
                      obs::StallCause::FaultBlocked),
                  0u)
            << "router " << r;
    }
  }
  // Faulted run: VA2 arbiter faults on router 5 only; fault-attributed
  // stall cycles must be nonzero there and zero everywhere else.
  {
    Mesh m(traced_config(4, 4, /*sample=*/1));
    for (int port = 0; port < kMeshPorts; ++port)
      m.router(5).faults().inject({fault::SiteType::Va2Arbiter, port, 0});
    m.notify_fault(5);
    run_all_to_all(m, 4);
    const obs::MetricsRegistry& reg = m.observer().metrics();
    std::uint64_t at_faulted = 0;
    for (NodeId r = 0; r < m.nodes(); ++r) {
      std::uint64_t fb = 0;
      for (int s = 0; s < obs::kStageCount; ++s)
        fb += reg.stalls(r, static_cast<obs::Stage>(s),
                         obs::StallCause::FaultBlocked);
      if (r == 5) {
        at_faulted = fb;
      } else {
        EXPECT_EQ(fb, 0u) << "fault stall leaked to router " << r;
      }
    }
    EXPECT_GT(at_faulted, 0u) << "faulted router recorded no fault stalls";
    // The trace agrees: FaultBlock events name router 5 exclusively.
    bool saw_fault_event = false;
    for (const obs::TraceEvent& e : m.observer().trace().events()) {
      if (e.kind != obs::EventKind::FaultBlock) continue;
      saw_fault_event = true;
      EXPECT_EQ(e.router, 5);
    }
    EXPECT_TRUE(saw_fault_event);
  }
}

TEST(ObsMetrics, NamedInstrumentsAndSnapshots) {
  Mesh m(traced_config(3, 3, /*sample=*/1));
  obs::MetricsRegistry& reg = m.observer().metrics();
  reg.counter_add("widgets", 2);
  reg.counter_add("widgets");
  EXPECT_EQ(reg.counter("widgets"), 3u);
  EXPECT_EQ(reg.counter("absent"), 0u);
  reg.gauge_set("load", 0.75);
  EXPECT_DOUBLE_EQ(reg.gauge("load"), 0.75);
  run_all_to_all(m, 3);

  const std::string text = reg.snapshot_text();
  EXPECT_NE(text.find("totals:"), std::string::npos);
  EXPECT_NE(text.find("hop latency"), std::string::npos);

  // The JSON snapshot parses and carries the named counters plus the same
  // stall totals as the accessors.
  const campaign::JsonValue root = campaign::parse_json(reg.snapshot_json());
  ASSERT_TRUE(root.is(campaign::JsonValue::Type::Object));
  EXPECT_EQ(root.at("counters").at("widgets").as_int(), 3);
  const campaign::JsonValue& totals = root.at("totals");
  for (int c = 0; c < obs::kStallCauseCount; ++c) {
    const obs::StallCause cc = static_cast<obs::StallCause>(c);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  totals.at(obs::stall_cause_name(cc)).as_int()),
              reg.total_stalls(cc))
        << obs::stall_cause_name(cc);
  }
}

}  // namespace
}  // namespace rnoc::noc
