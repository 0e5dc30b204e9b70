// Unit tests for the observability subsystem: TraceBus ring buffer and
// JSONL round trip, metrics registry snapshots, and the RunChecker's
// verdicts on hand-built traces (including the ISSUE-mandated corrupted
// trace where one message is delivered in two views).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "obs/check.hpp"
#include "obs/dump.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace evs::obs {
namespace {

ProcessId proc(std::uint32_t site, std::uint32_t inc = 0) {
  return ProcessId{SiteId{site}, inc};
}

ViewId view(std::uint64_t epoch, std::uint32_t coord_site) {
  return ViewId{epoch, proc(coord_site)};
}

TEST(TraceBus, DisabledByDefaultAndDropsRecords) {
  TraceBus bus;
  EXPECT_FALSE(bus.enabled());
  bus.record({1, proc(0), EventKind::MessageSent});
  EXPECT_EQ(bus.recorded(), 0u);
  EXPECT_EQ(bus.size(), 0u);
}

TEST(TraceBus, RingOverwritesOldestAndCountsDrops) {
  TraceBus bus(4);
  bus.set_enabled(true);
  for (std::uint64_t i = 0; i < 6; ++i) {
    bus.record({i, proc(0), EventKind::MessageSent, {}, proc(0), i});
  }
  EXPECT_EQ(bus.recorded(), 6u);
  EXPECT_EQ(bus.dropped(), 2u);
  EXPECT_EQ(bus.size(), 4u);
  const std::vector<TraceEvent> events = bus.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: events 0 and 1 were overwritten.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, i + 2) << "slot " << i;
  }
}

TEST(TraceBus, JsonlRoundTripPreservesEveryField) {
  TraceBus bus(8);
  bus.set_enabled(true);
  bus.record({12345, proc(2, 1), EventKind::ViewInstalled, view(7, 2), proc(0),
              3, 42, 9});
  bus.record({99999, proc(0), EventKind::ModeTransition, view(8, 0), proc(1, 4),
              2, 2, 2});
  bus.record({0, proc(1), EventKind::MessageDelivered, view(7, 2), proc(2, 1),
              11, payload_hash({'h', 'i'}), 0});

  std::stringstream ss;
  bus.write_jsonl(ss);
  std::size_t skipped = 7;
  const std::vector<TraceEvent> back = read_jsonl(ss, &skipped);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(back, bus.events());
}

TEST(TraceBus, GroupFacadeLabelsEventsIntoTheSharedRing) {
  // The multi-group host hands each instance a GroupTraceBus; the stack
  // records group-obliviously and every event lands in the one shared
  // ring carrying its group label.
  TraceBus sink(8);
  sink.set_enabled(true);
  GroupTraceBus g1(sink, GroupId{1});
  GroupTraceBus g2(sink, GroupId{2});
  g1.record({10, proc(0), EventKind::MessageSent});
  g2.record({11, proc(0), EventKind::MessageSent});
  sink.record({12, proc(0), EventKind::MessageSent});  // default group

  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].group, GroupId{1});
  EXPECT_EQ(events[1].group, GroupId{2});
  EXPECT_EQ(events[2].group, kDefaultGroup);
  // The facade holds nothing of its own — it is a relabelling forwarder.
  EXPECT_EQ(g1.size(), 0u);

  // The label survives the jsonl round trip (and the default group keeps
  // the pre-multigroup line shape: no "g" field at all).
  std::stringstream ss;
  sink.write_jsonl(ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"g\":1"), std::string::npos);
  EXPECT_NE(text.find("\"g\":2"), std::string::npos);
  std::stringstream back_in(text);
  std::size_t skipped = 9;
  const std::vector<TraceEvent> back = read_jsonl(back_in, &skipped);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(back, events);
}

TEST(TraceBus, ReadJsonlSkipsUnparseableLines) {
  std::stringstream ss;
  ss << "{\"t\":5,\"proc\":\"1:0\",\"kind\":\"MessageSent\",\"view\":\"0:0:0\","
        "\"peer\":\"1:0\",\"seq\":1,\"value\":2,\"aux\":0}\n"
     << "this is not json\n"
     << "{\"t\":6,\"proc\":\"1:0\",\"kind\":\"NoSuchKind\",\"view\":\"0:0:0\","
        "\"peer\":\"1:0\",\"seq\":1,\"value\":2,\"aux\":0}\n"
     << "\n";  // blank lines are not an error
  std::size_t skipped = 0;
  const std::vector<TraceEvent> events = read_jsonl(ss, &skipped);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].time, 5u);
  EXPECT_EQ(events[0].kind, EventKind::MessageSent);
  EXPECT_EQ(skipped, 2u);
}

TEST(TraceBus, EventKindNamesRoundTrip) {
  for (int i = 1; i <= 22; ++i) {
    const auto kind = static_cast<EventKind>(i);
    EventKind back = EventKind::MessageSent;
    ASSERT_TRUE(parse_event_kind(to_string(kind), back)) << to_string(kind);
    EXPECT_EQ(back, kind);
  }
  EventKind out;
  EXPECT_FALSE(parse_event_kind("?", out));
  EXPECT_FALSE(parse_event_kind("Bogus", out));
}

TEST(TraceBus, RequestLifecycleEventsRoundTripThroughJsonl) {
  // All six Request* kinds, with the trace id in seq and the kind-specific
  // value/aux payloads, survive the JSONL round trip — trace_check
  // --request reassembles span trees from exactly these lines.
  const std::uint64_t trace_id = 0xdeadbeefcafe0123ull;
  TraceBus bus(16);
  bus.set_enabled(true);
  bus.record({100, proc(0), EventKind::RequestAdmitted, {}, {}, trace_id, 7,
              42});
  bus.record({105, proc(0), EventKind::RequestOrdered, view(3, 0), {},
              trace_id, 9, 0, GroupId{2}});
  bus.record({110, proc(1), EventKind::RequestDelivered, view(3, 0), proc(0),
              trace_id, 9, 0, GroupId{2}});
  bus.record({112, proc(1), EventKind::RequestApplied, view(3, 0), proc(0),
              trace_id, 9, 0, GroupId{2}});
  bus.record({115, proc(0), EventKind::RequestFenced, view(4, 0), {}, trace_id,
              4, 0, GroupId{2}});
  bus.record({120, proc(0), EventKind::RequestReplied, {}, {}, trace_id, 0,
              42});

  std::stringstream ss;
  bus.write_jsonl(ss);
  std::size_t skipped = 5;
  const std::vector<TraceEvent> back = read_jsonl(ss, &skipped);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(back, bus.events());
  for (const TraceEvent& e : back) {
    EXPECT_TRUE(is_request_event(e.kind)) << to_string(e.kind);
    EXPECT_EQ(e.seq, trace_id);
  }
  EXPECT_FALSE(is_request_event(EventKind::MessageDelivered));
  EXPECT_FALSE(is_request_event(EventKind::AdminCommand));
}

TEST(TraceBus, ObserverTapSeesEveryRecordedEvent) {
  TraceBus bus(8);
  std::vector<TraceEvent> seen;
  bus.set_observer([&seen](const TraceEvent& e) { seen.push_back(e); });
  // Disabled: the record is dropped before the tap.
  bus.record({1, proc(0), EventKind::MessageSent});
  EXPECT_TRUE(seen.empty());
  bus.set_enabled(true);
  bus.record({2, proc(0), EventKind::MessageSent, {}, proc(0), 5});
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].seq, 5u);
  // Through a group facade the tap sees the final (relabelled) event.
  GroupTraceBus g(bus, GroupId{3});
  g.record({3, proc(0), EventKind::MessageSent});
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].group, GroupId{3});
}

TEST(DumpRun, KillMidDumpLeavesTheLastCompleteTrace) {
  // A node's periodic --trace-flush-ms dumps exist so that its trace
  // survives kill -9. A kill that lands while a dump is being written must
  // leave the last complete dump, never a truncated file. The child dumps
  // the same trace over and over; each round kills it at another point.
  char dir[] = "/tmp/evs_dump_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  ASSERT_EQ(::setenv("EVS_TRACE_OUT", dir, 1), 0);
  constexpr std::uint64_t kEvents = 20000;
  TraceBus bus(kEvents);
  bus.set_enabled(true);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    bus.record({i, proc(0), EventKind::MessageSent, view(1, 0), proc(0), i});
  }
  const MetricsRegistry metrics;
  for (int round = 0; round < 10; ++round) {
    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      evs::log::set_level(evs::log::Level::Warn);
      dump_run(bus, metrics, "run");
      const char one = 1;
      [[maybe_unused]] const auto n = ::write(ready[1], &one, 1);
      for (;;) dump_run(bus, metrics, "run");
    }
    ::close(ready[1]);
    char byte = 0;
    const auto got = ::read(ready[0], &byte, 1);
    ::close(ready[0]);
    std::this_thread::sleep_for(std::chrono::microseconds(500 * round));
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
    ASSERT_EQ(got, 1) << "the child never finished its first dump";
    std::ifstream is(std::string(dir) + "/run.trace.jsonl");
    std::size_t skipped = 0;
    EXPECT_EQ(read_jsonl(is, &skipped).size(), kEvents) << "round " << round;
    EXPECT_EQ(skipped, 0u) << "round " << round;
  }
  ::unsetenv("EVS_TRACE_OUT");
  std::filesystem::remove_all(dir);
}

TEST(Metrics, HistogramExactQuantiles) {
  Histogram h;
  for (int i = 100; i >= 1; --i) h.record(i);  // unsorted on purpose
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
}

/// The sample an exact sort picks for quantile q (nearest rank).
double exact_quantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

TEST(Metrics, HistogramQuantilesStayWithinRelativeError) {
  // Log-uniform over nine decades, 0.01 to 10^7: fractional microseconds
  // keep the same relative precision as seconds-long tails.
  ASSERT_LE(Histogram::kRelativeError, 0.01);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> decade(-2.0, 7.0);
  Histogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(std::pow(10.0, decade(rng)));
    h.record(samples.back());
  }
  std::sort(samples.begin(), samples.end());
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    const double exact = exact_quantile(samples, q);
    EXPECT_LE(std::abs(h.quantile(q) - exact),
              Histogram::kRelativeError * exact)
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), samples.front());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), samples.back());
}

TEST(Metrics, HistogramFootprintIsBoundedByRangeNotCount) {
  // 10^6 latencies from 1 us to ~50 ms span 16 powers of two: 8 KiB of
  // buckets once the range is seen, however many samples follow.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> log2_us(0.0, 15.6);
  Histogram h;
  std::size_t after_first_thousand = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    h.record(std::exp2(log2_us(rng)));
    if (i == 999) after_first_thousand = h.bucket_bytes();
  }
  EXPECT_EQ(h.count(), 1'000'000u);
  EXPECT_EQ(h.bucket_bytes(), after_first_thousand);
  EXPECT_LE(h.bucket_bytes(), 8u * 1024);
  // Zeros cost no bucket, and a copy (a registry scrape) costs the same.
  for (int i = 0; i < 1000; ++i) h.record(0.0);
  const Histogram copy = h;
  EXPECT_LE(copy.bucket_bytes(), h.bucket_bytes());
  EXPECT_EQ(copy.quantile(0.5), h.quantile(0.5));
}

TEST(Metrics, HistogramMergeEqualsRecordingBoth) {
  // Integers on one side; on the other, multiples of 1/64 from 1/64 to
  // 2^20 plus zeros. Both sums stay exact in a double, so every field of
  // the merge must match one histogram that recorded everything.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> small(0.0, 10.0);
  std::uniform_real_distribution<double> wide(-6.0, 20.0);
  Histogram a;
  Histogram b;
  Histogram both;
  for (int i = 0; i < 5000; ++i) {
    const double x = std::floor(std::exp2(small(rng)));
    a.record(x);
    both.record(x);
    const double y =
        i % 10 == 0 ? 0.0 : std::floor(std::exp2(wide(rng)) * 64) / 64;
    b.record(y);
    both.record(y);
  }
  Histogram merged;
  merged.merge(a);
  merged.merge(b);
  merged.merge(Histogram{});
  EXPECT_EQ(merged.count(), both.count());
  EXPECT_EQ(merged.sum(), both.sum());
  EXPECT_EQ(merged.min(), both.min());
  EXPECT_EQ(merged.max(), both.max());
  for (int i = 0; i <= 1000; ++i)
    EXPECT_EQ(merged.quantile(i / 1000.0), both.quantile(i / 1000.0))
        << "q=" << i / 1000.0;
  // Merging in the other order, into a non-empty histogram, agrees too.
  b.merge(a);
  for (int i = 0; i <= 1000; ++i)
    EXPECT_EQ(b.quantile(i / 1000.0), both.quantile(i / 1000.0));
}

TEST(Metrics, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("net.messages_sent").set(12);
  reg.gauge("mode.normal_us").set(1.5);
  reg.histogram("latency_us").record(10);
  reg.histogram("latency_us").record(20);

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE net_messages_sent counter\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("net_messages_sent 12\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE mode_normal_us gauge\n"), std::string::npos);
  EXPECT_NE(prom.find("mode_normal_us 1.5\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE latency_us summary\n"), std::string::npos);
  EXPECT_NE(prom.find("latency_us{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(prom.find("latency_us_count 2\n"), std::string::npos);
  EXPECT_NE(prom.find("latency_us_sum 30\n"), std::string::npos);
  // Exposition format: every line is a comment or `name{labels} value`.
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    for (const char c : name.substr(0, name.find('{')))
      ASSERT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << line;
  }
}

TEST(TraceBus, EventsSincePagesAndReportsNextIndex) {
  TraceBus bus(8);
  bus.set_enabled(true);
  for (std::uint64_t i = 0; i < 5; ++i)
    bus.record({i, proc(0), EventKind::MessageSent, {}, proc(0), i});

  std::uint64_t next = 0;
  auto page = bus.events_since(0, 3, &next);
  ASSERT_EQ(page.size(), 3u);
  EXPECT_EQ(page[0].first, 0u);
  EXPECT_EQ(page[2].first, 2u);
  EXPECT_EQ(next, 3u);

  page = bus.events_since(next, 100, &next);
  ASSERT_EQ(page.size(), 2u);
  EXPECT_EQ(page[0].first, 3u);
  EXPECT_EQ(page[1].second.seq, 4u);
  EXPECT_EQ(next, 5u);

  // Caught up: empty page, next unchanged.
  page = bus.events_since(next, 100, &next);
  EXPECT_TRUE(page.empty());
  EXPECT_EQ(next, 5u);

  // Beyond the end behaves the same (a poller that over-advanced).
  page = bus.events_since(99, 100, &next);
  EXPECT_TRUE(page.empty());
  EXPECT_EQ(next, 99u);
}

TEST(TraceBus, EventsSinceSkipsEventsLostToTheRing) {
  TraceBus bus(4);
  bus.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i)
    bus.record({i, proc(0), EventKind::MessageSent, {}, proc(0), i});
  // Indices 0..5 fell out of the ring; the page starts at the oldest held.
  std::uint64_t next = 0;
  const auto page = bus.events_since(0, 100, &next);
  ASSERT_EQ(page.size(), 4u);
  EXPECT_EQ(page[0].first, 6u);
  EXPECT_EQ(page[0].second.seq, 6u);
  EXPECT_EQ(page[3].first, 9u);
  EXPECT_EQ(next, 10u);
}

TEST(TraceBus, WriteJsonlEventIndexRoundTrips) {
  const TraceEvent event{42, proc(1, 2), EventKind::MessageDelivered,
                         view(3, 1), proc(0, 1), 7, 123, 9};
  std::ostringstream os;
  const std::uint64_t index = 17;
  write_jsonl_event(os, event, &index);
  EXPECT_EQ(os.str().find("{\"i\":17,"), 0u) << os.str();
  // read_jsonl ignores the index field and recovers the event.
  std::istringstream is(os.str());
  const auto events = read_jsonl(is);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], event);
}

TEST(Metrics, RegistrySnapshotsToSortedJson) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("net.messages_sent").set(12);
  reg.counter("a.views_installed").add(3);
  reg.gauge("mode.normal_us").set(1.5);
  reg.histogram("latency_us").record(10);
  reg.histogram("latency_us").record(20);
  EXPECT_FALSE(reg.empty());

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"net.messages_sent\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"a.views_installed\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mode.normal_us\":1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  // std::map keys: "a.views_installed" sorts before "net.messages_sent".
  EXPECT_LT(json.find("a.views_installed"), json.find("net.messages_sent"));
}

// --- RunChecker on hand-built traces ---------------------------------------

// A clean two-process run: both install v1 then v2, both deliver the same
// message in v1, modes chain legally from SETTLING.
std::vector<TraceEvent> clean_trace() {
  const ProcessId a = proc(0), b = proc(1);
  const ViewId v1 = view(1, 0), v2 = view(2, 0);
  const std::uint64_t h = payload_hash({'m', '1'});
  return {
      {0, a, EventKind::ViewInstalled, v1, a, 0, 2},
      {0, b, EventKind::ViewInstalled, v1, a, 0, 2},
      {1, a, EventKind::ModeTransition, v1, {}, 3, 0, 2},  // Reconcile S->N
      {1, b, EventKind::ModeTransition, v1, {}, 3, 0, 2},
      {2, a, EventKind::MessageSent, v1, a, 1, h},
      {3, a, EventKind::MessageDelivered, v1, a, 1, h},
      {3, b, EventKind::MessageDelivered, v1, a, 1, h},
      {4, a, EventKind::EviewChange, v1, {}, 1, 2, 2},
      {5, a, EventKind::EviewChange, v1, {}, 2, 1, 1},  // coarsened
      {6, a, EventKind::ModeTransition, v2, {}, 0, 1, 0},  // Failure N->R
      {6, b, EventKind::ModeTransition, v2, {}, 0, 1, 0},
      {7, a, EventKind::ViewInstalled, v2, a, 1, 1},
      {7, b, EventKind::ViewInstalled, v2, a, 1, 1},
  };
}

TEST(RunChecker, CleanTraceHasNoViolations) {
  const std::vector<Violation> v = RunChecker::check(clean_trace());
  EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v.front().str());
}

// The ISSUE-mandated corruption: the same message delivered in two
// different views must be flagged as a Uniqueness (P2.2) violation.
TEST(RunChecker, DuplicateDeliveryAcrossViewsIsUniquenessViolation) {
  std::vector<TraceEvent> events = clean_trace();
  const std::uint64_t h = payload_hash({'m', '1'});
  // Re-deliver a's v1 message at b, but inside v2.
  events.push_back(
      {8, proc(1), EventKind::MessageDelivered, view(2, 0), proc(0), 1, h});

  const std::vector<Violation> unique = RunChecker::check_uniqueness(events);
  ASSERT_EQ(unique.size(), 1u);
  EXPECT_EQ(unique[0].property, "Uniqueness (P2.2)");
  EXPECT_NE(unique[0].detail.find("2 views"), std::string::npos)
      << unique[0].str();
  // The full checker surfaces it too (plus the per-process duplicate,
  // which is an Integrity matter).
  const std::vector<Violation> all = RunChecker::check(events);
  EXPECT_FALSE(all.empty());
}

TEST(RunChecker, FlushDeliveryCountsAsDelivery) {
  // Same corruption but via a FlushDelivery event: still P2.2.
  std::vector<TraceEvent> events = clean_trace();
  const std::uint64_t h = payload_hash({'m', '1'});
  events.push_back(
      {8, proc(1), EventKind::FlushDelivery, view(2, 0), proc(0), 1, h});
  EXPECT_EQ(RunChecker::check_uniqueness(events).size(), 1u);
}

TEST(RunChecker, UnsentAndRepeatedDeliveriesAreIntegrityViolations) {
  const ProcessId a = proc(0), b = proc(1);
  const ViewId v1 = view(1, 0);
  const std::uint64_t h = payload_hash({'x'});
  const std::vector<TraceEvent> events = {
      {0, a, EventKind::MessageSent, v1, a, 1, h},
      {1, a, EventKind::MessageDelivered, v1, a, 1, h},
      {2, a, EventKind::MessageDelivered, v1, a, 1, h},  // delivered twice
      {3, b, EventKind::MessageDelivered, v1, b, 1, 777},  // never sent
  };
  const std::vector<Violation> v = RunChecker::check_integrity(events);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NE(v[0].detail.find("more than once"), std::string::npos);
  EXPECT_NE(v[1].detail.find("never multicast"), std::string::npos);
}

TEST(RunChecker, DivergentDeliveriesAcrossSurvivorsIsAgreementViolation) {
  const ProcessId a = proc(0), b = proc(1);
  const ViewId v1 = view(1, 0), v2 = view(2, 0);
  const std::uint64_t h = payload_hash({'y'});
  const std::vector<TraceEvent> events = {
      {0, a, EventKind::ViewInstalled, v1, a, 0, 2},
      {0, b, EventKind::ViewInstalled, v1, a, 0, 2},
      {1, a, EventKind::MessageSent, v1, a, 1, h},
      {2, a, EventKind::MessageDelivered, v1, a, 1, h},
      // b never delivers it, yet both survive into v2.
      {3, a, EventKind::ViewInstalled, v2, a, 1, 2},
      {3, b, EventKind::ViewInstalled, v2, a, 1, 2},
  };
  const std::vector<Violation> v = RunChecker::check_agreement(events);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].property, "Agreement (P2.1)");
}

TEST(RunChecker, StructureMustCoarsenWithinAView) {
  const ProcessId a = proc(0);
  const ViewId v1 = view(1, 0);
  const std::vector<TraceEvent> events = {
      {0, a, EventKind::EviewChange, v1, {}, 1, 2, 2},
      {1, a, EventKind::EviewChange, v1, {}, 2, 3, 2},  // subviews grew
      {2, a, EventKind::EviewChange, v1, {}, 2, 3, 2},  // seq did not advance
  };
  const std::vector<Violation> v = RunChecker::check_structure(events);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NE(v[0].detail.find("grew"), std::string::npos);
  EXPECT_NE(v[1].detail.find("strictly increase"), std::string::npos);
}

TEST(RunChecker, StructureMayGrowAcrossViews) {
  const ProcessId a = proc(0);
  const std::vector<TraceEvent> events = {
      {0, a, EventKind::EviewChange, view(1, 0), {}, 1, 1, 1},
      // New view: merged structures may be bigger; seq restarts.
      {1, a, EventKind::EviewChange, view(2, 0), {}, 0, 3, 3},
  };
  EXPECT_TRUE(RunChecker::check_structure(events).empty());
}

TEST(RunChecker, IllegalModeEdgeIsFlagged) {
  const ProcessId a = proc(0);
  const std::vector<TraceEvent> events = {
      // Repair out of NORMAL: no such edge in Figure 1 (and the chain
      // should have started from SETTLING).
      {0, a, EventKind::ModeTransition, view(1, 0), {}, 1, 2, 0},
  };
  const std::vector<Violation> v = RunChecker::check_modes(events);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NE(v[0].detail.find("was in SETTLING"), std::string::npos);
  EXPECT_NE(v[1].detail.find("illegal edge"), std::string::npos);
}

TEST(RunChecker, ModeChainMustBeContinuous) {
  const ProcessId a = proc(0);
  const std::vector<TraceEvent> events = {
      {0, a, EventKind::ModeTransition, view(1, 0), {}, 3, 0, 2},  // S->N ok
      // Claims to leave SETTLING again, but the process is in NORMAL.
      {1, a, EventKind::ModeTransition, view(2, 0), {}, 2, 2, 2},
  };
  const std::vector<Violation> v = RunChecker::check_modes(events);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].detail.find("but was in NORMAL"), std::string::npos);
}

// --- LiveChecker: the online oracle plane -----------------------------------

TEST(LiveChecker, CleanTraceStaysHealthy) {
  LiveChecker checker;
  for (const TraceEvent& e : clean_trace()) checker.observe(e);
  EXPECT_EQ(checker.events_checked(), clean_trace().size());
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_TRUE(checker.healthy());
  EXPECT_NE(checker.health_json().find("\"healthy\":true"), std::string::npos)
      << checker.health_json();
}

// The ISSUE acceptance check: an injected oracle violation raises the
// violation counter and flips health to unhealthy.
TEST(LiveChecker, InjectedDuplicateDeliveryFlipsHealth) {
  LiveChecker checker;
  for (const TraceEvent& e : clean_trace()) checker.observe(e);
  ASSERT_TRUE(checker.healthy());
  // Deliver a's v1 message at b a second time, in a different view: the
  // local Uniqueness slice catches it.
  const std::uint64_t h = payload_hash({'m', '1'});
  checker.observe(
      {8, proc(1), EventKind::MessageDelivered, view(2, 0), proc(0), 1, h});
  EXPECT_EQ(checker.violations(), 1u);
  EXPECT_FALSE(checker.healthy());
  ASSERT_EQ(checker.recent().size(), 1u);
  EXPECT_EQ(checker.recent().front().property, "Uniqueness (P2.2)");
  const std::string json = checker.health_json();
  EXPECT_NE(json.find("\"healthy\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"violations\":1"), std::string::npos) << json;
  EXPECT_EQ(checker.violations_by_group().at(kDefaultGroup), 1u);
}

TEST(LiveChecker, SameViewRedeliveryIsIntegrity) {
  LiveChecker checker;
  const std::uint64_t h = payload_hash({'z'});
  checker.observe(
      {1, proc(0), EventKind::MessageDelivered, view(1, 0), proc(0), 1, h});
  checker.observe(
      {2, proc(0), EventKind::MessageDelivered, view(1, 0), proc(0), 1, h});
  ASSERT_EQ(checker.violations(), 1u);
  EXPECT_EQ(checker.recent().front().property, "Integrity (P2.3)");
}

TEST(LiveChecker, GroupsViolateIndependently) {
  // The same corrupted sequence under two group labels is two independent
  // violations; health_json breaks them out per group.
  LiveChecker checker;
  const std::uint64_t h = payload_hash({'g'});
  for (const GroupId g : {GroupId{1}, GroupId{4}}) {
    checker.observe({1, proc(0), EventKind::MessageDelivered, view(1, 0),
                     proc(0), 1, h, 0, g});
    checker.observe({2, proc(0), EventKind::MessageDelivered, view(1, 0),
                     proc(0), 1, h, 0, g});
  }
  EXPECT_EQ(checker.violations(), 2u);
  EXPECT_EQ(checker.violations_by_group().at(GroupId{1}), 1u);
  EXPECT_EQ(checker.violations_by_group().at(GroupId{4}), 1u);
  const std::string json = checker.health_json();
  EXPECT_NE(json.find("{\"id\":1,\"violations\":1}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"id\":4,\"violations\":1}"), std::string::npos)
      << json;
}

TEST(LiveChecker, RequestPhaseTimeRegressionIsViolation) {
  LiveChecker checker;
  const std::uint64_t trace_id = 77;
  checker.observe(
      {100, proc(0), EventKind::RequestAdmitted, {}, {}, trace_id, 7, 1});
  checker.observe(
      {110, proc(0), EventKind::RequestOrdered, view(1, 0), {}, trace_id, 9});
  EXPECT_TRUE(checker.healthy());
  // A later phase stamped *earlier* on the same process clock: broken.
  checker.observe(
      {90, proc(0), EventKind::RequestReplied, {}, {}, trace_id, 0, 1});
  ASSERT_EQ(checker.violations(), 1u);
  EXPECT_EQ(checker.recent().front().property, "Request phases");
}

TEST(LiveChecker, RequestIdReuseWithAdvancingTimeIsLegal) {
  // A rank regression (Admitted after Replied) is a new cycle of a reused
  // trace id; as long as time advances the checker stays quiet. Other
  // processes' phases are tracked separately and never compared across
  // clocks.
  LiveChecker checker;
  const std::uint64_t trace_id = 78;
  checker.observe(
      {100, proc(0), EventKind::RequestAdmitted, {}, {}, trace_id, 7, 1});
  checker.observe(
      {120, proc(0), EventKind::RequestReplied, {}, {}, trace_id, 0, 1});
  checker.observe(
      {130, proc(0), EventKind::RequestAdmitted, {}, {}, trace_id, 7, 2});
  // A different process delivers with a clock far behind: no comparison.
  checker.observe({5, proc(1), EventKind::RequestDelivered, view(1, 0),
                   proc(0), trace_id, 9});
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_TRUE(checker.healthy());
  // RequestFenced is out of band: never part of the phase chain.
  checker.observe(
      {1, proc(0), EventKind::RequestFenced, view(2, 0), {}, trace_id, 2});
  EXPECT_EQ(checker.violations(), 0u);
}

}  // namespace
}  // namespace evs::obs
