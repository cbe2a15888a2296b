// oracle_test.cpp — tests of the benchmark's independent checker:
// hand-computed cases (including the paper's control system of
// examples/control_system.rts) and brute-force enumeration of
// embeddings on tiny schedules.
//
// Build and run: cmake --build <dir> --target perfbench_oracle_test, then
// <dir>/perfbench_oracle_test [path/to/examples/control_system.rts].
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>

#include "oracle.hpp"

namespace {

using namespace perfbench::oracle;

int g_failures = 0;

#define CHECK(cond)                                                          \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ++g_failures;                                                          \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                   \
    }                                                                        \
  } while (0)

Schedule make_schedule(Time length, std::vector<Exec> execs) {
  return Schedule{length, std::move(execs)};
}

// "A B ." over elements A = 0, B = 1, one task graph A -> B.
void test_two_op_chain() {
  const Schedule s = make_schedule(3, {{0, 0, 1}, {1, 1, 1}});
  const TaskGraph ab{{0, 1}, {{0, 1}}};
  // c(0) = 2, c(1) = 5 (A at 3, B at 4), c(2) = 5.
  CHECK(cyclic_earliest_finish(ab, s, 0) == 2);
  CHECK(cyclic_earliest_finish(ab, s, 1) == 5);
  CHECK(cyclic_earliest_finish(ab, s, 2) == 5);

  Model m{{1, 1}, {true, true}, {}};
  m.constraints.push_back(Constraint{ab, 10, 4, false});
  Report r = check_schedule(m, s);
  CHECK(r.verdicts.size() == 1);
  CHECK(r.verdicts[0].latency == 4);
  CHECK(r.feasible);
  m.constraints[0].deadline = 3;
  CHECK(!check_schedule(m, s).feasible);

  // Periodic p = 3, d = 2: only t = 0 per lcm(3, 3) cycle; satisfied.
  m.constraints[0] = Constraint{ab, 3, 2, true};
  CHECK(check_schedule(m, s).feasible);
  // p = 2, d = 2: t = 2 needs A at 3, B at 4 -> finish 5 > 4.
  m.constraints[0] = Constraint{ab, 2, 2, true};
  CHECK(!check_schedule(m, s).feasible);
}

void test_missing_element_and_empty() {
  const Schedule s = make_schedule(2, {{0, 0, 1}});
  Model m{{1, 1}, {true, true}, {}};
  m.constraints.push_back(Constraint{TaskGraph{{1}, {}}, 5, 5, false});
  m.constraints.push_back(Constraint{TaskGraph{{}, {}}, 5, 5, false});
  const Report r = check_schedule(m, s);
  CHECK(!r.verdicts[0].latency.has_value());
  CHECK(!r.verdicts[0].satisfied);
  CHECK(r.verdicts[1].latency == 0);
  CHECK(r.verdicts[1].satisfied);
  CHECK(!r.feasible);
}

// The paper's control system (examples/control_system.rts): elements
// fx fy fz fs(weight 2) fk; X periodic 20/20 {fx->fs->fk}, Y periodic
// 40/40 {fy->fs->fk}, Z sporadic separation 50 deadline 25 {fz->fs}.
Model control_system() {
  enum : std::uint32_t { fx, fy, fz, fs, fk };
  Model m{{1, 1, 1, 2, 1}, {true, true, true, true, true}, {}};
  m.constraints.push_back(Constraint{TaskGraph{{fx, fs, fk}, {{0, 1}, {1, 2}}}, 20, 20, true});
  m.constraints.push_back(Constraint{TaskGraph{{fy, fs, fk}, {{0, 1}, {1, 2}}}, 40, 40, true});
  m.constraints.push_back(Constraint{TaskGraph{{fz, fs}, {{0, 1}}}, 50, 25, false});
  return m;
}

void test_control_system(const char* rts_path) {
  if (rts_path != nullptr) {
    // The transcription above must match the example file.
    std::ifstream in(rts_path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    CHECK(s.find("element fs weight 2") != std::string::npos);
    CHECK(s.find("constraint X periodic period 20 deadline 20 { fx -> fs -> fk }") !=
          std::string::npos);
    CHECK(s.find("constraint Y periodic period 40 deadline 40 { fy -> fs -> fk }") !=
          std::string::npos);
    CHECK(s.find("constraint Z sporadic separation 50 deadline 25 { fz -> fs }") !=
          std::string::npos);
  }
  Model m = control_system();
  // fx fs[2] fk fz fs[2] fy fs[2] fk .9  (length 20)
  const Schedule s = make_schedule(
      20, {{0, 0, 1}, {3, 1, 2}, {4, 3, 1}, {2, 4, 1}, {3, 5, 2}, {1, 7, 1}, {3, 8, 2},
           {4, 10, 1}});
  const Report r = check_schedule(m, s);
  CHECK(r.verdicts[0].satisfied);  // X at t=0 finishes at 4
  CHECK(r.verdicts[1].satisfied);  // Y at t=0 finishes at 11, t=20 at 31
  // Z: worst window starts at t = 5 (next fz at 24, fs at 25, finish 27).
  CHECK(r.verdicts[2].latency == 22);
  CHECK(r.feasible);
  CHECK(r.undecided == 0);

  // §7: density 0.05 + 0.025 + 0.04 + 2*0.05 + 0.05 = 0.265; not refuted.
  CHECK(!refuted_by_bound(m));
  // Theorem 3: 4/20 + 4/40 + 3/25 = 0.42 <= 1/2, floor(d/2) >= w.
  CHECK(theorem3_hypotheses(m));
  // Servers: X period 20, Y 40, Z ceil(25/2) = 13.
  CHECK(server_hyperperiod(m, 1'000'000) == 520);
  CHECK(server_hyperperiod(m, 100) == 101);

  Model tight = m;
  tight.constraints[2].deadline = 2;  // cp(fz -> fs) = 3 > 2
  CHECK(refuted_by_bound(tight));
  CHECK(!theorem3_hypotheses(tight));
  Model rigid = m;
  rigid.pipelinable[3] = false;  // fs has weight 2
  CHECK(!theorem3_hypotheses(rigid));
  Model loaded = m;
  loaded.constraints[2].deadline = 12;  // 0.2 + 0.1 + 3/12 = 0.55
  CHECK(!theorem3_hypotheses(loaded));
  CHECK(!refuted_by_bound(loaded));
  // Demand density above 1: X every 2 slots needs fx fs[2] fk = 4 slots.
  Model dense = m;
  dense.constraints[0].period = 4;
  dense.constraints[0].deadline = 4;
  dense.constraints[2].deadline = 4;
  CHECK(refuted_by_bound(dense));
}

void test_finite_windows() {
  // A B A B . . A B with A -> B, d = 2: windows t = 0..6; violated at
  // 1, 3, 4, 5 -> two events.
  const std::vector<std::int64_t> slots{0, 1, 0, 1, -1, -1, 0, 1};
  const auto execs = decode_trace(slots, {1, 1});
  CHECK(execs.size() == 6);
  const Constraint c{TaskGraph{{0, 1}, {{0, 1}}}, 9, 2, false};
  const WindowCount w = finite_windows(c, execs, 8);
  CHECK(w.windows == 7);
  CHECK(w.violated == 4);
  CHECK(w.events == 2);
  CHECK((w.violated_starts == std::vector<Time>{1, 3, 4, 5}));
  // Periodic p = 3, d = 2: t = 0 ok, t = 3 violated, t = 6 ok.
  const Constraint p{TaskGraph{{0, 1}, {{0, 1}}}, 3, 2, true};
  const WindowCount wp = finite_windows(p, execs, 8);
  CHECK(wp.windows == 3);
  CHECK(wp.violated == 1);
  CHECK(wp.events == 1);

  // A run of three slots of a weight-2 element is one execution.
  const auto e2 = decode_trace({0, 0, 0, -1, 0, 0}, {2});
  CHECK(e2.size() == 2);
  CHECK(e2[0].start == 0 && e2[1].start == 4);

  // A repeated label is counted, not decided.
  const Constraint rep{TaskGraph{{0, 0}, {}}, 3, 3, false};
  CHECK(!finite_windows(rep, execs, 8).decided);
}

// Brute force: the minimum finish over *all* injective, precedence-
// respecting embeddings into the executions of enough unrolled periods.
std::optional<Time> brute_finish(const TaskGraph& tg, const Schedule& s, Time t) {
  std::vector<Exec> unrolled;
  const Time periods = 2 * static_cast<Time>(tg.labels.size()) + 3 + t / s.length;
  for (Time k = 0; k < periods; ++k) {
    for (const Exec& x : s.execs) unrolled.push_back({x.elem, x.start + k * s.length, x.duration});
  }
  const std::size_t n = tg.labels.size();
  std::vector<int> pick(n, -1);
  std::vector<bool> used(unrolled.size(), false);
  std::optional<Time> best;
  std::function<void(std::size_t)> rec = [&](std::size_t k) {
    if (k == n) {
      for (const auto& [u, v] : tg.edges) {
        const Exec& a = unrolled[pick[u]];
        const Exec& b = unrolled[pick[v]];
        if (a.start + a.duration > b.start) return;
      }
      Time f = t;
      for (int i : pick) f = std::max(f, unrolled[i].start + unrolled[i].duration);
      if (!best || f < *best) best = f;
      return;
    }
    for (std::size_t i = 0; i < unrolled.size(); ++i) {
      if (used[i] || unrolled[i].elem != tg.labels[k] || unrolled[i].start < t) continue;
      used[i] = true;
      pick[k] = static_cast<int>(i);
      rec(k + 1);
      used[i] = false;
    }
  };
  rec(0);
  return best;
}

void test_brute_force() {
  std::mt19937_64 rng(7);
  const std::vector<Time> weight{1, 2, 1};
  std::size_t compared = 0;
  std::size_t repeated = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Schedule s;
    Time t = 0;
    const Time len = 3 + static_cast<Time>(rng() % 6);
    while (t < len) {
      const auto e = static_cast<std::uint32_t>(rng() % 4);
      if (e == 3 || t + weight[e] > len) {
        ++t;  // idle slot
        continue;
      }
      s.execs.push_back({e, t, weight[e]});
      t += weight[e];
    }
    s.length = len;
    TaskGraph tg;
    const std::size_t ops = 1 + rng() % 3;
    for (std::size_t i = 0; i < ops; ++i) tg.labels.push_back(static_cast<std::uint32_t>(rng() % 3));
    for (std::uint32_t u = 0; u < ops; ++u) {
      for (std::uint32_t v = u + 1; v < ops; ++v) {
        if (rng() % 2) tg.edges.push_back({u, v});
      }
    }
    Model m{weight, {true, true, true}, {Constraint{tg, 50, 50, false}}};
    if (!label_injective(tg)) {
      ++repeated;
      CHECK(!check_schedule(m, s).verdicts[0].decided);
      CHECK(check_schedule(m, s).undecided == 1);
      continue;
    }
    Time worst = 0;
    bool infinite = false;
    for (Time w = 0; w < 2 * s.length; ++w) {
      const auto g = cyclic_earliest_finish(tg, s, w);
      const auto b = brute_finish(tg, s, w);
      CHECK(g == b);
      ++compared;
      if (!b) infinite = true;
      else if (w < s.length) worst = std::max(worst, *b - w);
    }
    const Report r = check_schedule(m, s);
    if (infinite) {
      CHECK(!r.verdicts[0].latency.has_value());
    } else {
      CHECK(r.verdicts[0].latency == worst);
    }
  }
  CHECK(compared > 1000);
  CHECK(repeated > 10);
}

}  // namespace

int main(int argc, char** argv) {
  test_two_op_chain();
  test_missing_element_and_empty();
  test_control_system(argc > 1 ? argv[1] : nullptr);
  test_finite_windows();
  test_brute_force();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("oracle tests passed\n");
  return 0;
}
