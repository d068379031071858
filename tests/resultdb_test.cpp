/// \file resultdb_test.cpp
/// \brief Result database: row round-trips (hostile names included),
/// corruption-tolerant loading, atomic appends, trajectory queries, the
/// rolling-median regression gate with counter-level attribution, and the
/// rendered report.
///
/// Everything here drives the same obs::resultdb API that bench/dbtool.cpp
/// and the `--db` flag of the bench drivers wrap, so a green suite means the
/// CI gate (`dbtool gate`) behaves: pass inside the bands, ratio regression
/// with counter attribution, exact metric drift, coverage loss, and corrupt
/// history lines skipped and counted.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/resultdb.hpp"

namespace t1sfq {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// A populated row; knobs cover the fields the tests vary.
obs::ResultRow make_row(const std::string& bench, const std::string& circuit,
                        const std::string& config, const std::string& commit,
                        double speedup, int64_t area = 100,
                        int64_t declines = 116) {
  obs::ResultRow row;
  row.bench = bench;
  row.circuit = circuit;
  row.config = config;
  row.config_hash = 42;
  row.stamp = {commit, "main", "release", "host/x86_64", 1700000000};
  row.metrics = {{"area_jj", area}, {"dffs", 7}};
  row.time_ms = {{"total", 5.5}};
  row.ratios = {{"speedup", speedup}};
  row.counters = {{"detect.guard.declines", declines}, {"sat.conflicts", 40}};
  return row;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

class ResultDbTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) {
      std::remove(p.c_str());
    }
  }
  std::string path(const std::string& name) {
    const std::string p = temp_path(name);
    cleanup_.push_back(p);
    std::remove(p.c_str());
    return p;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(ResultDbTest, RowRoundTripSurvivesHostileNames) {
  obs::ResultRow row = make_row("bench\"x\"", "cir\ncuit", "cfg \\ \xc3\xa9 \x01",
                                "abc123", 3.5);
  row.time_ms = {{"total", 0.0001}};
  std::ostringstream os;
  obs::write_row(os, row);
  // The line must be single-line pure ASCII (JSONL: one row per line, and
  // python's json.loads must accept it).
  const std::string line = os.str();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  for (const char c : line) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 &&
                static_cast<unsigned char>(c) < 0x7f)
        << "non-ASCII byte in serialized row";
  }
  const auto parsed = obs::parse_row(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->bench, row.bench);
  EXPECT_EQ(parsed->circuit, row.circuit);
  EXPECT_EQ(parsed->config, row.config);
  EXPECT_EQ(parsed->config_hash, row.config_hash);
  EXPECT_EQ(parsed->stamp.commit, "abc123");
  EXPECT_EQ(parsed->stamp.branch, "main");
  EXPECT_EQ(parsed->stamp.build_type, "release");
  EXPECT_EQ(parsed->stamp.host, "host/x86_64");
  EXPECT_EQ(parsed->stamp.unix_time, 1700000000);
  EXPECT_EQ(parsed->metrics, row.metrics);
  EXPECT_EQ(parsed->ratios, row.ratios);
  EXPECT_EQ(parsed->counters, row.counters);
  ASSERT_EQ(parsed->time_ms.size(), 1u);
  EXPECT_NEAR(parsed->time_ms[0].second, 0.0001, 1e-9);
}

TEST_F(ResultDbTest, ParseRejectsWrongSchemaAndMissingIdentity) {
  EXPECT_FALSE(obs::parse_row("{\"schema\": \"other-v1\"}").has_value());
  EXPECT_FALSE(obs::parse_row("not json at all").has_value());
  // bench present but commit missing: not joinable, rejected.
  EXPECT_FALSE(obs::parse_row("{\"schema\": \"t1sfq-result-v1\", \"bench\": \"b\","
                              " \"circuit\": \"c\", \"config_hash\": 1}")
                   .has_value());
}

TEST_F(ResultDbTest, LoadSkipsCorruptLinesAndCountsThem) {
  const std::string p = path("resultdb_corrupt.jsonl");
  {
    std::ofstream os(p, std::ios::binary);
    std::ostringstream row;
    obs::write_row(row, make_row("b", "c", "cfg", "c1", 2.0));
    os << row.str() << "\n";
    os << "\n";                                    // blank: ignored, not counted
    os << "{\"schema\": \"t1sfq-result-v1\", TR\n";  // truncated: counted
    os << "{\"schema\": \"other\"}\n";               // wrong schema: counted
    obs::write_row(os, make_row("b", "c", "cfg", "c2", 2.5));
    os << "\n";
  }
  const obs::ResultDb db = obs::load_result_db(p);
  EXPECT_EQ(db.rows.size(), 2u);
  EXPECT_EQ(db.skipped_lines, 2u);
  EXPECT_EQ(db.rows[0].stamp.commit, "c1");
  EXPECT_EQ(db.rows[1].stamp.commit, "c2");
}

TEST_F(ResultDbTest, MissingFileIsEmptyDatabase) {
  const obs::ResultDb db = obs::load_result_db(path("resultdb_nonexistent.jsonl"));
  EXPECT_TRUE(db.rows.empty());
  EXPECT_EQ(db.skipped_lines, 0u);
}

TEST_F(ResultDbTest, AppendCreatesAndPreservesExistingBytes) {
  const std::string p = path("resultdb_append.jsonl");
  ASSERT_TRUE(obs::append_result_rows(p, {make_row("b", "c", "cfg", "c1", 2.0)}));
  // Poison the file with a corrupt line; the next append must keep it
  // byte-for-byte (append-only means history is never rewritten, even the
  // broken parts — they stay visible as skipped_lines).
  {
    std::ofstream os(p, std::ios::binary | std::ios::app);
    os << "{corrupt line kept verbatim}\n";
  }
  const std::string before = slurp(p);
  ASSERT_TRUE(obs::append_result_rows(p, {make_row("b", "c", "cfg", "c2", 2.5)}));
  const std::string after = slurp(p);
  EXPECT_EQ(after.rfind(before, 0), 0u) << "existing bytes were rewritten";
  const obs::ResultDb db = obs::load_result_db(p);
  EXPECT_EQ(db.rows.size(), 2u);
  EXPECT_EQ(db.skipped_lines, 1u);
  // No temp litter in the directory's place: the rename either happened or
  // the append failed; probing the exact tmp name is enough here.
  EXPECT_FALSE(std::ifstream(p + ".tmp").good());
}

TEST_F(ResultDbTest, TrajectoryQueryReturnsAppendOrder) {
  const std::string p = path("resultdb_traj.jsonl");
  ASSERT_TRUE(obs::append_result_rows(
      p, {make_row("b", "c", "cfg", "c1", 2.0), make_row("b", "other", "cfg", "c1", 9.0)}));
  ASSERT_TRUE(obs::append_result_rows(p, {make_row("b", "c", "cfg", "c2", 2.5)}));
  ASSERT_TRUE(obs::append_result_rows(p, {make_row("b", "c", "cfg", "c3", 3.0)}));
  const obs::ResultDb db = obs::load_result_db(p);
  const auto traj = obs::rows_for_key(db, obs::key_of(make_row("b", "c", "cfg", "x", 0)));
  ASSERT_EQ(traj.size(), 3u);
  EXPECT_EQ(traj[0]->stamp.commit, "c1");
  EXPECT_EQ(traj[1]->stamp.commit, "c2");
  EXPECT_EQ(traj[2]->stamp.commit, "c3");
  EXPECT_DOUBLE_EQ(*traj.back()->ratio("speedup"), 3.0);
}

TEST_F(ResultDbTest, RowsFromBenchJsonStampsEveryRecord) {
  const std::string doc =
      "{\"schema\": \"t1sfq-bench-v1\", \"bench\": \"table1\", \"records\": ["
      "{\"circuit\": \"adder\", \"config\": \"t1\", \"config_hash\": 7,"
      " \"metrics\": {\"area_jj\": 10}, \"time_ms\": {\"total\": 1.5},"
      " \"ratios\": {}, \"counters\": {\"x\": 3}}]}";
  const obs::ResultStamp stamp{"abc", "main", "debug", "h/m", 99};
  const auto rows = obs::rows_from_bench_json(doc, stamp);
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 1u);
  const obs::ResultRow& r = rows->front();
  EXPECT_EQ(r.bench, "table1");
  EXPECT_EQ(r.circuit, "adder");
  EXPECT_EQ(r.config_hash, 7u);
  EXPECT_EQ(r.stamp.commit, "abc");
  EXPECT_EQ(*r.metric("area_jj"), 10);
  EXPECT_EQ(*r.counter("x"), 3);
  EXPECT_FALSE(obs::rows_from_bench_json("{\"schema\": \"nope\"}", stamp).has_value());
}

TEST_F(ResultDbTest, GatePassesInsideBands) {
  obs::ResultDb db;
  db.rows = {make_row("b", "c", "cfg", "c1", 3.0), make_row("b", "c", "cfg", "c2", 3.2)};
  const obs::GateReport rep =
      obs::gate_against_history(db, {make_row("b", "c", "cfg", "cur", 3.1)}, {});
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.checked_metrics, 2u);
  EXPECT_EQ(rep.checked_ratios, 1u);
  EXPECT_EQ(rep.ungated_new, 0u);
}

// The acceptance fixture: a forced ratio regression whose counter snapshot
// blames the detection guard. The gate must fail AND the finding must name
// at least one counter delta with its subsystem.
TEST_F(ResultDbTest, GateRatioRegressionCarriesCounterAttribution) {
  obs::ResultDb db;
  db.rows = {make_row("b", "c", "cfg", "c1", 3.2, 100, 116)};
  const obs::GateReport rep = obs::gate_against_history(
      db, {make_row("b", "c", "cfg", "cur", 0.4, 100, 5000)}, {});
  EXPECT_FALSE(rep.ok());
  ASSERT_EQ(rep.findings.size(), 1u);
  const obs::GateFinding& f = rep.findings.front();
  EXPECT_TRUE(f.failure);
  EXPECT_NE(f.message.find("ratio speedup"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("suspect subsystem: detect.guard"), std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("detect.guard.declines 116->5000"), std::string::npos)
      << f.message;
}

TEST_F(ResultDbTest, GateMetricDriftIsExactByDefault) {
  obs::ResultDb db;
  db.rows = {make_row("b", "c", "cfg", "c1", 3.0, 100)};
  obs::GateReport rep =
      obs::gate_against_history(db, {make_row("b", "c", "cfg", "cur", 3.0, 101)}, {});
  EXPECT_FALSE(rep.ok());
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_NE(rep.findings[0].message.find("metric area_jj"), std::string::npos);
  // With 2% tolerance the same drift passes.
  obs::GateOptions tol;
  tol.quality_tol = 0.02;
  rep = obs::gate_against_history(db, {make_row("b", "c", "cfg", "cur", 3.0, 101)}, tol);
  EXPECT_TRUE(rep.ok());
}

TEST_F(ResultDbTest, GateCoverageLossOnlyAtLatestCommit) {
  obs::ResultDb db;
  // Key "old" retired at c1; key "live" still present at the latest commit c2.
  db.rows = {make_row("b", "old", "cfg", "c1", 2.0), make_row("b", "live", "cfg", "c1", 2.0),
             make_row("b", "live", "cfg", "c2", 2.1)};
  // Current run covers bench "b" but drops "live": coverage loss.
  obs::GateReport rep =
      obs::gate_against_history(db, {make_row("b", "new", "cfg", "cur", 2.0)}, {});
  EXPECT_FALSE(rep.ok());
  bool saw_loss = false, saw_old = false;
  for (const auto& f : rep.findings) {
    if (f.message.find("coverage loss") != std::string::npos) {
      saw_loss = true;
      EXPECT_NE(f.label.find("live"), std::string::npos);
    }
    if (f.label.find("/old[") != std::string::npos && f.failure) {
      saw_old = true;
    }
  }
  EXPECT_TRUE(saw_loss);
  EXPECT_FALSE(saw_old) << "retired keys must stay quiet";
  // A run for a different bench must not trip coverage for bench "b".
  rep = obs::gate_against_history(db, {make_row("other", "c", "cfg", "cur", 2.0)}, {});
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.ungated_new, 1u);
}

TEST_F(ResultDbTest, GateUsesRollingMedianOverLastK) {
  obs::ResultDb db;
  // Trajectory 4.0 x4 then 3.0 x2: median of the last 5 = {4,4,4,3,3} -> 4.0,
  // so the band is 2.0 (frac 0.5, floor 1.0).
  for (const double r : {4.0, 4.0, 4.0, 4.0, 3.0, 3.0}) {
    db.rows.push_back(make_row("b", "c", "cfg", "c", r));
  }
  obs::GateReport rep =
      obs::gate_against_history(db, {make_row("b", "c", "cfg", "cur", 1.9)}, {});
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.findings[0].message.find("median of last 5 = 4"), std::string::npos)
      << rep.findings[0].message;
  rep = obs::gate_against_history(db, {make_row("b", "c", "cfg", "cur", 2.1)}, {});
  EXPECT_TRUE(rep.ok());
  // The floor is absolute: even a permissive band cannot admit ratio < 1.
  obs::GateOptions loose;
  loose.ratio_frac = 0.01;
  rep = obs::gate_against_history(db, {make_row("b", "c", "cfg", "cur", 0.9)}, loose);
  EXPECT_FALSE(rep.ok());
}

TEST_F(ResultDbTest, GateNewKeyIsUngatedNote) {
  obs::ResultDb db;  // empty history
  const obs::GateReport rep =
      obs::gate_against_history(db, {make_row("b", "c", "cfg", "cur", 2.0)}, {});
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.ungated_new, 1u);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_FALSE(rep.findings[0].failure);
}

TEST_F(ResultDbTest, AttributionRanksLargeMovesFirst) {
  obs::ResultRow ref = make_row("b", "c", "cfg", "c1", 3.0);
  obs::ResultRow cur = make_row("b", "c", "cfg", "c2", 3.0);
  ref.counters = {{"detect.guard.declines", 116}, {"small.counter", 1}, {"same", 9}};
  cur.counters = {{"detect.guard.declines", 5000}, {"small.counter", 3}, {"same", 9},
                  {"appeared.counter", 2}};
  const auto deltas = obs::attribute_counters(ref, cur, 10);
  ASSERT_GE(deltas.size(), 3u);
  EXPECT_EQ(deltas.front().name, "detect.guard.declines");
  EXPECT_EQ(deltas.front().ref, 116);
  EXPECT_EQ(deltas.front().cur, 5000);
  for (const auto& d : deltas) {
    EXPECT_NE(d.name, "same") << "unchanged counters must not appear";
  }
  // The missing side counts as zero, so a counter that appeared still shows.
  bool saw_appeared = false;
  for (const auto& d : deltas) {
    if (d.name == "appeared.counter") {
      saw_appeared = true;
      EXPECT_EQ(d.ref, 0);
      EXPECT_EQ(d.cur, 2);
    }
  }
  EXPECT_TRUE(saw_appeared);
  // top_n truncates after ranking.
  EXPECT_EQ(obs::attribute_counters(ref, cur, 1).size(), 1u);
}

TEST_F(ResultDbTest, CounterSubsystemStripsLastComponent) {
  EXPECT_EQ(obs::counter_subsystem("detect.guard.declines"), "detect.guard");
  EXPECT_EQ(obs::counter_subsystem("flow.runs"), "flow");
  EXPECT_EQ(obs::counter_subsystem("undotted"), "undotted");
}

TEST_F(ResultDbTest, ReportRendersSparklineTables) {
  obs::ResultDb db;
  db.rows = {make_row("table1", "adder", "t1", "c1", 2.0, 100),
             make_row("table1", "adder", "t1", "c2", 4.0, 90)};
  std::ostringstream md;
  obs::render_report_markdown(md, db, {});
  const std::string text = md.str();
  EXPECT_NE(text.find("# Perf trajectory"), std::string::npos);
  EXPECT_NE(text.find("## table1"), std::string::npos);
  EXPECT_NE(text.find("area_jj"), std::string::npos);
  EXPECT_NE(text.find("ratio:speedup"), std::string::npos);
  EXPECT_NE(text.find("time:total (ms)"), std::string::npos);
  // A rising two-point series must render low-then-high blocks.
  EXPECT_NE(text.find("▁█"), std::string::npos) << text;
  EXPECT_NE(text.find("`c1` → `c2`"), std::string::npos);

  std::ostringstream html;
  obs::render_report_html(html, db, {});
  EXPECT_NE(html.str().find("<table"), std::string::npos);
  EXPECT_NE(html.str().find("adder"), std::string::npos);
}

TEST_F(ResultDbTest, CurrentStampHonorsEnvOverrides) {
  ::setenv("T1SFQ_COMMIT", "deadbeef1234", 1);
  ::setenv("T1SFQ_BRANCH", "pr-branch", 1);
  const obs::ResultStamp stamp = obs::current_stamp();
  ::unsetenv("T1SFQ_COMMIT");
  ::unsetenv("T1SFQ_BRANCH");
  EXPECT_EQ(stamp.commit, "deadbeef1234");
  EXPECT_EQ(stamp.branch, "pr-branch");
  EXPECT_FALSE(stamp.build_type.empty());
  EXPECT_NE(stamp.host.find('/'), std::string::npos);
  EXPECT_GT(stamp.unix_time, 0);
}

}  // namespace
}  // namespace t1sfq
