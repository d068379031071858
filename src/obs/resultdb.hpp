#pragma once
/// \file resultdb.hpp
/// \brief Append-only, per-commit bench result database and the trajectory
/// machinery built on it: rolling-median regression gating, counter-level
/// regression attribution, and a rendered markdown/HTML perf report.
///
/// The database is a JSON-lines file (committed as `bench_history.jsonl` at
/// the repo root): one line per bench record, each a single compact JSON
/// object carrying the `t1sfq-bench-v1` field classes (metrics / time_ms /
/// ratios / counters, see src/benchmarks/record.hpp) plus a stamp — git
/// commit, branch, build type, host fingerprint, unix time. Appends rewrite
/// the file through a temp-file + rename (the disk-cache discipline), so a
/// concurrent reader never observes a torn line; loading skips and counts
/// unparseable or wrong-schema lines instead of failing, so one corrupt row
/// cannot take the whole history hostage.
///
/// Consumers: `bench/dbtool.cpp` (list / append / compare / gate / explain /
/// report; `dbtool gate` is the CI gate) and every flow bench's `--db` flag
/// (via `bench::append_records_to_db`). See docs/OBSERVABILITY.md, "Result
/// DB & trajectory gating".

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace t1sfq::obs {

inline constexpr std::string_view kResultSchema = "t1sfq-result-v1";

/// Provenance stamp attached to every row.
struct ResultStamp {
  std::string commit;      ///< git commit (short hash) or "unknown"
  std::string branch;      ///< git branch or "unknown"
  std::string build_type;  ///< "release" / "debug" (NDEBUG at compile time)
  std::string host;        ///< host fingerprint: nodename/machine
  int64_t unix_time = 0;   ///< seconds since the epoch at append time
};

/// Stamp for the running process. Environment overrides `T1SFQ_COMMIT` /
/// `T1SFQ_BRANCH` win (CI and tests pin them); otherwise `git rev-parse`
/// answers, falling back to "unknown" outside a checkout.
ResultStamp current_stamp();

/// One database row: a bench record plus its stamp.
struct ResultRow {
  std::string bench;
  std::string circuit;
  std::string config;
  uint64_t config_hash = 0;
  ResultStamp stamp;
  std::vector<std::pair<std::string, int64_t>> metrics;
  std::vector<std::pair<std::string, double>> time_ms;
  std::vector<std::pair<std::string, double>> ratios;
  std::vector<std::pair<std::string, int64_t>> counters;

  const int64_t* metric(std::string_view name) const;
  const double* ratio(std::string_view name) const;
  const int64_t* counter(std::string_view name) const;
};

/// Serializes one row as a single compact JSON line (no trailing newline).
void write_row(std::ostream& os, const ResultRow& row);

/// Parses one line; nullopt on malformed JSON, wrong schema, or a missing
/// identity field (bench/circuit/config_hash/commit).
std::optional<ResultRow> parse_row(std::string_view line);

struct ResultDb {
  std::vector<ResultRow> rows;    ///< file order == append (chronological) order
  std::size_t skipped_lines = 0;  ///< corrupt / wrong-schema lines ignored
};

/// Loads a database; a missing file is an empty database (first append
/// creates it), corrupt lines are skipped and counted.
ResultDb load_result_db(const std::string& path);

/// Appends rows atomically (temp file + rename of the whole file). Returns
/// false on I/O failure.
bool append_result_rows(const std::string& path, const std::vector<ResultRow>& rows);

/// Join identity — same key as the snapshot comparator: (bench, circuit,
/// config_hash).
struct RowKey {
  std::string bench;
  std::string circuit;
  uint64_t config_hash = 0;
  bool operator<(const RowKey& o) const;
  bool operator==(const RowKey& o) const;
};
RowKey key_of(const ResultRow& row);

/// All rows for a key, in append order (the trajectory).
std::vector<const ResultRow*> rows_for_key(const ResultDb& db, const RowKey& key);

/// Converts a parsed `t1sfq-bench-v1` document (the `--json` output) into
/// rows stamped with \p stamp. Returns nullopt when the document does not
/// carry the bench-v1 schema.
std::optional<std::vector<ResultRow>> rows_from_bench_json(std::string_view text,
                                                           const ResultStamp& stamp);

// ---------------------------------------------------------------------------
// Trajectory gate
// ---------------------------------------------------------------------------

struct GateOptions {
  std::size_t last_k = 5;     ///< rolling window for the ratio median
  double ratio_frac = 0.5;    ///< current >= frac * median(last_k)
  double ratio_floor = 1.0;   ///< absolute minimum for every gated ratio
  double quality_tol = 0.0;   ///< relative tolerance on metrics (0 = exact)
  std::size_t explain_top = 3;  ///< counter deltas attached to a failure
};

struct GateFinding {
  std::string label;    ///< bench/circuit[config]
  std::string message;  ///< human-readable verdict (attribution included)
  bool failure = false;
};

struct GateReport {
  std::vector<GateFinding> findings;  ///< failures and ungated-new notes
  std::size_t checked_metrics = 0;
  std::size_t checked_ratios = 0;
  std::size_t ungated_new = 0;  ///< current records with no history yet
  bool ok() const;
};

/// Gates \p current against the rolling history: quality metrics must match
/// the latest row for the key exactly (within quality_tol), every ratio the
/// reference row carries must satisfy `current >= max(floor, frac * median)`
/// over the last_k rows, and every key present at the history's latest commit
/// (per bench) must appear in the current run (coverage loss fails). Ratio
/// failures carry counter-level attribution against the reference row.
GateReport gate_against_history(const ResultDb& history,
                                const std::vector<ResultRow>& current,
                                const GateOptions& opts);

// ---------------------------------------------------------------------------
// Counter-level regression attribution
// ---------------------------------------------------------------------------

/// One counter difference between a reference and a current row, scored so
/// the suspects sort first: score = |log2(cur/ref)| * log2(2 + max(|ref|,
/// |cur|)) — a counter that tripled matters more when it is large.
struct CounterDelta {
  std::string name;
  int64_t ref = 0;
  int64_t cur = 0;
  double rel = 0.0;  ///< (cur - ref) / max(1, |ref|)
  double score = 0.0;
};

/// Diffs the counter snapshots of two rows (union of names; a missing side
/// counts as 0) and returns the top_n highest-scoring deltas, ties broken by
/// name. Counters equal on both sides never appear.
std::vector<CounterDelta> attribute_counters(const ResultRow& ref, const ResultRow& cur,
                                             std::size_t top_n);

/// "detect.guard" from "detect.guard.declines" — the subsystem a counter
/// belongs to (everything before the last dot; the whole name when undotted).
std::string counter_subsystem(std::string_view counter_name);

// ---------------------------------------------------------------------------
// Rendered trajectory report
// ---------------------------------------------------------------------------

struct ReportOptions {
  std::size_t last_k = 0;  ///< entries per trajectory (0 = all)
  std::string db_name = "bench_history.jsonl";  ///< shown in the header
};

/// Markdown report: one section per bench, one sparkline table per (circuit,
/// config) with every metric / ratio / wall-time series across the recorded
/// commits. Regenerated into docs/PERF_TRAJECTORY.md and uploaded from CI.
void render_report_markdown(std::ostream& os, const ResultDb& db,
                            const ReportOptions& opts);

/// Same content as a self-contained HTML page (CI artifact).
void render_report_html(std::ostream& os, const ResultDb& db, const ReportOptions& opts);

}  // namespace t1sfq::obs
