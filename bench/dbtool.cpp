/// \file dbtool.cpp
/// \brief Query / compare / gate CLI over the append-only bench result DB
/// (bench_history.jsonl, see src/obs/resultdb.hpp).
///
/// Usage: dbtool <command> [--db <path>] [command options]
///
///   list    [--bench B] [--circuit C]
///       Prints every trajectory: one block per (bench, circuit, config),
///       one line per metric / ratio / wall-time series across the recorded
///       commits, in append order.
///   append  --from <bench.json> [--from <bench.json> ...]
///       Converts `t1sfq-bench-v1` documents (the `--json` output of every
///       bench driver) into rows stamped with the current commit / branch /
///       build / host and appends them atomically.
///   gate    --current <bench.json> [...] [--last-k N] [--ratio-frac F]
///           [--ratio-floor F] [--quality-tol F] [--top N]
///       Gates the current run against the rolling history: metrics exact
///       against the latest row, ratios against max(floor, frac * median of
///       the last K), coverage against the latest commit. Ratio failures
///       carry counter-level attribution. Exits 1 on regression.
///   compare --base <commit> --target <commit> [--quality-tol F]
///           [--ratio-frac F] [--ratio-floor F]
///       Diffs the rows recorded at two commits (prefix match on the hash):
///       quality drift, ratio regressions, coverage changes. Exits 1 when
///       the target regressed.
///   explain [--base <commit>] (--current <bench.json> | --target <commit>)
///           [--top N]
///       Counter-level attribution: diffs counter snapshots against the
///       reference rows (--base commit, default: latest row per key) and
///       prints the top deltas with the suspect subsystem.
///   report  [--out <file.md>] [--html <file.html>] [--last-k N]
///       Renders the trajectory report (sparkline tables); markdown goes to
///       stdout when --out is omitted.
///
/// The default database is ./bench_history.jsonl; --db overrides. Exit
/// codes: 0 ok, 1 regression / failed check, 2 usage or I/O error.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/argparse.hpp"
#include "obs/resultdb.hpp"

using namespace t1sfq;

namespace {

int usage() {
  std::cerr
      << "usage: dbtool <list|append|gate|compare|explain|report> [--db <path>]\n"
         "  list    [--bench B] [--circuit C]\n"
         "  append  --from <bench.json> [--from ...]\n"
         "  gate    --current <bench.json> [...] [--last-k N] [--ratio-frac F]\n"
         "          [--ratio-floor F] [--quality-tol F] [--top N]\n"
         "  compare --base <commit> --target <commit> [--quality-tol F]\n"
         "          [--ratio-frac F] [--ratio-floor F]\n"
         "  explain [--base <commit>] (--current <bench.json> | --target <commit>)\n"
         "          [--top N]\n"
         "  report  [--out <file.md>] [--html <file.html>] [--last-k N]\n";
  return 2;
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Prefix match in either direction: the DB stores short hashes, CI passes
/// full ones (and vice versa).
bool commit_matches(const std::string& row_commit, const std::string& query) {
  if (row_commit.empty() || query.empty()) {
    return false;
  }
  return row_commit.rfind(query, 0) == 0 || query.rfind(row_commit, 0) == 0;
}

std::string label_of(const obs::ResultRow& r) {
  return r.bench + "/" + r.circuit + " [" + r.config + "]";
}

/// Latest row per key among the rows stamped with \p commit (later appends
/// win, matching the gate's reference selection).
std::map<obs::RowKey, const obs::ResultRow*> rows_at_commit(const obs::ResultDb& db,
                                                            const std::string& commit) {
  std::map<obs::RowKey, const obs::ResultRow*> out;
  for (const obs::ResultRow& row : db.rows) {
    if (commit_matches(row.stamp.commit, commit)) {
      out[obs::key_of(row)] = &row;
    }
  }
  return out;
}

/// Reads one or more `--current` bench-v1 documents into rows (stamp only
/// used for labelling, never appended).
std::optional<std::vector<obs::ResultRow>> load_current(
    const std::vector<std::string>& files) {
  std::vector<obs::ResultRow> current;
  const obs::ResultStamp stamp = obs::current_stamp();
  for (const std::string& path : files) {
    const auto text = slurp(path);
    if (!text) {
      std::cerr << "dbtool: cannot read " << path << "\n";
      return std::nullopt;
    }
    auto rows = obs::rows_from_bench_json(*text, stamp);
    if (!rows) {
      std::cerr << "dbtool: " << path << " is not a t1sfq-bench-v1 document\n";
      return std::nullopt;
    }
    current.insert(current.end(), rows->begin(), rows->end());
  }
  return current;
}

int cmd_list(const obs::ResultDb& db, const std::string& bench_filter,
             const std::string& circuit_filter) {
  std::set<obs::RowKey> keys;
  for (const obs::ResultRow& row : db.rows) {
    if (!bench_filter.empty() && row.bench != bench_filter) {
      continue;
    }
    if (!circuit_filter.empty() && row.circuit != circuit_filter) {
      continue;
    }
    keys.insert(obs::key_of(row));
  }
  for (const obs::RowKey& key : keys) {
    const auto traj = obs::rows_for_key(db, key);
    if (traj.empty()) {
      continue;
    }
    const obs::ResultRow& last = *traj.back();
    std::cout << label_of(last) << "  (" << traj.size() << " entries, "
              << traj.front()->stamp.commit << " .. " << last.stamp.commit << ")\n";
    // One line per series, values in append order; keys come from the latest
    // row so retired metrics fall off the listing naturally.
    for (const auto& [name, unused] : last.metrics) {
      (void)unused;
      std::cout << "  " << name << ":";
      for (const obs::ResultRow* row : traj) {
        const int64_t* v = row->metric(name);
        std::cout << " " << (v ? std::to_string(*v) : "-");
      }
      std::cout << "\n";
    }
    for (const auto& [name, unused] : last.ratios) {
      (void)unused;
      std::cout << "  ratio:" << name << ":";
      for (const obs::ResultRow* row : traj) {
        const double* v = row->ratio(name);
        if (v) {
          std::cout << " " << *v;
        } else {
          std::cout << " -";
        }
      }
      std::cout << "\n";
    }
  }
  if (db.skipped_lines > 0) {
    std::cout << "(" << db.skipped_lines << " corrupt line(s) skipped)\n";
  }
  return 0;
}

int cmd_append(const std::string& db_path, const std::vector<std::string>& files) {
  const auto rows = load_current(files);
  if (!rows) {
    return 2;
  }
  if (rows->empty()) {
    std::cerr << "dbtool: nothing to append\n";
    return 2;
  }
  if (!obs::append_result_rows(db_path, *rows)) {
    std::cerr << "dbtool: cannot append to " << db_path << "\n";
    return 2;
  }
  std::cout << "appended " << rows->size() << " row(s) to " << db_path << " at commit "
            << rows->front().stamp.commit << "\n";
  return 0;
}

int cmd_gate(const obs::ResultDb& db, const std::vector<std::string>& files,
             const obs::GateOptions& opts) {
  const auto current = load_current(files);
  if (!current) {
    return 2;
  }
  const obs::GateReport report = obs::gate_against_history(db, *current, opts);
  for (const obs::GateFinding& f : report.findings) {
    std::cout << (f.failure ? "FAIL " : "note ") << f.label << ": " << f.message
              << "\n";
  }
  std::cout << "checked " << report.checked_metrics << " metric(s), "
            << report.checked_ratios << " ratio(s)";
  if (report.ungated_new > 0) {
    std::cout << ", " << report.ungated_new << " new record(s) without history";
  }
  if (db.skipped_lines > 0) {
    std::cout << ", " << db.skipped_lines << " corrupt history line(s) skipped";
  }
  std::cout << (report.ok() ? " -- OK\n" : " -- REGRESSION\n");
  return report.ok() ? 0 : 1;
}

int cmd_compare(const obs::ResultDb& db, const std::string& base,
                const std::string& target, const obs::GateOptions& opts) {
  const auto base_rows = rows_at_commit(db, base);
  const auto target_rows = rows_at_commit(db, target);
  if (base_rows.empty()) {
    std::cerr << "dbtool: no rows at commit " << base << "\n";
    return 2;
  }
  if (target_rows.empty()) {
    std::cerr << "dbtool: no rows at commit " << target << "\n";
    return 2;
  }
  bool failed = false;
  std::size_t drifted = 0;
  for (const auto& [key, ref] : base_rows) {
    const auto it = target_rows.find(key);
    if (it == target_rows.end()) {
      std::cout << "FAIL " << label_of(*ref) << ": present at " << base
                << " but missing at " << target << "\n";
      failed = true;
      continue;
    }
    const obs::ResultRow& cur = *it->second;
    for (const auto& [name, ref_v] : ref->metrics) {
      const int64_t* cur_v = cur.metric(name);
      if (!cur_v) {
        std::cout << "FAIL " << label_of(cur) << ": metric " << name
                  << " dropped at " << target << "\n";
        failed = true;
        continue;
      }
      const double tol = opts.quality_tol * std::max<double>(1.0, std::abs(double(ref_v)));
      if (std::abs(double(*cur_v) - double(ref_v)) > tol) {
        std::cout << "DIFF " << label_of(cur) << ": " << name << " " << ref_v
                  << " -> " << *cur_v << "\n";
        ++drifted;
        failed = true;
      }
    }
    for (const auto& [name, ref_v] : ref->ratios) {
      const double* cur_v = cur.ratio(name);
      if (!cur_v) {
        continue;  // timing ratios may be retired without being a regression
      }
      const double bound = std::max(opts.ratio_floor, opts.ratio_frac * ref_v);
      if (*cur_v < bound) {
        std::cout << "FAIL " << label_of(cur) << ": ratio " << name << " " << ref_v
                  << " -> " << *cur_v << " (bound " << bound << ")";
        const auto deltas = obs::attribute_counters(*ref, cur, opts.explain_top);
        if (!deltas.empty()) {
          std::cout << "; suspect subsystem: "
                    << obs::counter_subsystem(deltas.front().name);
        }
        std::cout << "\n";
        failed = true;
      } else if (*cur_v != ref_v) {
        std::cout << "note " << label_of(cur) << ": ratio " << name << " " << ref_v
                  << " -> " << *cur_v << "\n";
      }
    }
  }
  for (const auto& [key, cur] : target_rows) {
    if (base_rows.find(key) == base_rows.end()) {
      std::cout << "note " << label_of(*cur) << ": new at " << target << "\n";
    }
  }
  std::cout << "compared " << base_rows.size() << " row(s) " << base << " -> "
            << target << (failed ? " -- REGRESSION\n" : " -- OK\n");
  (void)drifted;
  return failed ? 1 : 0;
}

void print_deltas(const obs::ResultRow& ref, const obs::ResultRow& cur,
                  std::size_t top) {
  const auto deltas = obs::attribute_counters(ref, cur, top);
  std::cout << label_of(cur) << " (" << ref.stamp.commit << " -> "
            << cur.stamp.commit << ")\n";
  if (deltas.empty()) {
    std::cout << "  no counter deltas\n";
    return;
  }
  std::cout << "  suspect subsystem: " << obs::counter_subsystem(deltas.front().name)
            << "\n";
  for (const obs::CounterDelta& d : deltas) {
    std::cout << "  " << d.name << ": " << d.ref << " -> " << d.cur << " ("
              << (d.rel >= 0 ? "+" : "") << static_cast<long long>(d.rel * 100.0)
              << "%)\n";
  }
}

int cmd_explain(const obs::ResultDb& db, const std::string& base,
                const std::string& target, const std::vector<std::string>& files,
                std::size_t top) {
  // Current side: rows from --current files, or the rows at --target.
  std::vector<obs::ResultRow> current;
  if (!files.empty()) {
    const auto loaded = load_current(files);
    if (!loaded) {
      return 2;
    }
    current = *loaded;
  } else if (!target.empty()) {
    for (const auto& [key, row] : rows_at_commit(db, target)) {
      (void)key;
      current.push_back(*row);
    }
  } else {
    std::cerr << "dbtool: explain needs --current <bench.json> or --target <commit>\n";
    return 2;
  }
  // Reference side: rows at --base, or the latest row per key.
  std::map<obs::RowKey, const obs::ResultRow*> refs;
  if (!base.empty()) {
    refs = rows_at_commit(db, base);
    if (refs.empty()) {
      std::cerr << "dbtool: no rows at commit " << base << "\n";
      return 2;
    }
  } else {
    for (const obs::ResultRow& row : db.rows) {
      refs[obs::key_of(row)] = &row;  // append order: the last row wins
    }
  }
  std::size_t matched = 0;
  for (const obs::ResultRow& cur : current) {
    const auto it = refs.find(obs::key_of(cur));
    if (it == refs.end()) {
      std::cout << label_of(cur) << ": no reference row\n";
      continue;
    }
    print_deltas(*it->second, cur, top);
    ++matched;
  }
  if (matched == 0) {
    std::cerr << "dbtool: no (bench, circuit, config) overlap with the reference\n";
    return 1;
  }
  return 0;
}

int cmd_report(const obs::ResultDb& db, const std::string& out_md,
               const std::string& out_html, const obs::ReportOptions& opts) {
  if (!out_md.empty()) {
    std::ofstream os(out_md);
    if (!os) {
      std::cerr << "dbtool: cannot write " << out_md << "\n";
      return 2;
    }
    obs::render_report_markdown(os, db, opts);
  }
  if (!out_html.empty()) {
    std::ofstream os(out_html);
    if (!os) {
      std::cerr << "dbtool: cannot write " << out_html << "\n";
      return 2;
    }
    obs::render_report_html(os, db, opts);
  }
  if (out_md.empty() && out_html.empty()) {
    obs::render_report_markdown(std::cout, db, opts);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string cmd = argv[1];
  std::string db_path = "bench_history.jsonl";
  std::string bench_filter, circuit_filter, base, target, out_md, out_html;
  std::vector<std::string> files;
  obs::GateOptions gate_opts;
  obs::ReportOptions report_opts;
  // `--last-k` is the gate's ratio window, or the report's trajectory length.
  std::size_t* last_k = cmd == "report" ? &report_opts.last_k : &gate_opts.last_k;
  bench::ArgParser args("dbtool " + cmd);
  args.string_opt("--db", &db_path, "path", "result database (default bench_history.jsonl)")
      .string_opt("--bench", &bench_filter, "B", "list: only this bench")
      .string_opt("--circuit", &circuit_filter, "C", "list: only this circuit")
      .repeated_string_opt("--from", &files, "bench.json",
                           "append: a t1sfq-bench-v1 document (repeatable)")
      .repeated_string_opt("--current", &files, "bench.json",
                           "gate/explain: the current run's document (repeatable)")
      .string_opt("--base", &base, "commit", "compare/explain: reference commit")
      .string_opt("--target", &target, "commit", "compare/explain: target commit")
      .size_opt("--last-k", last_k, "N",
                "gate: ratio-median window; report: entries per trajectory")
      .double_opt("--ratio-frac", &gate_opts.ratio_frac, "F",
                  "ratio bound as a fraction of the median")
      .double_opt("--ratio-floor", &gate_opts.ratio_floor, "F", "absolute ratio floor")
      .double_opt("--quality-tol", &gate_opts.quality_tol, "F",
                  "relative metric tolerance (0 = exact)")
      .size_opt("--top", &gate_opts.explain_top, "N", "counter deltas per attribution")
      .string_opt("--out", &out_md, "file.md", "report: markdown output")
      .string_opt("--html", &out_html, "file.html", "report: HTML output");
  // The parser sees the flags after the command (argv[1] stands in for the
  // program name).
  if (!args.parse(argc - 1, argv + 1)) {
    return 2;
  }

  if (cmd == "append") {
    if (files.empty()) {
      return usage();
    }
    return cmd_append(db_path, files);
  }

  const obs::ResultDb db = obs::load_result_db(db_path);
  if (cmd == "list") {
    return cmd_list(db, bench_filter, circuit_filter);
  }
  if (cmd == "gate") {
    if (files.empty()) {
      return usage();
    }
    return cmd_gate(db, files, gate_opts);
  }
  if (cmd == "compare") {
    if (base.empty() || target.empty()) {
      return usage();
    }
    return cmd_compare(db, base, target, gate_opts);
  }
  if (cmd == "explain") {
    return cmd_explain(db, base, target, files, gate_opts.explain_top);
  }
  if (cmd == "report") {
    return cmd_report(db, out_md, out_html, report_opts);
  }
  return usage();
}
