#pragma once
/// \file argparse.hpp
/// \brief Declarative CLI flag parsing shared by the bench executables.
///
/// Every bench used to hand-roll the same `strcmp(argv[i], ...)` loop —
/// duplicated value conversion, duplicated usage strings that drifted from
/// the real flag set. `ArgParser` replaces the loop: benches register typed
/// options bound to local variables, `parse()` fills them, and the usage
/// line is generated from the registrations so it cannot go stale.
///
///   bench::ArgParser args("bench_table1");
///   args.uint_opt("--phases", &phases, "N", "clock phases")
///       .flag("--physics", &physics, "run the pulse-level oracle")
///       .string_opt("--db", &db_path, "path", "append records to result DB");
///   if (!args.parse(argc, argv)) return 2;
///
/// Errors (unknown flag, missing or malformed value) print the generated
/// usage to stderr and make parse() return false — the benches' historical
/// exit-2 contract.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace t1sfq::bench {

class ArgParser {
 public:
  explicit ArgParser(std::string program) : program_(std::move(program)) {}

  /// `--name` (no value): sets *out to true.
  ArgParser& flag(const char* name, bool* out, const char* help);
  /// `--name` (no value): sets *out to \p value (e.g. `--full` = shrink 1).
  ArgParser& preset(const char* name, unsigned* out, unsigned value, const char* help);

  ArgParser& uint_opt(const char* name, unsigned* out, const char* metavar,
                      const char* help);
  ArgParser& u64_opt(const char* name, uint64_t* out, const char* metavar,
                     const char* help);
  ArgParser& size_opt(const char* name, std::size_t* out, const char* metavar,
                      const char* help);
  ArgParser& double_opt(const char* name, double* out, const char* metavar,
                        const char* help);
  ArgParser& string_opt(const char* name, std::string* out, const char* metavar,
                        const char* help);
  /// Repeatable string option (e.g. `--from a.json --from b.json`): every
  /// occurrence appends its value to *out, in command-line order.
  ArgParser& repeated_string_opt(const char* name, std::vector<std::string>* out,
                                 const char* metavar, const char* help);
  /// Comma-separated unsigned list (e.g. `--points 1000,2000,5000`);
  /// replaces *out entirely when the flag is present.
  ArgParser& uint_list(const char* name, std::vector<unsigned>* out,
                       const char* metavar, const char* help);

  /// Parses argv. On any error: prints the error and generated usage to
  /// stderr and returns false. `--help` prints usage to stdout and also
  /// returns false (callers exit either way).
  bool parse(int argc, char** argv) const;

  /// Generated one-line usage text.
  std::string usage() const;

 private:
  struct Option {
    std::string name;
    bool takes_value = false;
    std::string metavar;
    std::string help;
    std::function<bool(const std::string&)> apply;  // false: malformed value
  };

  ArgParser& add_(Option opt);

  std::string program_;
  std::vector<Option> options_;
};

}  // namespace t1sfq::bench
