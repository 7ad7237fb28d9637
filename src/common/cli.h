// Command-line parsing shared by every bench and example binary.
//
//   const cli::Args args = cli::Parser("bench_scenarios")
//                              .flag("--csv", "dump the sweep rows instead of the table")
//                              .option("--rate", "R", "base rate in req/s (default 2)")
//                              .parse(argc, argv);
//   const double rate = args.positive("--rate", 2.0);
//
// The contract, for every program: `--help` prints the usage on stdout and
// exits 0.  An unknown flag, a valued flag without its value, an extra
// positional, or a value a typed getter cannot read prints a one-line
// reason and the usage on stderr and exits 2.  A program reads its values
// at the top of main, so a bad command line stops it before any work.  An
// argument that starts with `--` is a flag, any other a positional (so
// `-3` reaches a getter and fails there); a flag given twice takes its last
// value.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hetis::cli {

/// The command line read by Parser::parse: flags and positionals by name.
class Args {
 public:
  /// True when the switch or valued flag `name` was given.
  bool has(const std::string& name) const { return find(name) != nullptr; }
  /// The value of a valued flag or positional; `fallback` when absent.
  std::string text(const std::string& name, const std::string& fallback) const;
  /// A finite number > 0.
  double positive(const std::string& name, double fallback) const;
  /// A finite number >= 0.
  double non_negative(const std::string& name, double fallback) const;
  /// A decimal integer > 0.
  std::size_t count(const std::string& name, std::size_t fallback) const;
  /// `--jobs N`: a decimal integer >= 0 (0 = hardware concurrency).
  int jobs(int fallback) const;
  /// The positionals past the named ones (Parser::rest).
  const std::vector<std::string>& rest() const { return rest_; }

  /// Prints `program: reason` and the usage on stderr, then exits 2.
  [[noreturn]] void fail(const std::string& reason) const;

 private:
  friend class Parser;
  const std::string* find(const std::string& name) const;

  std::string program_;
  std::string usage_;
  std::vector<std::pair<std::string, std::string>> values_;  // name -> text ("" for a switch)
  std::vector<std::string> rest_;
};

/// Declares a program's switches, valued flags and positionals.
class Parser {
 public:
  explicit Parser(std::string program) : program_(std::move(program)) {}

  /// A switch: `name` alone.
  Parser& flag(std::string name, std::string help);
  /// A valued flag: `name VALUE`; the next argument is its value whatever it is.
  Parser& option(std::string name, std::string value, std::string help);
  /// An optional positional, filled in declaration order.
  Parser& positional(std::string name, std::string help);
  /// Accepts any number of positionals past the named ones.
  Parser& rest(std::string name, std::string help);

  /// Reads argv once under the contract above; returns only on a command
  /// line of known flags, each valued one with its value.
  Args parse(int argc, const char* const* argv) const;
  std::string usage() const;

 private:
  enum class Kind { kSwitch, kValued, kPositional, kRest };
  struct Entry {
    Kind kind;
    std::string name, value, help;
  };
  const Entry* flag_entry(const std::string& arg) const;

  std::string program_;
  std::vector<Entry> entries_;
};

/// `text` read as a decimal integer > 0 (digits only), or nullopt.
std::optional<std::size_t> to_count(const std::string& text);

}  // namespace hetis::cli
