#include "common/cli.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hetis::cli {
namespace {

/// Decimal digits only (no sign, space or fraction), without overflow.
std::optional<unsigned long long> to_integer(const std::string& text) {
  if (text.empty() || text.size() > 19) return std::nullopt;  // 19 digits fit 64 bits
  unsigned long long v = 0;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    v = v * 10 + static_cast<unsigned long long>(c - '0');
  }
  return v;
}

/// A finite number with no trailing characters, or nullopt.
std::optional<double> to_number(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace

std::optional<std::size_t> to_count(const std::string& text) {
  const auto v = to_integer(text);
  if (!v || *v == 0) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

const std::string* Args::find(const std::string& name) const {
  // A flag given twice takes its last value.
  for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
    if (it->first == name) return &it->second;
  }
  return nullptr;
}

std::string Args::text(const std::string& name, const std::string& fallback) const {
  const std::string* v = find(name);
  return v != nullptr ? *v : fallback;
}

double Args::positive(const std::string& name, double fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  const auto x = to_number(*v);
  if (!x || *x <= 0) fail(name + " expects a positive number, got '" + *v + "'");
  return *x;
}

double Args::non_negative(const std::string& name, double fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  const auto x = to_number(*v);
  if (!x || *x < 0) fail(name + " expects a non-negative number, got '" + *v + "'");
  return *x;
}

std::size_t Args::count(const std::string& name, std::size_t fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  const auto n = to_count(*v);
  if (!n) fail(name + " expects a positive integer, got '" + *v + "'");
  return *n;
}

int Args::jobs(int fallback) const {
  const std::string* v = find("--jobs");
  if (v == nullptr) return fallback;
  const auto n = to_integer(*v);
  if (!n || *n > INT_MAX) fail("--jobs expects a non-negative integer, got '" + *v + "'");
  return static_cast<int>(*n);
}

void Args::fail(const std::string& reason) const {
  std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), reason.c_str(), usage_.c_str());
  std::exit(2);
}

Parser& Parser::flag(std::string name, std::string help) {
  entries_.push_back({Kind::kSwitch, std::move(name), "", std::move(help)});
  return *this;
}

Parser& Parser::option(std::string name, std::string value, std::string help) {
  entries_.push_back({Kind::kValued, std::move(name), std::move(value), std::move(help)});
  return *this;
}

Parser& Parser::positional(std::string name, std::string help) {
  entries_.push_back({Kind::kPositional, std::move(name), "", std::move(help)});
  return *this;
}

Parser& Parser::rest(std::string name, std::string help) {
  entries_.push_back({Kind::kRest, std::move(name), "", std::move(help)});
  return *this;
}

const Parser::Entry* Parser::flag_entry(const std::string& arg) const {
  for (const Entry& e : entries_) {
    if ((e.kind == Kind::kSwitch || e.kind == Kind::kValued) && e.name == arg) return &e;
  }
  return nullptr;
}

std::string Parser::usage() const {
  std::string line = "usage: " + program_;
  std::size_t width = 6;  // "--help"
  for (const Entry& e : entries_) {
    std::string shown = e.value.empty() ? e.name : e.name + " " + e.value;
    width = std::max(width, shown.size());
    if (e.kind == Kind::kRest) shown += " ...";
    line += " [" + shown + "]";
  }
  std::string out = line + "\n";
  auto describe = [&out, width](const std::string& shown, const std::string& help) {
    out += "  " + shown + std::string(width - shown.size() + 2, ' ') + help + "\n";
  };
  for (const Entry& e : entries_) {
    describe(e.value.empty() ? e.name : e.name + " " + e.value, e.help);
  }
  describe("--help", "print this message and exit");
  return out;
}

Args Parser::parse(int argc, const char* const* argv) const {
  Args args;
  args.program_ = program_;
  args.usage_ = usage();
  auto next_positional = entries_.begin();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::printf("%s", args.usage_.c_str());
      std::exit(0);
    }
    if (arg.rfind("--", 0) == 0) {
      const Entry* e = flag_entry(arg);
      if (e == nullptr) args.fail("unknown flag '" + arg + "'");
      if (e->kind == Kind::kSwitch) {
        args.values_.emplace_back(arg, "");
      } else if (i + 1 < argc) {
        args.values_.emplace_back(arg, argv[++i]);
      } else {
        args.fail("missing value for '" + arg + "'");
      }
      continue;
    }
    next_positional = std::find_if(next_positional, entries_.end(), [](const Entry& e) {
      return e.kind == Kind::kPositional || e.kind == Kind::kRest;
    });
    if (next_positional == entries_.end()) args.fail("unexpected argument '" + arg + "'");
    if (next_positional->kind == Kind::kRest) {
      args.rest_.push_back(arg);
    } else {
      args.values_.emplace_back((next_positional++)->name, arg);
    }
  }
  return args;
}

}  // namespace hetis::cli
