// Minimal command-line flag parser used by the bench harnesses and examples.
//
// Flags take the form `--name value` or `--name=value`; boolean flags may be
// given bare (`--verbose`). Unknown flags raise an error so typos in sweep
// scripts fail loudly.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace atlas::util {

class Cli {
 public:
  /// Declare a flag with its default and help text; returns *this for chaining.
  Cli& flag(const std::string& name, const std::string& default_value,
            const std::string& help);

  /// Parse argv. Throws std::runtime_error on unknown flags or missing values.
  /// Recognizes --help: prints usage and sets help_requested().
  void parse(int argc, const char* const* argv);

  bool help_requested() const { return help_requested_; }

  std::string str(const std::string& name) const;
  /// The whole value as a number. Throws std::runtime_error naming the
  /// flag if any part of it does not parse ("4x", "abc", "") or it is out
  /// of range.
  long long integer(const std::string& name) const;
  double real(const std::string& name) const;
  bool boolean(const std::string& name) const;

  /// Usage text built from declared flags.
  std::string usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string help;
  };
  const Flag& lookup(const std::string& name) const;

  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  bool help_requested_ = false;
};

}  // namespace atlas::util
