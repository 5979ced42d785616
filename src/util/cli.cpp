#include "util/cli.h"

#include <cstdio>
#include <stdexcept>

#include "util/strings.h"

namespace atlas::util {

Cli& Cli::flag(const std::string& name, const std::string& default_value,
               const std::string& help) {
  if (flags_.try_emplace(name, Flag{default_value, help}).second) {
    order_.push_back(name);
  }
  return *this;
}

void Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      help_requested_ = true;
      return;
    }
    if (!starts_with(arg, "--")) {
      throw std::runtime_error("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) throw std::runtime_error("unknown flag: --" + name);
    if (!has_value) {
      // Bare booleans allowed; otherwise consume the next token.
      if (it->second.value == "true" || it->second.value == "false") {
        if (i + 1 < argc && (std::string(argv[i + 1]) == "true" ||
                             std::string(argv[i + 1]) == "false")) {
          value = argv[++i];
        } else {
          value = "true";
        }
      } else {
        if (i + 1 >= argc) throw std::runtime_error("missing value for --" + name);
        value = argv[++i];
      }
    }
    it->second.value = value;
  }
}

const Cli::Flag& Cli::lookup(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) throw std::runtime_error("undeclared flag: --" + name);
  return it->second;
}

std::string Cli::str(const std::string& name) const { return lookup(name).value; }

namespace {

// Parses the whole of `value` with `parse` (std::stoll / std::stod); any
// rejected, out-of-range or partly consumed value names the flag.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& value,
                 const char* kind, Parse parse) {
  std::size_t used = 0;
  decltype(parse(value, &used)) out{};
  try {
    out = parse(value, &used);
  } catch (const std::logic_error&) {
    used = 0;
  }
  if (used == 0 || used != value.size()) {
    throw std::runtime_error("flag --" + name + " expects " + kind +
                             ", got '" + value + "'");
  }
  return out;
}

}  // namespace

long long Cli::integer(const std::string& name) const {
  return parse_whole(name, lookup(name).value, "an integer",
                     [](const std::string& v, std::size_t* used) {
                       return std::stoll(v, used);
                     });
}

double Cli::real(const std::string& name) const {
  return parse_whole(name, lookup(name).value, "a number",
                     [](const std::string& v, std::size_t* used) {
                       return std::stod(v, used);
                     });
}

bool Cli::boolean(const std::string& name) const {
  const std::string& v = lookup(name).value;
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  throw std::runtime_error("flag --" + name + " is not boolean: " + v);
}

std::string Cli::usage(const std::string& program) const {
  std::string out = "usage: " + program + " [flags]\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    out += format("  --%-24s %s (default: %s)\n", name.c_str(), f.help.c_str(),
                  f.value.c_str());
  }
  return out;
}

}  // namespace atlas::util
