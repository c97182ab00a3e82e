#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace fewner::util {

void FlagParser::AddInt(const std::string& name, int64_t default_value,
                        const std::string& help) {
  flags_[name] = Flag{Type::kInt, help, std::to_string(default_value),
                      std::to_string(default_value)};
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help) {
  std::ostringstream oss;
  oss << default_value;
  flags_[name] = Flag{Type::kDouble, help, oss.str(), oss.str()};
}

void FlagParser::AddString(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  flags_[name] = Flag{Type::kString, help, default_value, default_value};
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help) {
  const std::string v = default_value ? "true" : "false";
  flags_[name] = Flag{Type::kBool, help, v, v};
}

Status FlagParser::Set(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  Flag& flag = it->second;
  switch (flag.type) {
    case Type::kInt: {
      // strtoll saturates out-of-range input at INT64_MIN/MAX and reports it
      // only through errno.
      char* end = nullptr;
      errno = 0;
      std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + name + " expects an integer, got '" +
                                       value + "'");
      }
      if (errno == ERANGE) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects an integer within int64, got '" +
                                       value + "'");
      }
      break;
    }
    case Type::kDouble: {
      // strtod accepts "nan" and "inf" and saturates overflow at HUGE_VAL
      // (underflow at 0), reporting the range error only through errno.
      char* end = nullptr;
      errno = 0;
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + name + " expects a number, got '" +
                                       value + "'");
      }
      if (errno == ERANGE || !std::isfinite(parsed)) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a finite number within double range, got '" +
                                       value + "'");
      }
      break;
    }
    case Type::kBool:
      if (value != "true" && value != "false") {
        return Status::InvalidArgument("flag --" + name + " expects true/false, got '" +
                                       value + "'");
      }
      break;
    case Type::kString:
      break;
  }
  flag.value = value;
  return Status::OK();
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      std::cout << Usage(argv[0]);
      return Status::OK();
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected a flag, got '" + arg + "'");
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      auto it = flags_.find(name);
      if (it == flags_.end()) {
        return Status::InvalidArgument("unknown flag --" + name);
      }
      if (it->second.type == Type::kBool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return Status::InvalidArgument("flag --" + name + " is missing a value");
      }
    }
    FEWNER_RETURN_IF_ERROR(Set(name, value));
  }
  return Status::OK();
}

int64_t FlagParser::GetInt(const std::string& name) const {
  auto it = flags_.find(name);
  FEWNER_CHECK(it != flags_.end() && it->second.type == Type::kInt,
               "GetInt on unregistered flag " << name);
  return std::strtoll(it->second.value.c_str(), nullptr, 10);
}

double FlagParser::GetDouble(const std::string& name) const {
  auto it = flags_.find(name);
  FEWNER_CHECK(it != flags_.end() && it->second.type == Type::kDouble,
               "GetDouble on unregistered flag " << name);
  return std::strtod(it->second.value.c_str(), nullptr);
}

std::string FlagParser::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  FEWNER_CHECK(it != flags_.end() && it->second.type == Type::kString,
               "GetString on unregistered flag " << name);
  return it->second.value;
}

bool FlagParser::GetBool(const std::string& name) const {
  auto it = flags_.find(name);
  FEWNER_CHECK(it != flags_.end() && it->second.type == Type::kBool,
               "GetBool on unregistered flag " << name);
  return it->second.value == "true";
}

std::string FlagParser::Usage(const std::string& program) const {
  std::ostringstream oss;
  oss << "Usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    oss << "  --" << name << " (default: " << flag.default_value << ")\n      "
        << flag.help << "\n";
  }
  return oss.str();
}

}  // namespace fewner::util
